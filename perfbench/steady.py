#!/usr/bin/env python3
"""Steadiness check and baseline: every workload over several seeds.

    python3 perfbench/steady.py --seeds 10

Runs ``run.py`` untraced once per (workload, seed 1..N), one process at a
time, with BENCHMARK.json's ``run_seconds``. Per end-to-end metric it reports
the median and the quartile spread ``(q3 - q1) / median`` over the seeds and
compares the spread with the metric's bound. The quality metrics come from a
seed-independent scene set, so they must be identical on every seed. It then
reruns seed 1 of each workload and requires an identical digest, quality
metrics and counts. Last it traces every workload once and writes
perfbench/baseline.json. Exits nonzero when a spread exceeds its bound, a
digest or quality metric differs or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    kind = "trace" if trace else "result"
    record = json.loads((HERE / "out" / f"{kind}-{workload}-s{seed}.json").read_text())
    return result, record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    ok = True
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}, "traced": {}}
    for name in names:
        values = {m: [] for m in bounds}
        per_seed = {}
        for seed in seeds:
            result, record = run_once(name, seed, seconds)
            ok &= result["correct"] and result["failed"] == 0
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            per_seed[seed] = {k: record[k] for k in ("digest", "quality", "extra", "attempted")}
            provenance = record["provenance"]
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds), flush=True)
        same_quality = all(r["quality"] == per_seed[seeds[0]]["quality"]
                           for r in per_seed.values())
        _, again = run_once(name, seeds[0], seconds)
        same = all(again[k] == per_seed[seeds[0]][k] for k in ("digest", "quality"))
        ok &= same and same_quality
        print(f"{name} quality set: {'identical' if same_quality else 'DIFFERS'} on every seed;"
              f" seed {seeds[0]} rerun: digest {'identical' if same else 'DIFFERS'}")
        stats = {}
        for m, vals in values.items():
            stats[m] = spread(vals) | {"bound": bounds[m]}
            within = stats[m]["spread"] <= bounds[m]
            ok &= within
            print(f"  {m:<14} median {stats[m]['median']:.6g}  spread {stats[m]['spread']:.4f}"
                  f"  bound {bounds[m]}  {'ok' if within else 'TOO WIDE'}"
                  f"{'' if stats[m]['spread'] < bounds[m] / 3 else '  (above a third)'}",
                  flush=True)
        baseline["workloads"][name] = {"end_to_end": stats, "rerun_identical": same,
                                       "quality_identical": same_quality,
                                       "provenance": provenance, "per_seed": per_seed}
        traced, _ = run_once(name, seeds[0], seconds, trace=1)
        ok &= traced["correct"]
        baseline["traced"][name] = {"seed": seeds[0], "metrics": traced["metrics"]}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
