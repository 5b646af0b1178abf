#!/usr/bin/env python3
"""gridcast benchmark: scene throughput per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload predict_default --seed 1 --seconds 20 --trace 0

Closed loop, one process, one scene at a time, BLAS pinned to one thread.
With ``--trace 0`` the run times one pass over the workload's scene set and
more scenes until ``--seconds`` have elapsed, and scores an untimed quality
set that is the same for every seed (its first scene is the warm-up). It
prints the end-to-end metrics. With
``--trace 1`` it runs a few scenes of the workload untraced and then traced
and prints the per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; every line before it is for
people. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("predict_default", "ablate_small", "baseline_batch")
P90_MIN_SAMPLES = 100    # so that at least 10 samples lie above p90

END_TO_END_UNITS = {"setup_s": "s", "scenes_per_s": "1/s", "scene_s_p50": "s",
                    "peak_rss_mb": "MB", "brier_min_fde": "m", "min_fde": "m", "brier": "1"}
QUALITY_UNITS = {"n_forecasts": "count", "brier_min_fde": "m", "brier": "1", "min_fde": "m",
                 "miss_rate": "ratio", "occupancy_focal_bce": "1", "irl_gap_inf_mean": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit nonzero without a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; the scene set is derived from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum timed wall time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import gridcast from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "gridcast" / "__init__.py").is_file():
        raise BenchError(f"no gridcast sources under {src}")
    sys.path.insert(0, str(src))
    import gridcast
    if Path(gridcast.__file__).resolve().parent != (src / "gridcast").resolve():
        raise BenchError(f"gridcast imported from {gridcast.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(wl, seed, scene_sha) -> dict:
    import numpy as np
    from gridcast.config import config_to_text
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": wl.name,
        "workload_seed": seed,
        "config": config_to_text(wl.cfg),
        "scene_set_size": wl.set_size,
        "scene_set_sha256": scene_sha,
    }


# ---------------------------------------------------------------------------
# running scenes
# ---------------------------------------------------------------------------

class SceneRunner:
    """Runs scenes one at a time, checks every output and tallies failures.

    One bad scene never aborts the run: an exception or a failed check
    counts the scene as failed and the run goes on.
    """

    def __init__(self, wl, workloads):
        self.wl = wl
        self.w = workloads
        self.attempted = 0
        self.failed = 0
        self.hashes: dict[int, list] = {}   # first result per scene index
        self.outputs: dict[int, list] = {}

    def run(self, item, call=None):
        """Run one scene; returns its wall time, or None when it failed."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            outs = call(item) if call else self.wl.run_scene(item, self.wl.cfg)
        except Exception:  # one bad scene must not sink the run
            self.failed += 1
            print(f"scene {item.index} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t
        problems = [p for o in outs for p in self.w.check_output(o, self.wl.cfg)]
        if problems:
            self.failed += 1
            print(f"scene {item.index} failed its output check: {problems}", file=sys.stderr)
            return None
        if item.index not in self.hashes:
            self.hashes[item.index] = [self.w.output_hash(item.index, o) for o in outs]
            for o in outs:  # hashed and checked; keep what the quality metrics read
                o.forecast = o.occupancy = None
            self.outputs[item.index] = outs
        return elapsed

    def first_pass(self):
        idx = sorted(self.hashes)
        return ([h for i in idx for h in self.hashes[i]],
                [o for i in idx for o in self.outputs[i]])


def set_up(wl, seed, workdir, workloads):
    """Write the timed scene set and the seed-independent quality set to JSON
    and load them, then run the first quality scene as the untimed warm-up.

    Returns the timed scene inputs, the quality scene inputs and the runner
    that holds the quality results.
    """
    paths = workloads.write_scene_set(workdir / "scenes", seed, wl.set_size)
    items = workloads.scene_inputs(paths, workdir / "forecasts", wl.preload)
    qpaths = workloads.write_scene_set(workdir / "quality", workloads.QUALITY_SEED,
                                       wl.quality_size)
    qitems = workloads.scene_inputs(qpaths, workdir / "quality-forecasts", wl.preload)
    qrunner = SceneRunner(wl, workloads)
    qrunner.run(qitems[0])
    return items, qitems, qrunner


def _set_sha256(items, workloads):
    return workloads.scene_set_sha256([item.path for item in items])


def _emit(lines, result):
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)


def _metric_line(name, value, unit, note=""):
    return f"{name:<48} {value!r} {unit}{('  ' + note) if note else ''}"


def run_untraced(wl, args, workdir, workloads):
    items, qitems, qrunner = set_up(wl, args.seed, workdir, workloads)
    runner = SceneRunner(wl, workloads)
    times = []
    timed = 0
    start = time.perf_counter()
    setup_s = start - _T0
    # at least one whole pass, so the digest covers every scene of the set
    while timed < len(items) or time.perf_counter() - start < args.seconds:
        dt = runner.run(items[timed % len(items)])
        timed += 1
        if dt is not None:
            times.append(dt)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for item in qitems[1:]:  # the rest of the quality set, untimed
        qrunner.run(item)
    _, qoutputs = qrunner.first_pass()
    qual = workloads.quality(qoutputs, wl.cfg.modes) if qoutputs else {}
    hashes, outputs = (a + b for a, b in zip(runner.first_pass(), qrunner.first_pass()))
    counts = {"irl_iterations": [o.diagnostics.iterations for o in outputs
                                 if o.diagnostics is not None]}
    attempted = runner.attempted + qrunner.attempted
    failed = runner.failed + qrunner.failed
    n = len(times)
    metrics = {
        "setup_s": setup_s,
        "scenes_per_s": n / wall,
        "scene_s_p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update({k: qual[k] for k in ("brier_min_fde", "min_fde", "brier") if k in qual})
    extra = {"failed_frac": failed / attempted}
    if n >= P90_MIN_SAMPLES:
        extra["scene_s_p90"] = statistics.quantiles(times, n=10)[8]
    record = {
        "mode": "untraced",
        "provenance": provenance(wl, args.seed, _set_sha256(items, workloads))
        | {"quality_set_size": wl.quality_size,
           "quality_set_sha256": _set_sha256(qitems, workloads)},
        "timed_wall_s": wall, "scenes_completed": n, "attempted": attempted,
        "failed": failed, "metrics": metrics, "extra": extra, "quality": qual,
        "counts": counts, "digest": workloads.digest(hashes, qual, counts),
        "scene_times_s": times,
    }
    lines = [f"workload {wl.name}  seed {args.seed}  {timed} timed scene(s) from a "
             f"set of {wl.set_size}  timed {wall:.3f} s  quality set {wl.quality_size} "
             f"scene(s)  why: {wl.why}"]
    for name, value in metrics.items():
        note = f"(n={n})" if name == "scene_s_p50" else ""
        lines.append(_metric_line(name, value, END_TO_END_UNITS[name], note))
    lines.append(_metric_line("failed_frac", extra["failed_frac"], "ratio",
                              f"({failed} of {attempted})"))
    if "scene_s_p90" in extra:
        lines.append(_metric_line("scene_s_p90", extra["scene_s_p90"], "s", f"(n={n})"))
    for name, value in qual.items():
        if name not in metrics:
            lines.append(_metric_line(name, value, QUALITY_UNITS[name], "(quality set)"))
    lines.append(f"digest {record['digest']}")
    lines.append(f"record {write_record(f'result-{wl.name}-s{args.seed}.json', record)}")
    result = {"correct": failed == 0 and len(metrics) == len(END_TO_END_UNITS),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}}
    return lines, result


def run_traced(wl, args, workdir, workloads, tracer):
    """A few scenes untraced, the same scenes traced, per-layer metrics."""
    items, _, warm = set_up(wl, args.seed, workdir, workloads)
    items = items[: wl.trace_size]
    # scene by scene, untraced then traced, so drift hits both sides alike
    plain = SceneRunner(wl, workloads)
    traced = SceneRunner(wl, workloads)
    tr = tracer.Tracer()
    untraced_s = traced_s = 0.0
    for item in items:
        t_plain = plain.run(item)
        with tracer.installed(tr) as patched:
            t_traced = traced.run(item, lambda it: tr.run("bench.scene", it.index,
                                                          wl.run_scene, it, wl.cfg))
        if t_plain is not None and t_traced is not None:
            untraced_s += t_plain
            traced_s += t_traced

    layers = tracer.layer_metrics(tr.spans)
    counts = {k: v for k, (v, _) in layers.items()
              if k.rsplit(".", 1)[1] in tracer.COUNT_STATS}
    hashes, outputs = traced.first_pass()
    qual = workloads.quality(outputs, wl.cfg.modes) if outputs else {}
    overhead = 1.0 - untraced_s / traced_s if traced_s > 0 else 0.0
    spans_file = write_record(f"spans-{wl.name}-s{args.seed}.json",
                              {"workload": wl.name, "seed": args.seed,
                               "spans": tracer.spans_to_json(tr.spans)})
    digest = workloads.digest(hashes, qual, counts)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    lines = [f"traced {wl.name}  seed {args.seed}  {len(items)} scene(s)  "
             f"untraced {untraced_s:.4f} s  traced {traced_s:.4f} s  "
             f"{len(tr.spans)} spans  {len(patched)} bindings wrapped"]
    lines += [_metric_line(f"{wl.name}.{k}", m["value"], m["unit"]) for k, m in metrics.items()]
    lines.append(f"digest {wl.name} {digest}")
    lines.append(f"spans {spans_file}")
    write_record(f"trace-{wl.name}-s{args.seed}.json",
                 {"mode": "traced", "workload": wl.name, "metrics": metrics, "quality": qual,
                  "counts": counts, "digest": digest, "untraced_s": untraced_s,
                  "traced_s": traced_s})
    runners = (warm, plain, traced)
    failed = sum(r.failed for r in runners)
    result = {"correct": failed == 0, "attempted": sum(r.attempted for r in runners),
              "failed": failed, "metrics": metrics}
    return lines, result


def write_record(filename, payload) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / filename
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, tracer = import_library()
        wl = workloads.WORKLOADS[args.workload]
        workdir = OUT / f"work-{wl.name}-s{args.seed}-{os.getpid()}"
        try:
            if args.trace:
                lines, result = run_traced(wl, args, workdir, workloads, tracer)
            else:
                lines, result = run_untraced(wl, args, workdir, workloads)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    _emit(lines, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
