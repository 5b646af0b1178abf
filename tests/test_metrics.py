import math

import numpy as np
import pytest

from gridcast.metrics import (
    aggregate,
    best_mode,
    brier,
    brier_min_fde,
    format_report_table,
    min_ade,
    min_fde,
    miss_rate,
    score_forecast,
)


def straight_gt(t=30, speed=1.0):
    return np.column_stack([np.arange(1, t + 1) * speed, np.zeros(t)])


def test_min_ade_exact_mode():
    gt = straight_gt()
    assert min_ade(gt[None], gt) == 0.0


def test_min_ade_constant_offset():
    gt = straight_gt()
    pred = gt + np.array([3.0, 4.0])
    assert min_ade(pred[None], gt) == pytest.approx(5.0, abs=1e-12)


def test_min_ade_min_semantics():
    gt = straight_gt()
    far = gt + 100.0
    assert min_ade(np.stack([gt, far]), gt) == 0.0


def test_min_fde_and_best_mode():
    gt = straight_gt()
    near = gt.copy()
    near[-1] += [0.0, 1.9]
    mid = gt.copy()
    mid[-1] += [0.0, 2.5]
    trajs = np.stack([mid, near])
    assert min_fde(trajs, gt) == pytest.approx(1.9, abs=1e-12)
    assert best_mode(trajs, gt) == 1


def test_best_mode_tie_lowest_index():
    gt = straight_gt()
    a = gt.copy()
    a[-1] += [0.0, 1.0]
    b = gt.copy()
    b[-1] += [0.0, -1.0]
    assert best_mode(np.stack([a, b]), gt) == 0


def test_adding_modes_never_hurts():
    rs = np.random.RandomState(0)
    gt = straight_gt(10)
    for _ in range(30):
        base = gt[None] + rs.uniform(-5, 5, size=(3, 10, 2))
        extra = np.vstack([base, gt[None] + rs.uniform(-5, 5, size=(1, 10, 2))])
        assert min_ade(extra, gt) <= min_ade(base, gt)
        assert min_fde(extra, gt) <= min_fde(base, gt)


def test_miss_rate_boundary_strict():
    assert miss_rate([0.0, 0.0]) == 0.0
    assert miss_rate([1.0, 3.0]) == 0.5
    assert miss_rate([2.0]) == 0.0  # exactly at threshold is not a miss
    assert miss_rate([2.0 + 1e-9]) == 1.0


def test_brier_endpoints():
    assert brier(1.0) == 0.0
    assert brier(0.0) == 1.0
    assert brier_min_fde(1.2, 0.7) == pytest.approx(1.29, abs=1e-12)


def test_brier_consistency_with_reference_row():
    # endpoint error 1.2048 plus a Brier term of 0.6218 must give 1.8266
    p = 1.0 - math.sqrt(0.6218)
    assert brier_min_fde(1.2048, p) == pytest.approx(1.8266, abs=1e-4)


def test_score_and_aggregate():
    gt = straight_gt()
    exact = gt[None]
    m1 = score_forecast(exact, np.array([1.0]), gt)
    assert m1.min_ade == 0.0 and m1.min_fde == 0.0 and not m1.missed
    assert m1.brier == 0.0
    off = gt + np.array([0.0, 3.0])
    m2 = score_forecast(off[None], np.array([0.5]), gt)
    assert m2.missed
    report = aggregate([m1, m2], k=1)
    assert report.miss_rate == 0.5
    assert report.min_fde == pytest.approx((0.0 + 3.0) / 2)
    assert report.brier == pytest.approx((0.0 + 0.25) / 2)


def test_report_table_alignment():
    gt = straight_gt()
    m = score_forecast(gt[None], np.array([1.0]), gt)
    table = format_report_table({"full": aggregate([m], k=1)})
    lines = table.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "method"
    assert lines[1].split()[0] == "full"
