import numpy as np
import pytest

from gridcast.grid import (
    ACTIONS,
    STAY,
    CellIndex,
    GridSpec,
    cell_to_world,
    neighbour_views,
    padded_map,
    cells_adjacent,
    quantize_trajectory,
    reachable_box,
    round_half_away,
    step,
    valid_action_mask,
    world_to_cell,
)


def spec128():
    return GridSpec(rows=128, cols=128, resolution=1.0, anchor=CellIndex(64, 64))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(rows=2, cols=10, resolution=1.0, anchor=CellIndex(0, 0))
    for resolution in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="resolution"):
            GridSpec(rows=10, cols=10, resolution=resolution, anchor=CellIndex(0, 0))
    with pytest.raises(ValueError):
        GridSpec(rows=10, cols=10, resolution=1.0, anchor=CellIndex(10, 0))


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.4) == 2
    assert round_half_away(-1.6) == -2
    assert round_half_away(1.5) == 2
    assert round_half_away(-2.5) == -3


def test_world_to_cell_examples():
    spec = spec128()
    assert world_to_cell((0.0, 0.0), spec) == CellIndex(64, 64)
    assert world_to_cell((2.4, -1.6), spec) == CellIndex(66, 62)
    assert world_to_cell((200.0, 0.0), spec) is None


def test_cell_to_world_examples():
    spec = spec128()
    assert cell_to_world(CellIndex(64, 64), spec) == (0.0, 0.0)
    assert cell_to_world(CellIndex(65, 64), spec) == (1.0, 0.0)
    spec_half = GridSpec(rows=128, cols=128, resolution=0.5, anchor=CellIndex(64, 64))
    assert cell_to_world(CellIndex(64, 63), spec_half) == (0.0, -0.5)
    with pytest.raises(ValueError):
        cell_to_world(CellIndex(-1, 0), spec)


def test_round_trip_all_cells():
    spec = GridSpec(rows=9, cols=7, resolution=0.4, anchor=CellIndex(4, 3))
    for r in range(spec.rows):
        for c in range(spec.cols):
            assert world_to_cell(cell_to_world(CellIndex(r, c), spec), spec) == CellIndex(r, c)


def test_step_examples():
    spec = spec128()
    assert step(CellIndex(0, 0), ACTIONS.index((-1, 0)), spec) is None
    assert step(CellIndex(5, 5), STAY, spec) == CellIndex(5, 5)
    assert step(CellIndex(5, 5), ACTIONS.index((1, 1)), spec) == CellIndex(6, 6)


def test_step_total_over_actions():
    spec = GridSpec(rows=4, cols=4, resolution=1.0, anchor=CellIndex(0, 0))
    mask = valid_action_mask(spec)
    for r in range(4):
        for c in range(4):
            for a in range(9):
                nxt = step(CellIndex(r, c), a, spec)
                assert (nxt is not None) == mask[r, c, a]
                if nxt is not None:
                    assert spec.contains(nxt.row, nxt.col)


def test_neighbour_views_read_each_actions_successor():
    spec = GridSpec(rows=4, cols=5, resolution=1.0, anchor=CellIndex(0, 0))
    padded = np.arange(6 * 7, dtype=float).reshape(6, 7)  # distinct values
    views = neighbour_views(padded, spec)
    assert len(views) == len(ACTIONS)
    for r in range(spec.rows):
        for c in range(spec.cols):
            for a, (dr, dc) in enumerate(ACTIONS):
                nxt = step(CellIndex(r, c), a, spec)
                if nxt is None:  # the border cell the move points at
                    expected = padded[1 + r + dr, 1 + c + dc]
                    assert not (0 < 1 + r + dr <= spec.rows and 0 < 1 + c + dc <= spec.cols)
                else:
                    expected = padded[1 + nxt.row, 1 + nxt.col]
                assert views[a].shape == (spec.rows, spec.cols)
                assert views[a][r, c] == expected
    # views share memory with the padded map, so writes land in it
    views[STAY][...] = -1.0
    assert np.all(padded[1:-1, 1:-1] == -1.0)
    with pytest.raises(ValueError):
        neighbour_views(np.zeros((4, 5)), spec)


def test_padded_map_shape_and_border():
    spec = GridSpec(rows=4, cols=5, resolution=1.0, anchor=CellIndex(0, 0))
    padded = padded_map(spec, -np.inf)
    assert padded.shape == (6, 7) and np.all(padded == -np.inf)
    assert padded_map(spec, False).dtype == bool


def test_reachable_box_clips_at_every_side():
    spec = GridSpec(rows=20, cols=30, resolution=0.5, anchor=CellIndex(2, 27),
                    anchor_world=(1.0, -2.0))
    box, (rows, cols) = reachable_box(spec, 4)
    assert (rows, cols) == (slice(0, 7), slice(23, 30))  # top and right clipped
    assert (box.rows, box.cols, box.anchor) == (7, 7, CellIndex(2, 4))
    spec = GridSpec(rows=20, cols=30, resolution=0.5, anchor=CellIndex(18, 1))
    box, (rows, cols) = reachable_box(spec, 4)
    assert (rows, cols) == (slice(14, 20), slice(0, 6))  # bottom and left clipped
    assert (box.rows, box.cols, box.anchor) == (6, 6, CellIndex(4, 1))
    spec = GridSpec(rows=20, cols=30, resolution=0.5, anchor=CellIndex(10, 15))
    _, window = reachable_box(spec, 4)
    assert window == (slice(6, 15), slice(11, 20))  # interior: the full 9x9 ball


def test_reachable_box_of_long_horizon_is_the_grid():
    spec = GridSpec(rows=9, cols=12, resolution=2.0, anchor=CellIndex(3, 7),
                    anchor_world=(4.0, 5.0))
    for horizon in (12, 13, 100):
        box, window = reachable_box(spec, horizon)
        assert box == spec
        assert window == (slice(0, 9), slice(0, 12))


def test_reachable_box_keeps_world_frame_and_window_shape():
    rs = np.random.RandomState(3)
    for _ in range(50):
        rows, cols = rs.randint(3, 40), rs.randint(3, 40)
        spec = GridSpec(rows=rows, cols=cols, resolution=float(rs.uniform(0.5, 2.0)),
                        anchor=CellIndex(rs.randint(rows), rs.randint(cols)),
                        anchor_world=tuple(rs.uniform(-5.0, 5.0, 2)))
        box, window = reachable_box(spec, int(rs.randint(1, 25)))
        assert np.zeros((rows, cols))[window].shape == (box.rows, box.cols)
        assert cell_to_world(box.anchor, box) == cell_to_world(spec.anchor, spec)
        # every box cell is the full-grid cell the window maps it to
        for cell in (CellIndex(0, 0), CellIndex(box.rows - 1, box.cols - 1)):
            full = CellIndex(window[0].start + cell.row, window[1].start + cell.col)
            assert cell_to_world(cell, box) == cell_to_world(full, spec)


def test_quantize_straight():
    spec = spec128()
    pts = np.column_stack([np.arange(5, dtype=float), np.zeros(5)])
    per_step, path = quantize_trajectory(pts, spec)
    assert len(per_step) == 5
    assert len(path) == 5
    assert len(set(path)) == 5
    assert all(c.col == 64 for c in path)


def test_quantize_stationary():
    spec = spec128()
    pts = np.zeros((5, 2))
    per_step, path = quantize_trajectory(pts, spec)
    assert per_step == [CellIndex(64, 64)] * 5
    assert path == [CellIndex(64, 64)]


def test_quantize_fast_motion_repair():
    # start plus 3 steps of 2 cells each: cells x = 0,2,4,6 -> repaired to 0..6
    spec = spec128()
    pts = np.column_stack([np.arange(0.0, 8.0, 2.0), np.zeros(4)])
    _, path = quantize_trajectory(pts, spec)
    assert len(path) == 7
    assert [c.row for c in path] == list(range(64, 71))


def test_quantize_path_always_adjacent():
    spec = spec128()
    rs = np.random.RandomState(0)
    for _ in range(50):
        pts = np.cumsum(rs.uniform(-2.5, 2.5, size=(20, 2)), axis=0)
        _, path = quantize_trajectory(pts, spec)
        for a, b in zip(path, path[1:]):
            assert cells_adjacent(a, b) and a != b
            assert spec.contains(a.row, a.col) and spec.contains(b.row, b.col)


def test_quantize_rejects_empty():
    with pytest.raises(ValueError):
        quantize_trajectory(np.zeros((0, 2)), spec128())
