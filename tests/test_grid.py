import numpy as np
import pytest

from gridcast.grid import (
    ACTIONS,
    N_ACTIONS,
    STAY,
    CellIndex,
    GridSpec,
    cell_to_world,
    neighbourhood,
    padded_map,
    cells_adjacent,
    quantize_trajectory,
    reachable_box,
    round_half_away,
    step,
    successor_offsets,
    successors,
    window,
    world_to_cell,
)


def on_grid_moves(spec):
    """Boolean (rows, cols, 9): True where the move stays on the grid."""
    padded = padded_map(spec, False)
    padded[1:-1, 1:-1] = True
    return neighbourhood(padded, spec).transpose(2, 3, 0, 1).reshape(spec.rows, spec.cols,
                                                                    N_ACTIONS)


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
    assert np.array_equal(cell_to_world(np.array([64, 64]), spec), [0.0, 0.0])
    assert np.array_equal(cell_to_world(np.array([65, 64]), spec), [1.0, 0.0])
    spec_half = GridSpec(rows=128, cols=128, resolution=0.5, anchor=CellIndex(64, 64))
    assert np.array_equal(cell_to_world(np.array([64, 63]), spec_half), [0.0, -0.5])
    assert np.array_equal(cell_to_world(np.array([[[64, 64], [65, 64]]]), spec),
                          [[[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError):
        cell_to_world(np.array([-1, 0]), spec)
    with pytest.raises(ValueError):
        cell_to_world(np.array([[64, 64], [0, 128]]), spec)
    with pytest.raises(ValueError):
        cell_to_world(np.array([64.0, 64.0]), spec)
    # no cells: an empty float array, as before
    empty = cell_to_world(np.zeros((0, 2), dtype=np.int64), spec)
    assert empty.shape == (0, 2) and empty.dtype == np.float64
    # unsigned cells, also left of and behind the anchor
    for dtype in (np.uint8, np.uint64):
        assert np.array_equal(cell_to_world(np.array([[65, 63], [62, 64]], dtype=dtype), spec),
                              [[1.0, -1.0], [-2.0, 0.0]])
    with pytest.raises(ValueError):  # row = rows is the first row off the grid
        cell_to_world(np.array([128, 0]), spec)


def test_round_trip_all_cells():
    spec = GridSpec(rows=9, cols=7, resolution=0.4, anchor=CellIndex(4, 3))
    centres = cell_to_world(np.stack(np.indices((spec.rows, spec.cols)), axis=-1), spec)
    assert centres.shape == (spec.rows, spec.cols, 2)
    for r in range(spec.rows):
        for c in range(spec.cols):
            assert world_to_cell(centres[r, c], spec) == CellIndex(r, c)


def test_step_examples():
    spec = spec128()
    assert step(CellIndex(0, 0), ACTIONS.index((-1, 0)), spec) is None
    assert step(CellIndex(5, 5), STAY, spec) == CellIndex(5, 5)
    assert step(CellIndex(5, 5), ACTIONS.index((1, 1)), spec) == CellIndex(6, 6)


def test_step_total_over_actions():
    spec = GridSpec(rows=4, cols=4, resolution=1.0, anchor=CellIndex(0, 0))
    mask = on_grid_moves(spec)
    for r in range(4):
        for c in range(4):
            for a in range(9):
                nxt = step(CellIndex(r, c), a, spec)
                assert (nxt is not None) == mask[r, c, a]
                if nxt is not None:
                    assert spec.contains(nxt.row, nxt.col)


def test_neighbourhood_reads_each_actions_successor():
    spec = GridSpec(rows=4, cols=5, resolution=1.0, anchor=CellIndex(0, 0))
    padded = np.arange(6 * 7, dtype=float).reshape(6, 7)  # distinct values
    views = neighbourhood(padded, spec).reshape(N_ACTIONS, spec.rows, spec.cols)
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
    # the view shares memory with the padded map, so it sees writes into it,
    # and it is read-only, so nothing writes through it
    view = neighbourhood(padded, spec)
    padded[1:-1, 1:-1] = -1.0
    assert np.all(view[1, 1] == -1.0)
    with pytest.raises(ValueError, match="read-only"):
        view[1, 1, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        np.exp(view, out=view)
    with pytest.raises(ValueError):
        neighbourhood(np.zeros((4, 5)), spec)
    with pytest.raises(ValueError):
        neighbourhood(np.zeros((6, 8)), spec)
    with pytest.raises(ValueError):  # a non-contiguous map exposes no single buffer
        neighbourhood(np.zeros((6, 14))[:, ::2], spec)


def test_successors_are_the_neighbourhood_bitwise():
    # the flat gather reads what the 4-D index of the strided view reads, at
    # every cell of the grid (its border cells included, whose off-grid moves
    # read the border value) and at sampled cells in any order
    rs = np.random.RandomState(7)
    for rows, cols in ((3, 3), (4, 5), (9, 7), (65, 65)):
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=CellIndex(0, 0))
        padded = padded_map(spec, -7.5)
        padded[1:-1, 1:-1] = rs.uniform(size=(rows, cols))
        offsets = successor_offsets(spec)
        assert offsets.shape == (N_ACTIONS,) and not offsets.flags.writeable
        hood = neighbourhood(padded, spec)
        r, c = np.mgrid[0:rows, 0:cols]
        got = successors(padded, spec, r, c)
        assert got.shape == (N_ACTIONS, rows, cols)
        assert got.tobytes() == hood.reshape(N_ACTIONS, rows, cols).tobytes()
        assert np.all(got[~on_grid_moves(spec).transpose(2, 0, 1)] == -7.5)
        r, c = rs.randint(0, rows, 50), rs.randint(0, cols, 50)
        got = successors(padded, spec, r, c)
        assert got.tobytes() == hood[:, :, r, c].reshape(N_ACTIONS, 50).tobytes()
    with pytest.raises(ValueError):
        successors(np.zeros((6, 8)), GridSpec(4, 5, 1.0, CellIndex(0, 0)), r, c)


def test_window_holds_the_cells_reachable_in_radius_moves_and_their_views():
    rs = np.random.RandomState(4)
    for _ in range(30):
        rows, cols = rs.randint(3, 15), rs.randint(3, 15)
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0,
                        anchor=CellIndex(rs.randint(rows), rs.randint(cols)))
        padded = rs.uniform(size=(rows + 2, cols + 2))
        reached = np.zeros((rows, cols), dtype=bool)
        reached[spec.anchor.row, spec.anchor.col] = True
        for radius in range(max(rows, cols) + 1):
            win = window(spec, radius)
            inside = np.zeros((rows, cols), dtype=bool)
            inside[win] = True
            assert np.array_equal(inside, reached)
            # the window's cut of the neighbourhood reads each move's slice
            r, c = win
            views = neighbourhood(padded, spec)[:, :, r, c].reshape(N_ACTIONS, -1)
            for view, (dr, dc) in zip(views, ACTIONS):
                assert np.array_equal(view, padded[1 + dr + r.start: 1 + dr + r.stop,
                                                   1 + dc + c.start: 1 + dc + c.stop].ravel())
            reached = neighbourhood(np.pad(reached, 1), spec).any(axis=(0, 1))


def test_padded_map_shape_and_border():
    spec = GridSpec(rows=4, cols=5, resolution=1.0, anchor=CellIndex(0, 0))
    padded = padded_map(spec, -np.inf)
    assert padded.shape == (6, 7) and np.all(padded == -np.inf)
    assert padded_map(spec, False).dtype == bool


def test_reachable_box_clips_at_every_side():
    spec = GridSpec(rows=20, cols=30, resolution=0.5, anchor=CellIndex(2, 27))
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
    spec = GridSpec(rows=9, cols=12, resolution=2.0, anchor=CellIndex(3, 7))
    for horizon in (12, 13, 100):
        box, window = reachable_box(spec, horizon)
        assert box == spec
        assert window == (slice(0, 9), slice(0, 12))


def test_reachable_box_keeps_world_frame_and_window_shape():
    rs = np.random.RandomState(3)
    for _ in range(50):
        rows, cols = rs.randint(3, 40), rs.randint(3, 40)
        spec = GridSpec(rows=rows, cols=cols, resolution=float(rs.uniform(0.5, 2.0)),
                        anchor=CellIndex(rs.randint(rows), rs.randint(cols)))
        box, window = reachable_box(spec, int(rs.randint(1, 25)))
        assert np.zeros((rows, cols))[window].shape == (box.rows, box.cols)
        # the grid and its box both put the anchor cell's centre at the origin
        for grid in (spec, box):
            anchor = np.array([grid.anchor.row, grid.anchor.col])
            assert np.array_equal(cell_to_world(anchor, grid), [0.0, 0.0])
            assert world_to_cell((0.0, 0.0), grid) == grid.anchor
        # every box cell is the full-grid cell the window maps it to
        cells = np.stack(np.indices((box.rows, box.cols)), axis=-1)
        offset = np.array([window[0].start, window[1].start])
        assert np.array_equal(cell_to_world(cells, box), cell_to_world(cells + offset, spec))


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
