import numpy as np
import pytest

from gridcast.grid import CellIndex, GridSpec, cell_to_world, connect_cells
from gridcast.render import (
    field_to_csv,
    field_to_pgm,
    occupancy_frames,
    read_field_csv,
    trajectory_overlay,
    write_netpbm,
)


def test_pgm_header_and_payload(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_netpbm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert blob[len(b"P5\n4 3\n255\n"):] == img.tobytes()


def test_ppm_header(tmp_path):
    img = np.zeros((2, 5, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_netpbm(path, img)
    assert path.read_bytes().startswith(b"P6\n5 2\n255\n")


def test_field_pgm_scaling(tmp_path):
    field = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "f.pgm"
    field_to_pgm(path, field)
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert payload[0] == 0 and payload[-1] == 255


def test_constant_field_pgm(tmp_path):
    path = tmp_path / "c.pgm"
    field_to_pgm(path, np.full((2, 2), 3.5))
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert set(payload) == {0}


@pytest.mark.parametrize("field", [np.full((4, 4), 3.5), np.where(np.eye(4) > 0, -0.0, 0.0),
                                   np.eye(4) * 5e-324, 7.0 + np.eye(4) * np.spacing(7.0)])
def test_one_min_max_rule_for_pgm_and_overlay_background(tmp_path, field):
    # a flat field is all 0; any other, however narrow its range, spans 0..top
    spec = GridSpec(rows=4, cols=4, resolution=1.0, anchor=CellIndex(0, 0))
    path = tmp_path / "f.pgm"
    field_to_pgm(path, field)
    gray = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    overlay = trajectory_overlay(spec, np.zeros((0, 2)), [], background=field)
    flat = field.max() == field.min()
    assert set(gray) == ({0} if flat else {0, 255})
    assert set(overlay.ravel()) == ({0} if flat else {0, 180})
    assert np.array_equal(gray.reshape(4, 4) == 0, overlay[..., 0] == 0)


def test_netpbm_rejects_an_image_of_another_shape(tmp_path):
    for shape in ((3,), (2, 2, 4), (2, 2, 3, 1)):
        with pytest.raises(ValueError, match="netpbm"):
            write_netpbm(tmp_path / "x.pgm", np.zeros(shape, dtype=np.uint8))


def test_field_csv_roundtrip_exact(tmp_path):
    rs = np.random.RandomState(0)
    field = rs.uniform(-1e3, 1e3, size=(5, 7))
    path = tmp_path / "f.csv"
    field_to_csv(path, field)
    np.testing.assert_array_equal(read_field_csv(path), field)


def test_occupancy_frames_count(tmp_path):
    ogm = np.random.RandomState(1).uniform(size=(4, 4, 6))
    paths = occupancy_frames(tmp_path, ogm)
    assert len(paths) == 6
    assert all(p.exists() for p in paths)


def test_overlay_draws_polylines():
    spec = GridSpec(rows=32, cols=32, resolution=1.0, anchor=CellIndex(8, 16))
    gt = np.column_stack([np.arange(1.0, 11.0), np.zeros(10)])
    modes = [np.column_stack([np.arange(1.0, 11.0), np.arange(1.0, 11.0) * s]) for s in (-0.5, 0.5)]
    img = trajectory_overlay(spec, gt, modes)
    assert img.shape == (32, 32, 3)
    # GT drawn in magenta along the +x row axis
    assert tuple(img[12, 16]) == (255, 0, 255)
    # both modes present with distinct colors
    colors = {tuple(c) for c in img.reshape(-1, 3)}
    assert len(colors) >= 4  # background + gt + 2 modes


def test_overlay_joins_cells_by_the_path_repair_line():
    # a segment neither straight nor diagonal: from cell (0, 0) to (3, 1) the
    # 8-connected line steps diagonally first, through (1, 1), not (1, 0)
    spec = GridSpec(rows=6, cols=6, resolution=1.0, anchor=CellIndex(0, 0))
    ends = [CellIndex(0, 0), CellIndex(3, 1)]
    img = trajectory_overlay(spec, cell_to_world(np.array([[0, 0], [3, 1]]), spec), [])
    drawn = {CellIndex(int(r), int(c)) for r, c in zip(*np.nonzero(img[..., 0]))}
    assert drawn == set(connect_cells(ends)) == {CellIndex(0, 0), CellIndex(1, 1),
                                                 CellIndex(2, 1), CellIndex(3, 1)}
