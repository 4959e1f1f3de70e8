import numpy as np
import pytest

from curvecover import CurveSpec, generate, load_curve, save_curve
from curvecover.errors import DegenerateCurve, FileError


def test_json_round_trip(tmp_path):
    c = generate(CurveSpec("ellipse", {"a": 2.0, "b": 1.0}, resolution=128))
    path = tmp_path / "ellipse.json"
    save_curve(c, path)
    back = load_curve(path)
    assert np.allclose(back.vertices, c.vertices, atol=1e-15)
    assert back.length == pytest.approx(c.length, abs=1e-12)


def test_csv_round_trip(tmp_path):
    c = generate(CurveSpec("regular_polygon", {"m": 5}))
    path = tmp_path / "pent.csv"
    save_curve(c, path)
    text = path.read_text()
    assert text.startswith("# dim=2")
    back = load_curve(path)
    assert np.allclose(back.vertices, c.vertices, atol=1e-15)


def test_load_normalize(tmp_path):
    c = generate(CurveSpec("rectangle", {"aspect": 3.0}, normalize=False))
    path = tmp_path / "rect.json"
    save_curve(c, path)
    back = load_curve(path, normalize=True)
    assert back.is_unit_length


def test_missing_file(tmp_path):
    with pytest.raises(FileError):
        load_curve(tmp_path / "nope.json")


def test_garbage_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "vertices": "oops"}')
    with pytest.raises(FileError):
        load_curve(path)


def test_dim_disagreement(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text('{"dim": 3, "vertices": [[0,0],[1,0],[1,1]]}')
    with pytest.raises(FileError):
        load_curve(path)


def test_nan_vertex_rejected(tmp_path):
    # json.loads accepts the NaN literal, so the check must be in the curve
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 2, "vertices": [[0,0],[1,0],[NaN,1],[0,1]]}')
    with pytest.raises(DegenerateCurve, match="non-finite"):
        load_curve(path)
