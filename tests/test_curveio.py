import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvecover import CurveSpec, curveio, generate, load_curve, save_curve
from curvecover.curveio import _json_vertices
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


@pytest.mark.parametrize("name, head", [
    ("c.csv", "# dim=3\n"), ("c.CSV", "# dim=3\n"), ("c.json", '{"dim": 3, ')])
def test_extension_sets_format(name, head, tmp_path):
    c = generate(CurveSpec("random_closed", {"n": 8, "seed": 3}, dim=3))
    path = tmp_path / name
    save_curve(c, path)
    assert path.read_text().startswith(head)
    assert load_curve(path).vertices.tobytes() == c.vertices.tobytes()


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


def _write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, str):
        content = content.encode()
    path.write_bytes(content)
    return path


@pytest.mark.parametrize("value", ['"1"', "true", "false", "null"])
def test_non_number_coordinate_rejected(tmp_path, value):
    # np.asarray(..., dtype=float) would read "1" and true as 1.0
    path = _write(tmp_path, "c.json",
                  '{"dim": 2, "vertices": [[0,0],[1,0],[%s,1],[0,1]]}' % value)
    with pytest.raises(FileError, match="coordinates must be JSON numbers"):
        load_curve(path)


@pytest.mark.parametrize("content, message", [
    ('{"dim": 2, "vertices": [[0,0],[1,0],[%s,1],[0,1]]}' % ("9" * 400),
     "int too large"),
    (b'{"dim": 2, "note": "\xff", "vertices": [[0,0],[1,0],[0,1]]}', "utf-8"),
    (b"# dim=2\n0,0\n1,\xfe0\n0,1\n", "utf-8"),
])
def test_unparsable_number_or_bytes(tmp_path, content, message):
    path = _write(tmp_path, "curve", content)
    with pytest.raises(FileError, match=message):
        load_curve(path)


@pytest.mark.parametrize("name, content, message", [
    ("c.json", '{"dim": 2.7, "vertices": [[0,0],[1,0],[0,1]]}', "integer >= 2"),
    ("c.json", '{"dim": "2", "vertices": [[0,0],[1,0],[0,1]]}', "integer >= 2"),
    ("c.json", '{"dim": true, "vertices": [[0,0],[1,0],[0,1]]}', "integer >= 2"),
    ("c.json", '{"dim": 1, "vertices": [[0],[1],[2]]}', "integer >= 2"),
    ("c.json", '{"vertices": [[0,0],[1,0],[0,1]]}', "'dim'"),
    ("c.json", '{"dim": 2, "vertices": [[0,0],[1,0,0],[0,1]]}', "rows of 2"),
    ("c.csv", "# dim=3\n0,0\n1,0\n0,1\n", "2 entries but 'dim' is 3"),
    ("c.csv", "# dim=2.5\n0,0\n1,0\n0,1\n", "2.5"),
    ("c.csv", "# dim=1\n0\n1\n2\n", "integer >= 2"),
    ("c.csv", "# dim=0_2\n0,0\n1,0\n0,1\n", "'0_2'"),  # int() reads 2
    ("c.csv", "# dim=+2\n0,0\n1,0\n0,1\n", "'\\+2'"),
])
def test_dim_checked(tmp_path, name, content, message):
    path = _write(tmp_path, name, content)
    with pytest.raises(FileError, match=message):
        load_curve(path)


def test_csv_without_header(tmp_path):
    path = _write(tmp_path, "c.csv", "# a comment\n0,0,0\n1,0,0\n0,1,0\n")
    assert load_curve(path).dim == 3


@pytest.mark.parametrize("field", ["1_0", "infinity", "nan", "+.5", "1.", ".5",
                                   "01", "\u0661", "0x1", "1 0", ""])
def test_csv_fields_are_json_numbers(tmp_path, field):
    # float() reads all but the last three of these (1_0 as 10.0)
    path = _write(tmp_path, "c.csv", f"0,0\n1,0\n{field},1\n0,1\n")
    with pytest.raises(FileError, match="must be JSON numbers"):
        load_curve(path)


def test_csv_fields_may_be_padded(tmp_path):
    path = _write(tmp_path, "c.csv", "0 ,\t0\n 1e0,-0\n1.0E+0 , 1\n0,1.0\n")
    assert load_curve(path).vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("bad", [
    '{"dim": 2, "vertices": [[0,0],[1 0,0],[0,1]], "x": []}',
    '{"dim": 2, "vertices": [[0,0],[1,0],[0,1]], "x": [1,}',
    '{"dim": 2, "x": [1,], "vertices": [[0,0],[1,0],[0,1]]}',
])
def test_json_error_positions_are_the_files(tmp_path, bad):
    # the two parses see shifted text; errors must point into the file
    with pytest.raises(FileError) as exc:
        load_curve(_write(tmp_path, "c.json", bad))
    with pytest.raises(json.JSONDecodeError) as ref:
        json.loads(bad)
    assert str(exc.value).endswith(str(ref.value))


def _reference_vertices(text):
    """Reference: the nested lists of ``json.loads``, then ``np.asarray``."""
    doc = json.loads(text)
    verts = np.asarray(doc["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[1] != int(doc["dim"]):
        raise ValueError("vertex dimensions disagree with 'dim'")
    return verts


def _layouts(vertices, dim, normalized):
    doc = {"dim": dim, "length_normalized": normalized, "vertices": vertices}
    first = {"vertices": vertices, "dim": dim, "length_normalized": normalized}
    return {
        "default": json.dumps(doc),
        "indent": json.dumps(doc, indent=2),
        "compact": json.dumps(doc, separators=(",", ":")),
        "vertices_first": json.dumps(first),
        "extra_after": json.dumps(dict(doc, extra=[[1, 2], [3], []])),
    }


DIFF_SPECS = (
    [CurveSpec(kind, resolution=n, normalize=norm)
     # three points of the Lissajous curve coincide
     for kind, n0 in (("circle", 3), ("ellipse", 3), ("lissajous3d", 4))
     for n in (n0, 64, 4096) for norm in (False, True)]
    + [CurveSpec("circle", resolution=65536, normalize=norm)
       for norm in (False, True)]
    + [CurveSpec("random_closed", {"n": n, "seed": d}, dim=d, normalize=norm)
       for d in range(2, 7) for n, norm in ((4, False), (4096, True))])


@pytest.mark.parametrize("spec", DIFF_SPECS, ids=lambda s: (
    f"{s.kind}{s.dim or ''}-{s.params.get('n', s.resolution)}"
    f"-{'norm' if s.normalize else 'raw'}"))
def test_flat_parse_matches_nested(spec, tmp_path):
    curve = generate(spec)
    path = tmp_path / "c.json"
    save_curve(curve, path)
    texts = _layouts(curve.vertices.tolist(), curve.dim, curve.is_unit_length)
    texts["save_curve"] = path.read_text()
    for layout, text in texts.items():
        got, want = _json_vertices(text), _reference_vertices(text)
        assert got.shape == want.shape, layout
        assert got.tobytes() == want.tobytes(), layout
    assert load_curve(path).vertices.tobytes() == curve.vertices.tobytes()


# short numbers, ints, exponents and signs, so one-byte edits often stay valid
SMALL = _layouts([[0, 0, 1.5], [1.0, -2, 0.25], [3e-2, 1, -0.5], [2, 2.5, 0]],
                 3, False)


def _outcome(parse, text):
    try:
        verts = parse(text)
    except (KeyError, ValueError, TypeError):
        return None
    return verts.shape, verts.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(layout=st.sampled_from(sorted(SMALL)), data=st.data())
def test_one_byte_edit_agrees_with_nested(layout, data):
    text = SMALL[layout]
    pos = data.draw(st.integers(0, len(text) - 1))
    insert = data.draw(st.sampled_from(list("[],0123456789 ") + [None]))
    text = text[:pos] + (insert or "") + text[pos + (insert is None):]
    assume(text.lstrip().startswith("{"))
    assert _outcome(_json_vertices, text) == _outcome(_reference_vertices, text)


@pytest.mark.parametrize("vertices", [
    '[[0,0],[1,]5,[0,1]]',  # a number between rows fills an empty entry
    '[5[,0],[1,0],[0,1]]',
    '[[0,0],5[,0],[0,1]]',
    '[[0,0],[1,0],[0,]1]',
    '[[0,0],[1,0],[0,1]], "vertices": [[9,9],[8,8],[7,7]]',  # the last wins
    '[[0,0],[1,0],[0,1]], "meta": {"vertices": [[9,9],[8,8],[7,7]]}',
    r'[[0,0],[1,0],[0,1]], "a\"vertices": [[9,9],[8,8],[7,7]]',
    r'[[0,0],[1,0],[0,1]], "note": "]] \"vertices\": [[9,9]]"',
    '[[[0,0]],[1,0],[0,1]]',
    '[[0,0],[1,0],[0,1]]]',
])
def test_hand_cases_agree_with_nested(vertices):
    meta = '"meta": {"vertices": [[5,5],[6,6],[7,7]]}, '
    for text in ('{"dim": 2, "vertices": %s}' % vertices,
                 '{%s"dim": 2, "vertices": %s}' % (meta, vertices)):
        assert _outcome(_json_vertices, text) == _outcome(_reference_vertices, text)


# Small parse chunks cut the vertex array of these after nearly every row, so
# every position of a one-byte edit is at or near a chunk cut.
CHUNKED = _layouts([[0, 0, 1.5], [1.0, -2, 0.25], [3e-2, 1, -0.5], [2, 2.5, 0]] * 2, 3, False)


@pytest.mark.parametrize("chunk", [3, 24])
@pytest.mark.parametrize("layout", sorted(CHUNKED))
def test_one_byte_edit_across_chunks_agrees_with_nested(layout, chunk):
    text = CHUNKED[layout]
    a, b = curveio._vertex_span(text)
    with mock.patch.object(curveio, "_CHUNK", chunk):
        assert _json_vertices(text).tobytes() == _reference_vertices(text).tobytes()
        for pos in range(a - 1, b + 1):
            for insert in list("[],0123456789 ") + [None]:
                edited = text[:pos] + (insert or "") + text[pos + (insert is None):]
                assert (_outcome(_json_vertices, edited)
                        == _outcome(_reference_vertices, edited)), (pos, insert)


def _big_text(n):
    doc = {"dim": 2, "vertices": generate(CurveSpec("circle", resolution=n)).vertices.tolist()}
    return json.dumps(doc)


def test_json_error_in_a_later_chunk_is_the_files(tmp_path):
    # "0. 5": a number of the third chunk, and one of the first, split after
    # its "."; json.loads of the file reports the first, at that "."
    text = _big_text(65536)
    assert len(text) > 2 * curveio._CHUNK
    for dots in ([text.rindex(".")], [text.rindex("."), text.index(".")]):
        bad = text
        for pos in dots:
            bad = bad[:pos + 1] + " " + bad[pos + 2:]
        with pytest.raises(FileError) as exc:
            load_curve(_write(tmp_path, "c.json", bad))
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(bad)
        assert str(exc.value).endswith(str(ref.value))
        assert ref.value.pos == min(dots)


def test_edits_at_a_chunk_cut_agree_with_nested():
    # at the real chunk size: the first cut ends the chunk at a row's "]"
    text = _big_text(32768)
    cut = text.index("]", curveio._vertex_span(text)[0] + curveio._CHUNK)
    assert _json_vertices(text).tobytes() == _reference_vertices(text).tobytes()
    for pos, insert in [(cut, None), (cut + 1, "5"), (cut + 1, None), (cut - 1, " "),
                        (cut + 3, "]"), (cut + 3, " ")]:
        edited = text[:pos] + (insert or "") + text[pos + (insert is None):]
        assert _outcome(_json_vertices, edited) == _outcome(_reference_vertices, edited)
