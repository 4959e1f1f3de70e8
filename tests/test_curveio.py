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


@pytest.mark.parametrize("space", ["\x0c", "\x0b", " \x0c\n"])
def test_brace_after_non_json_whitespace_is_malformed_json(tmp_path, space):
    # str.strip takes form feed and vertical tab, JSON does not: such a file
    # goes to the CSV reader, which reports it as the malformed JSON it is
    bad = space + '{"dim": 2, "vertices": [[0,0],[1,0],[0,1]]}'
    with pytest.raises(json.JSONDecodeError) as ref:
        json.loads(bad)
    with pytest.raises(FileError) as exc:
        load_curve(_write(tmp_path, "c.json", bad))
    assert str(exc.value).endswith(": " + str(ref.value))


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
        got, want = _json_vertices(text.encode()), _reference_vertices(text)
        assert got.shape == want.shape, layout
        assert got.tobytes() == want.tobytes(), layout
    assert load_curve(path).vertices.tobytes() == curve.vertices.tobytes()


# short numbers, ints, exponents and signs, so one-byte edits often stay valid
SMALL = _layouts([[0, 0, 1.5], [1.0, -2, 0.25], [3e-2, 1, -0.5], [2, 2.5, 0]],
                 3, False)


def _outcome(parse, text):  # parse of text's UTF-8 bytes, as load_curve reads a file
    try:
        verts = parse(text.encode())
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
    a, b = curveio._vertex_span(text.encode())
    with mock.patch.object(curveio, "_CHUNK", chunk):
        assert _json_vertices(text.encode()).tobytes() == _reference_vertices(text).tobytes()
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
    cut = text.index("]", curveio._vertex_span(text.encode())[0] + curveio._CHUNK)
    assert _json_vertices(text.encode()).tobytes() == _reference_vertices(text).tobytes()
    for pos, insert in [(cut, None), (cut + 1, "5"), (cut + 1, None), (cut - 1, " "),
                        (cut + 3, "]"), (cut + 3, " ")]:
        edited = text[:pos] + (insert or "") + text[pos + (insert is None):]
        assert _outcome(_json_vertices, edited) == _outcome(_reference_vertices, edited)


# JSON whitespace, numbers at the edges of the float range, and members around
# the vertex array; the parse reads the file's bytes, so non-ASCII text before
# the array shifts every byte position away from the character position.
_WS = st.text(" \t\n\r", max_size=3)
_NUMBERS = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-320, 308)),
    st.sampled_from(["-0.0", "-0", "5e-324", "1.7976931348623157e308", "0.1E+2"]))
_MEMBERS = st.lists(st.tuples(st.text(max_size=4), st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(), max_size=3))), max_size=2)
# numbers about as long as the 64-byte slice that _value decodes first
_LONG = st.from_regex(r"-?[1-9][0-9]{54,62}(\.[0-9]{1,3})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)


@st.composite
def _vertex_files(draw):
    dim = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(_NUMBERS, min_size=dim, max_size=dim), min_size=1,
                         max_size=6))
    ws = lambda: draw(_WS)  # noqa: E731
    array = "[" + ws() + ("," + ws()).join(
        "[" + ws() + ("," + ws()).join(x + ws() for x in row) + "]" + ws()
        for row in rows) + "]"
    members = [(json.dumps(k, ensure_ascii=draw(st.booleans())),
                json.dumps(v, ensure_ascii=draw(st.booleans())))
               for k, v in draw(_MEMBERS)]
    members += [('"n"', x) for x in draw(st.lists(_LONG, max_size=1))]
    members.insert(draw(st.integers(0, len(members))), ('"dim"', str(dim)))
    if draw(st.booleans()):  # an earlier "vertices" member: the last one wins
        members.insert(0, ('"vertices"', "[[9, 9, 9], [8, 8, 8]]"))
    after = [(json.dumps(k), json.dumps(v)) for k, v in draw(_MEMBERS)]
    members += [('"vertices"', array)] + after
    return "{" + ws() + ",".join(ws() + k + ws() + ":" + ws() + v + ws()
                                 for k, v in members) + "}" + ws()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_vertex_files(), chunk=st.sampled_from([1, 2, 3, 7, 64, curveio._CHUNK]))
def test_bytes_parse_matches_json_loads(text, chunk):
    want = np.asarray(json.loads(text)["vertices"], float)
    with mock.patch.object(curveio, "_CHUNK", chunk):
        got = _json_vertices(text.encode())
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _load_error(path):
    with pytest.raises(FileError) as exc:
        load_curve(path)
    return str(exc.value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_vertex_files(), data=st.data())
def test_not_utf8_fails_as_decoding_the_file(text, data, tmp_path_factory):
    # a bad or cut character anywhere, in the vertex array, a member skipped
    # while the array is found or the rest parsed by json.loads, fails as
    # decoding the whole file does, before any JSON error
    raw = text.encode()
    pos = data.draw(st.integers(0, len(raw)))
    bad = data.draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xc3("]))
    raw = raw[:pos] + bad + raw[pos:]
    with pytest.raises(UnicodeDecodeError) as ref:
        raw.decode()
    path = _write(tmp_path_factory.mktemp("utf8"), "c.json", raw)
    assert _load_error(path).endswith(": " + str(ref.value))


@pytest.mark.parametrize("rest", [
    '"x": [1,\n], "dim": 2, "vertices": [[0,0],[1,0],[0,1]]}',  # before the array
    '"dim": 2, "vertices": [[0,0],[1,0],[0,1]], "x": tru}',  # after it
    '"dim": 2, "vertices": [[0,0],[1,0],[0,1]], "x": "\u00e9\\n" , "z": 1e5 1}',
    '"dim": 2, "vertices": [[0,0],[1,0],[0,\n 1 0]]}',  # in it
    '"dim": 2, "x": "' + "\u00e9" * 40 + '", "vertices": [[0,0],[1,0],[0,1]], "z": 1.5e',
])
def test_json_error_after_non_ascii_text_is_placed_in_characters(rest, tmp_path):
    text = '{"n\u00e4": "\u00e9\\n\u2603",\n ' + rest
    with pytest.raises(json.JSONDecodeError) as ref:
        json.loads(text)
    assert _load_error(_write(tmp_path, "c.json", text)).endswith(": " + str(ref.value))
