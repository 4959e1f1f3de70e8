"""Curve file I/O.

JSON format: {"dim": d, "length_normalized": bool, "vertices": [[...], ...]}
with vertices in traversal order, the closing edge implicit and every
coordinate a JSON number; any JSON layout is read.
CSV alternative: an optional "# dim=d" header line, then one comma-separated
vertex per line, each field a JSON number.
"""

import json
import re
from pathlib import Path

import numpy as np

from .curve import ClosedCurve, build_curve
from .errors import FileError

_WS = re.compile(r"[ \t\n\r]*")
# A two-level array ends at its first "]]", so finding it needs no parse.
_ROWS_END = re.compile(r"\][ \t\n\r]*\]")
# The characters of JSON numbers, NaN and Infinity: with them deleted, the
# vertex array must leave exactly its brackets and commas.
_NUMBER_CHARS = b"0123456789+-.eEINafinty"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# A JSON number: [0-9], not the Unicode digits of \d, no "+", "_" or padding.
# A CSV vertex row is JSON numbers, each padded by spaces or tabs, separated
# by commas; a "# dim=" value is a padded JSON integer.
_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_NUMBER = re.compile(_JSON_INT + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_CSV_FIELD = rf"[ \t]*{_JSON_NUMBER.pattern}[ \t]*"
_CSV_ROW = re.compile(rf"{_CSV_FIELD}(?:,{_CSV_FIELD})*")
_CSV_DIM = re.compile(rf"[ \t]*{_JSON_INT}[ \t]*")
_decode = json.JSONDecoder().raw_decode


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise FileError(f"cannot write {path}: {e.strerror}") from e


def save_curve(curve: ClosedCurve, path) -> None:
    """Write a curve file: CSV if the suffix is .csv (any case), else JSON."""
    if Path(path).suffix.lower() == ".csv":
        lines = [f"# dim={curve.dim}"]
        lines += [",".join(repr(float(x)) for x in v) for v in curve.vertices]
        _write_text(path, "\n".join(lines) + "\n")
    else:
        doc = {
            "dim": curve.dim,
            "length_normalized": curve.is_unit_length,
            "vertices": curve.vertices.tolist(),
        }
        _write_text(path, json.dumps(doc) + "\n")


def _vertex_span(text: str):
    """Start and end of the top-level "vertices" array of a JSON object.

    Every other member value is skipped with the json decoder, and the
    last "vertices" member wins, as in ``json.loads``.  Returns None when
    that member is missing or is not an array followed by a "]]"; a span
    that is not an array of rows fails ``_vertex_rows``.  Malformed JSON
    outside the array is left to the caller's ``json.loads`` of the rest.
    """
    span, i = None, _WS.match(text).end()
    if not text.startswith("{", i):
        return None
    while True:
        i = _WS.match(text, i + 1).end()  # past "{" or ","
        if not text.startswith('"', i):
            return span
        key, i = _decode(text, i)
        i = _WS.match(text, i).end()
        if not text.startswith(":", i):
            return span
        i = _WS.match(text, i + 1).end()
        end = None
        if key == "vertices":
            end = text.startswith("[", i) and _ROWS_END.search(text, i)
            span = (i, end.end()) if end else None
        i = _WS.match(text, end.end() if end else _decode(text, i)[1]).end()
        if not text.startswith(",", i):
            return span


def _vertex_rows(block: bytes, dim) -> np.ndarray:
    """Parse a JSON array of rows of ``dim`` numbers into an (n, dim) array.

    The brackets and commas are checked over the bytes; the coordinates
    are read by one ``json.loads`` of the flat array, so each is the float
    ``json.loads`` gives for it in the nested array.
    """
    compact = block.translate(None, b" \t\n\r")
    delims = compact.translate(None, _NUMBER_CHARS)
    if delims.translate(None, b"[],"):
        raise ValueError("vertex coordinates must be JSON numbers")
    _check_dim(dim, delims.count(b",", 0, delims.find(b"]")) + 1)
    row = b"[" + b"," * (dim - 1) + b"]"
    n = (len(delims) - 1) // (len(row) + 1)
    if (delims != b"[" + (row + b",") * (n - 1) + row + b"]"
            or not compact.startswith(b"[[") or compact.count(b"],[") != n - 1):
        raise ValueError(f"'vertices' is not an array of rows of {dim} numbers")
    del compact, delims  # about 11 MB on a 262,144-vertex file
    # With the brackets turned into spaces, a number split by whitespace
    # or a missing entry still fails the parse.
    values = json.loads(
        (b"[" + block[1:-1].translate(_BRACKETS_TO_SPACES) + b"]").decode())
    return np.array(values, dtype=float).reshape(n, dim)


def _json_vertices(text: str) -> np.ndarray:
    span = _vertex_span(text)
    if span is None:
        json.loads(text)  # malformed JSON is reported first
        raise ValueError("no top-level 'vertices' array of vertex rows")
    a, b = span
    # Both parses see shifted text; their errors get the file's positions.
    try:
        doc = json.loads(text[:a] + "[]" + text[b:])
    except json.JSONDecodeError as e:
        raise json.JSONDecodeError(e.msg, text, e.pos + (b - a - 2) * (e.pos > a))
    try:
        return _vertex_rows(text[a:b].encode(), doc["dim"])
    except json.JSONDecodeError as e:
        raise json.JSONDecodeError(e.msg, text, a + e.pos)


def _csv_vertices(text: str) -> np.ndarray:
    rows, dim = [], None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "dim":
                if not _CSV_DIM.fullmatch(value):
                    raise ValueError(f"'dim' must be an integer >= 2, got {value.strip()!r}")
                dim = int(value)
        elif line:
            if not _CSV_ROW.fullmatch(line):
                raise ValueError(f"CSV vertex fields must be JSON numbers, got {line!r}")
            rows.append([float(x) for x in line.split(",")])
    verts = np.asarray(rows)
    if dim is not None and verts.ndim == 2:
        _check_dim(dim, verts.shape[1])
    return verts


def _check_dim(dim, columns: int) -> None:
    if type(dim) is not int or dim < 2:
        raise ValueError(f"'dim' must be an integer >= 2, got {dim!r}")
    if columns != dim:
        raise ValueError(f"vertex rows have {columns} entries but 'dim' is {dim}")


def load_curve(path, normalize: bool = False) -> ClosedCurve:
    path = Path(path)
    try:
        text = path.read_bytes()
    except OSError as e:
        raise FileError(f"cannot read {path}: {e}") from e
    try:
        # rebinding frees the bytes; a UnicodeDecodeError is a ValueError
        text = text.decode()
        if text.lstrip().startswith("{"):
            verts = _json_vertices(text)
        else:
            verts = _csv_vertices(text)
        return build_curve(verts, normalize=normalize)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise FileError(f"cannot parse curve file {path}: {e}") from e
