"""Curve file I/O.

JSON format: {"dim": d, "length_normalized": bool, "vertices": [[...], ...]}
with vertices in traversal order, the closing edge implicit and every
coordinate a JSON number; any JSON layout is read.
CSV alternative: an optional "# dim=d" header line, then one comma-separated
vertex per line, each field a JSON number.
"""

import json
import re
from itertools import chain
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
# A JSON number: [0-9], not the Unicode digits of \d, no "+", "_" or padding.
# A CSV vertex row is JSON numbers, each padded by spaces or tabs, separated
# by commas; a "# dim=" value is a padded JSON integer.
_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_NUMBER = re.compile(_JSON_INT + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_CSV_FIELD = rf"[ \t]*{_JSON_NUMBER.pattern}[ \t]*"
_CSV_ROW = re.compile(rf"{_CSV_FIELD}(?:,{_CSV_FIELD})*")
_CSV_DIM = re.compile(rf"[ \t]*{_JSON_INT}[ \t]*")
_decode = json.JSONDecoder().raw_decode
_ROWS = 2**14  # vertex rows formatted at once when a curve is saved
_CHUNK = 2**20  # characters of a vertex array compacted, or parsed, at once


def _write_text(path, chunks) -> None:
    try:
        with open(path, "w") as f:
            for chunk in chunks:
                f.write(chunk)
    except OSError as e:
        raise FileError(f"cannot write {path}: {e.strerror}") from e


def save_curve(curve: ClosedCurve, path) -> None:
    """Write a curve file: CSV if the suffix is .csv (any case), else JSON.

    ``_ROWS`` vertices are formatted at a time, each coordinate as its repr,
    as ``json.dumps`` writes a float: the JSON is ``json.dumps`` of the document.
    """
    fields = ["%r"] * curve.dim
    if Path(path).suffix.lower() == ".csv":
        head, row, sep, tail = f"# dim={curve.dim}\n", ",".join(fields) + "\n", "", ""
    else:
        head = json.dumps({"dim": curve.dim, "length_normalized": curve.is_unit_length,
                           "vertices": []})[:-2]
        row, sep, tail = "[" + ", ".join(fields) + "]", ", ", "]}\n"
    rows = (curve.vertices[i:i + _ROWS] for i in range(0, curve.n, _ROWS))
    body = (sep * (i > 0) + sep.join([row] * len(v)) % tuple(v.ravel().tolist())
            for i, v in enumerate(rows))
    _write_text(path, chain([head], body, [tail]))


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


def _vertex_rows(text: str, a: int, b: int, dim) -> np.ndarray:
    """Parse the JSON array of rows of ``dim`` numbers at text[a:b] into an
    (n, dim) array.  Its brackets and commas are checked whole, then its
    coordinates are read by ``json.loads`` of the flat array, ``_CHUNK``
    characters of whole rows at a time: each is the float ``json.loads``
    gives for it in the nested array.
    """
    delims, joins, tail = bytearray(), 0, b""  # "],[" in the array without whitespace
    for i in range(a, b, _CHUNK):
        part = text[i:min(i + _CHUNK, b)].encode().translate(None, b" \t\n\r")
        delims += part.translate(None, _NUMBER_CHARS)
        joins += part.count(b"],[") + (tail + part[:2]).count(b"],[")
        tail = (tail + part[-2:])[-2:]
    if delims.translate(None, b"[],"):
        raise ValueError("vertex coordinates must be JSON numbers")
    _check_dim(dim, delims.count(b",", 0, delims.find(b"]")) + 1)
    row = b"[" + b"," * (dim - 1) + b"]"
    n = (len(delims) - 1) // (len(row) + 1)
    if (delims != b"[" + (row + b",") * (n - 1) + row + b"]"
            or not text.startswith("[", _WS.match(text, a + 1).end()) or joins != n - 1):
        raise ValueError(f"'vertices' is not an array of rows of {dim} numbers")
    # A chunk runs from a "[" to a row's "]" _CHUNK on, or the array's; with the brackets
    # turned into spaces, a number split by whitespace or a missing entry still fails.
    values, k, i = np.empty(n * dim), 0, a
    while i < b:
        end = text.find("]", min(i + _CHUNK, b - 1), b)  # a row's "]", or the array's
        try:
            chunk = json.loads("[" + text[i + 1:end].replace("[", " ").replace("]", " ") + "]")
        except json.JSONDecodeError as e:
            raise json.JSONDecodeError(e.msg, text, i + e.pos)
        values[k:k + len(chunk)] = chunk
        k, i = k + len(chunk), text.find("[", end, b) % (b + 1)  # b after the last row
    return values.reshape(n, dim)


def _json_vertices(text: str) -> np.ndarray:
    span = _vertex_span(text)
    if span is None:
        json.loads(text)  # malformed JSON is reported first
        raise ValueError("no top-level 'vertices' array of vertex rows")
    a, b = span
    # The rest is parsed with the array replaced by []: errors get the file's positions.
    try:
        doc = json.loads(text[:a] + "[]" + text[b:])
    except json.JSONDecodeError as e:
        raise json.JSONDecodeError(e.msg, text, e.pos + (b - a - 2) * (e.pos > a))
    return _vertex_rows(text, a, b, doc["dim"])


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
        del text  # the file text goes before build_curve's arrays come
        return build_curve(verts, normalize=normalize)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise FileError(f"cannot parse curve file {path}: {e}") from e
