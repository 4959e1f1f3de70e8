"""Curve file I/O.

JSON format: {"dim": d, "length_normalized": bool, "vertices": [[...], ...]}
with vertices in traversal order, the closing edge implicit and every
coordinate a JSON number; any JSON layout is read.
CSV alternative: an optional "# dim=d" header line, then one comma-separated
vertex per line, each field a JSON number.
"""

import codecs
import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .curve import _ROWS, ClosedCurve, _Owned, build_curve
from .errors import FileError

_WS = re.compile(rb"[ \t\n\r]*")
# A two-level array ends at its first "]]", so finding it needs no parse.
_ROWS_END = re.compile(rb"\][ \t\n\r]*\]")
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
_CHUNK = 2**18  # bytes of a vertex array checked, or parsed, at once


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


def _value(data: bytes, i: int, size: int = 64):
    """The JSON value at byte i and the byte past it, or (None, the file's end) if
    it is malformed: decoded from a slice (a character it cuts is left out),
    doubled until the value ends three characters before the slice does (a
    number cut short still parses) or the slice is the rest of the file."""
    text, last = codecs.utf_8_decode(data[i:i + size])[0], i + size >= len(data)
    try:
        value, end = _decode(text)
        if last or end + 3 <= len(text):
            return value, i + len(text[:end].encode())
    except json.JSONDecodeError:
        if last:  # left to json.loads of the file or its rest
            return None, len(data)
    return _value(data, i, 2 * size)


def _vertex_span(data: bytes):
    """Byte span of the top-level "vertices" array of a JSON object: data's first
    byte past JSON whitespace is "{", as ``load_curve`` routes only such data here.

    Each key is read, and every other member value skipped, with ``_value``;
    the last "vertices" member wins, as in ``json.loads``.  Returns None when
    that member is missing or is not an array followed by a "]]"; a span
    that is not an array of rows fails ``_vertex_rows``.  Malformed JSON
    outside the array is left to the caller's ``json.loads`` of the rest.
    """
    span, i = None, _WS.match(data).end()
    while True:
        i = _WS.match(data, i + 1).end()  # past "{" or ","
        if not data.startswith(b'"', i):
            return span
        key, i = _value(data, i)
        i = _WS.match(data, i).end()
        if not data.startswith(b":", i):
            return span
        i = _WS.match(data, i + 1).end()
        end = None
        if key == "vertices":
            end = data.startswith(b"[", i) and _ROWS_END.search(data, i)
            if end is None:  # an array with no "]]" after it: nor has any later member
                return None
            span = (i, end.end()) if end else None
        i = _WS.match(data, end.end() if end else _value(data, i)[1]).end()
        if not data.startswith(b",", i):
            return span


def _vertex_rows(data: bytes, a: int, b: int, dim) -> np.ndarray:
    """Parse the JSON array of rows of ``dim`` numbers at data[a:b] into an
    (n, dim) array.  Its brackets and commas are checked whole, then its
    coordinates are read by ``json.loads`` of the flat array, ``_CHUNK``
    bytes of whole rows at a time: each is the float ``json.loads`` gives
    for it in the nested array.
    """
    delims, joins, tail = bytearray(), 0, b""  # "],[" in the array without whitespace
    for i in range(a, b, _CHUNK):
        part = data[i:min(i + _CHUNK, b)].translate(None, b" \t\n\r")
        delims += part.translate(None, _NUMBER_CHARS)
        joins += part.count(b"],[") + (tail + part[:2]).count(b"],[")
        tail = (tail + part[-2:])[-2:]
    if delims.translate(None, b"[],"):
        raise ValueError("vertex coordinates must be JSON numbers")
    _check_dim(dim, delims.count(b",", 0, delims.find(b"]")) + 1)
    row = b"[" + b"," * (dim - 1) + b"]"
    n = (len(delims) - 1) // (len(row) + 1)
    if (delims != b"[" + (row + b",") * (n - 1) + row + b"]"
            or not data.startswith(b"[", _WS.match(data, a + 1).end()) or joins != n - 1):
        raise ValueError(f"'vertices' is not an array of rows of {dim} numbers")
    # A chunk runs from a "[" to a row's "]" _CHUNK on, or the array's; with the brackets
    # turned into spaces, a number split by whitespace or a missing entry still fails.
    values, k, i = np.empty(n * dim), 0, a
    while i < b:
        end = data.find(b"]", min(i + _CHUNK, b - 1), b)  # a row's "]", or the array's
        try:
            chunk = json.loads(b"[" + data[i + 1:end].replace(b"[", b" ").replace(b"]", b" ") + b"]")
        except json.JSONDecodeError as e:  # placed in the file's characters
            doc = str(memoryview(data)[:i + e.pos], "utf-8")  # e.doc is ASCII, byte for byte
            raise json.JSONDecodeError(e.msg, doc, len(doc))
        values[k:k + len(chunk)] = chunk
        k, i = k + len(chunk), data.find(b"[", end, b) % (b + 1)  # b after the last row
    return values.reshape(n, dim)


def _json_vertices(data: bytes) -> np.ndarray:
    span = _vertex_span(data)
    if span is None:
        json.loads(data.decode())  # malformed JSON is reported first
        raise ValueError("no top-level 'vertices' array of vertex rows")
    a, b = span
    # The rest is parsed with the array replaced by []: errors get the file's positions.
    head = data[:a].decode()
    try:
        doc = json.loads(head + "[]" + data[b:].decode())
    except json.JSONDecodeError as e:  # placed in the file's characters
        at = len(e.doc[:e.pos].encode()) + (b - a - 2) * (e.pos > len(head))  # its byte
        doc = str(memoryview(data)[:at], "utf-8")
        raise json.JSONDecodeError(e.msg, doc, len(doc))
    return _vertex_rows(data, a, b, doc["dim"])


def _csv_vertices(text: str) -> np.ndarray:
    if text.lstrip().startswith("{"):  # a "{" after whitespace JSON does not take
        json.loads(text)  # is malformed JSON
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
    """Read a curve file and build its curve, scaled to unit length if
    ``normalize``: JSON when "{" comes first past JSON whitespace, else CSV.

    The file's bytes, read once, are its only copy: JSON is parsed from them,
    never decoded whole, into one vertex array that ``build_curve`` takes over
    without a copy once the bytes are freed.  Raises FileError if the file
    cannot be read, is not UTF-8, is malformed JSON (placed as ``json.loads``
    places it), or has no rows of JSON numbers that fit a float or a bad
    "dim"; build_curve's DegenerateCurve and DimensionMismatch pass through.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise FileError(f"cannot read {path}: {e}") from e
    try:
        try:
            if data.startswith(b"{", _WS.match(data).end()):
                verts = _json_vertices(data).view(_Owned)
            else:
                verts = _csv_vertices(data.decode())
        except (KeyError, ValueError, TypeError, OverflowError):
            if not data.isascii():  # a file that is not UTF-8 fails as that first
                data.decode()
            raise
        del data  # the file's bytes go before the build's arrays come
        return build_curve(verts, normalize=normalize)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise FileError(f"cannot parse curve file {path}: {e}") from e
