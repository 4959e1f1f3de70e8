"""Closed polyline curves with arc-length parameterization.

A curve is a closed polyline in R^d, parameterized by a normalized
parameter t in [0, 1): the point at parameter t lies at perimeter
distance t*L from vertex 0, where L is the total length.  All query
functions accept scalar or array parameters and are pure.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateCurve, DimensionMismatch

# A length within this of 1 is unit length: build_curve leaves it as built.
UNIT_LENGTH_TOL = 1e-9
_ROWS = 2**14  # rows that build_curve measures, or save_curve formats, at once


@dataclass(frozen=True, eq=False)
class ClosedCurve:
    """Immutable closed polyline.

    Attributes
    ----------
    vertices : (n, d) float array
        Vertex coordinates in traversal order; the closing edge from
        vertex n-1 back to vertex 0 is implicit.
    cum_lengths : (n+1,) float array
        Perimeter distance from vertex 0 to each vertex, ending with
        the total length L.
    length : float
        Total length L > 0.
    input_length : float
        L before any scaling to unit length; ``length`` if not rescaled.
    """

    vertices: np.ndarray
    cum_lengths: np.ndarray
    length: float
    input_length: float
    # Unit tangent of each edge, precomputed for point queries.
    _tangents: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def params(self) -> np.ndarray:
        """Normalized parameter of each vertex, plus the closing 1.0."""
        return self.cum_lengths / self.length

    @property
    def is_unit_length(self) -> bool:
        return abs(self.length - 1.0) <= UNIT_LENGTH_TOL

    @cached_property
    def _rmax(self) -> float:
        """R, the largest vertex norm over L, found on first use (chords._verdict)."""
        v = self.vertices / self.length
        return math.sqrt(np.einsum("ij,ij->i", v, v).max())


def _edges(unit: np.ndarray) -> np.ndarray:
    """Turn the rows of ``unit`` into its edges in place, the closing edge last,
    and return their lengths, ``_ROWS`` at a time: np.linalg.norm's temporaries
    are four times its result."""
    seg, first = np.empty(len(unit)), unit[:1].copy()
    for lo in range(0, len(unit), _ROWS):  # row lo + _ROWS is still a vertex
        rows = unit[lo:lo + _ROWS]
        ends = np.concatenate((unit[lo + 1:lo + _ROWS + 1], first))[:len(rows)]
        np.subtract(ends, rows, out=rows)
        seg[lo:lo + _ROWS] = np.linalg.norm(rows, axis=1)
    return seg


def _coordinate(x) -> float:
    """An element of an object array as a float: DegenerateCurve unless it is
    a number, not a bool or complex, that float() takes.  Not ``errors._number``:
    a coordinate alone may be a Decimal, and a non-finite one is left to
    build_curve's own check on the whole array."""
    if isinstance(x, numbers.Number) and not isinstance(x, (bool, complex, np.complexfloating)):
        try:
            return float(x)
        except (OverflowError, ValueError):  # beyond 1.8e308, Decimal("sNaN")
            pass
    raise DegenerateCurve(f"coordinates must be real numbers that fit a float, got {x!r}")


def build_curve(vertices, normalize: bool = False) -> ClosedCurve:
    """Build a closed curve from an (n, d) array-like of vertices.

    The closing edge is implicit.  A vertex equal to the one before it, their
    edge measuring 0 over the power of two above the largest coordinate (below
    about 1e-162 of it), is dropped, as is a last run equal to vertex 0: each
    run of equal vertices keeps its first.  With ``normalize`` the result
    has unit length: the coordinates are scaled by 1/L unless L is within
    UNIT_LENGTH_TOL of 1, and then the curve comes back exactly as built.
    ``input_length`` is L before any scaling.  The input is copied, unless it
    is an ``_Owned`` view, which ``load_curve`` and ``generate`` hand over.

    Raises
    ------
    DimensionMismatch
        If the input is not an (n, d) array (ragged rows included) or
        d < 2.
    DegenerateCurve
        If there are no vertices, a coordinate is not a real number that
        fits a float (a bool, str, bytes or complex one) or is not finite,
        fewer than 3 distinct vertices remain, or L overflows to inf.
    """
    if type(vertices) is _Owned:
        return _build(vertices.view(np.ndarray), normalize)
    try:
        arr = np.array(vertices)
    except ValueError:  # numpy refuses ragged rows
        raise DimensionMismatch("all vertices must have the same dimension") from None
    if arr.ndim >= 1 and arr.shape[0] == 0:
        raise DegenerateCurve("no vertices")
    if arr.ndim != 2:
        raise DimensionMismatch(
            f"vertices must form an (n, d) array, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {arr.shape[1]}")
    if arr.dtype.kind == "O":  # such as Decimal, Fraction or an int beyond int64
        arr = np.array([_coordinate(x) for x in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind not in "iuf":
        raise DegenerateCurve(f"coordinates must be real numbers, got dtype {arr.dtype}")
    elif not isinstance(vertices, np.ndarray):  # np.array reads a bool among numbers as one
        items = np.array(vertices, dtype=object).ravel()
        if not {bool, np.bool_}.isdisjoint(map(type, items)):
            _coordinate(next(x for x in items if isinstance(x, (bool, np.bool_))))  # refuses it
    return _build(np.asarray(arr, dtype=float, order="C"), normalize)


class _Owned(np.ndarray):
    """A C (n >= 1, d >= 2) float64 array that build_curve may build in place."""


def _build(arr: np.ndarray, normalize: bool) -> ClosedCurve:
    """build_curve on an array it owns: edges, tangents and cum_lengths in place."""
    if not np.all(np.isfinite(arr)):
        raise DegenerateCurve("non-finite coordinates")
    # Edges are measured on the vertices over 2^e > max |coordinate|: exact
    # away from subnormals, and no square of an edge over- or underflows
    # unless the edge is below about 1e-154 times that coordinate.  An edge
    # whose square underflows, below about 2^-537 times 2^e, measures 0 and its
    # end vertex goes as an equal; one up to 2^-511 keeps a tangent off by up to
    # 2.7 %: a position error below 1e-162 of that coordinate, far below u L.
    e = math.frexp(max(arr.max(), -arr.min()))[1]
    edges = np.ldexp(arr, -e)  # the vertices over 2^e, until _edges
    seg = _edges(edges)
    while not seg.all():  # kept rows measured again can still meet below 2^-537
        keep = np.append(True, seg[:-1] > 0.0)  # the end vertex of an edge of 0 goes
        keep[np.flatnonzero(keep)[-1]] = seg[-1] > 0.0  # and the last kept, if the closing edge is 0
        arr = arr[keep]  # measure the kept rows again, over the same 2^e
        edges = np.ldexp(arr, -e)
        seg = _edges(edges)
    if arr.shape[0] < 3:
        raise DegenerateCurve("need at least 3 distinct vertices")
    total = float(seg.sum())  # > 0: every edge measures > 0
    if math.frexp(total)[1] + e > 1024:  # total * 2^e, the length, overflows
        raise DegenerateCurve("total length is not finite (inf)")
    input_length = math.ldexp(total, e)
    if normalize and abs(input_length - 1.0) > UNIT_LENGTH_TOL:
        arr /= input_length
        edges /= total
        seg /= total
        total, e = float(seg.sum()), 0

    cum = np.zeros(len(seg) + 1)
    np.ldexp(np.cumsum(seg, out=cum[1:]), e, out=cum[1:])
    edges /= seg[:, None]  # the unit tangents
    return ClosedCurve(arr, cum, math.ldexp(total, e), input_length, edges)


def point_at(curve: ClosedCurve, t):
    """Point at normalized parameter t (scalar or array), 1-periodic."""
    tt = np.mod(np.asarray(t, dtype=float), 1.0)
    target = tt * curve.length
    idx = np.searchsorted(curve.cum_lengths, target, side="right") - 1
    idx = np.clip(idx, 0, curve.n - 1)
    local = target - curve.cum_lengths[idx]
    return curve.vertices[idx] + local[..., None] * curve._tangents[idx]


def chord_length(curve: ClosedCurve, t, s):
    """Euclidean distance between the points at parameters t and t+s."""
    a = point_at(curve, t)
    b = point_at(curve, np.asarray(t, dtype=float) + s)
    return np.linalg.norm(b - a, axis=-1)
