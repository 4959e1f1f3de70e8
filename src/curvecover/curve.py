"""Closed polyline curves with arc-length parameterization.

A curve is a closed polyline in R^d, parameterized by a normalized
parameter t in [0, 1): the point at parameter t lies at perimeter
distance t*L from vertex 0, where L is the total length.  All query
functions accept scalar or array parameters and are pure.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurve, DimensionMismatch, OutOfRange

# Consecutive vertices closer than this are merged during construction.
MERGE_TOL = 1e-12


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
    """

    vertices: np.ndarray
    cum_lengths: np.ndarray
    length: float
    # Unit tangent of each edge and normalized vertex parameters,
    # precomputed for point queries.
    _tangents: np.ndarray = field(repr=False, default=None)
    _params: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def params(self) -> np.ndarray:
        """Normalized parameter of each vertex, plus the closing 1.0."""
        return self._params

    @property
    def is_unit_length(self) -> bool:
        return abs(self.length - 1.0) <= 1e-9


def _merge_duplicates(pts: np.ndarray) -> np.ndarray:
    """Drop each vertex closer than MERGE_TOL to the last vertex kept.

    The comparison is sequential: after a vertex is dropped, the next one
    is compared with the last vertex kept, not with its predecessor.  A
    vertex whose predecessor was kept is decided by its edge length, so
    batched edge lengths decide every vertex except those after a short
    edge, and only those are walked in Python.  Short edges are found
    with a relative margin and each walked vertex is decided by the same
    scalar norm throughout, so the result does not depend on how the
    batched sum rounds.
    """
    edges = np.diff(pts, axis=0)
    near = np.einsum("ij,ij->i", edges, edges) < (MERGE_TOL * (1.0 + 1e-9)) ** 2
    keep = np.ones(len(pts), dtype=bool)
    walked = 0  # vertices up to here are decided
    for i in (np.flatnonzero(near) + 1).tolist():
        if i <= walked:
            continue
        last = i - 1
        while i < len(pts) and np.linalg.norm(pts[i] - pts[last]) < MERGE_TOL:
            keep[i] = False
            i += 1
        walked = i
    # drop a repeated first vertex at the end (explicitly closed input)
    last = int(np.flatnonzero(keep)[-1])
    if last > 0 and np.linalg.norm(pts[last] - pts[0]) < MERGE_TOL:
        keep[last] = False
    return pts if keep.all() else pts[keep]


def _assemble(arr: np.ndarray, normalize: bool) -> ClosedCurve:
    """Curve on the merged, validated vertex array ``arr`` (kept, not copied)."""
    edges = np.roll(arr, -1, axis=0) - arr
    seg = np.linalg.norm(edges, axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        raise DegenerateCurve("zero total length")
    if normalize:
        arr = arr / total
        edges = edges / total
        seg = seg / total
        total = float(seg.sum())

    cum = np.concatenate(([0.0], np.cumsum(seg)))
    tangents = edges / seg[:, None]
    params = cum / total
    return ClosedCurve(arr, cum, total, tangents, params)


def build_curve(vertices, normalize: bool = False) -> ClosedCurve:
    """Build a closed curve from an (n, d) array-like of vertices.

    The closing edge is implicit; a repeated first vertex at the end is
    dropped, as are exact or near (< 1e-12) duplicate consecutive
    vertices.  With ``normalize`` the coordinates are scaled by 1/L so
    the result has unit length.  The input is copied.

    Raises
    ------
    DimensionMismatch
        If the input is not an (n, d) array (ragged rows included) or
        d < 2.
    DegenerateCurve
        If there are no vertices, a coordinate is NaN or infinite, fewer
        than 3 distinct vertices remain, or L == 0.
    """
    try:
        arr = np.array(vertices, dtype=float, order="C")
    except ValueError:
        if len({np.shape(p) for p in vertices}) > 1:
            raise DimensionMismatch(
                "all vertices must have the same dimension") from None
        raise
    if arr.ndim >= 1 and arr.shape[0] == 0:
        raise DegenerateCurve("no vertices")
    if arr.ndim != 2:
        raise DimensionMismatch(
            f"vertices must form an (n, d) array, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateCurve("non-finite coordinates")
    arr = _merge_duplicates(arr)
    if arr.shape[0] < 3:
        raise DegenerateCurve("need at least 3 distinct vertices")
    return _assemble(arr, normalize)


@dataclass(frozen=True)
class Arc:
    """Connected sub-piece of a curve: start parameter plus a length fraction."""

    t_start: float
    length_frac: float

    def __post_init__(self):
        if not (0.0 <= self.t_start < 1.0):
            raise OutOfRange(f"t_start must lie in [0, 1), got {self.t_start}")
        if not (0.0 < self.length_frac <= 1.0):
            raise OutOfRange(f"length_frac must lie in (0, 1], got {self.length_frac}")


def point_at(curve: ClosedCurve, t):
    """Point at normalized parameter t (scalar or array), 1-periodic."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tt = np.mod(t, 1.0)
    target = tt * curve.length
    idx = np.searchsorted(curve.cum_lengths, target, side="right") - 1
    idx = np.clip(idx, 0, curve.n - 1)
    local = target - curve.cum_lengths[idx]
    pts = curve.vertices[idx] + local[..., None] * curve._tangents[idx]
    return pts[()] if not scalar else pts.reshape(curve.dim)


def chord_length(curve: ClosedCurve, t, s):
    """Euclidean distance between the points at parameters t and t+s."""
    a = point_at(curve, t)
    b = point_at(curve, np.asarray(t, dtype=float) + s)
    return np.linalg.norm(b - a, axis=-1)


def cover_piece_length(curve: ClosedCurve, arc: Arc) -> float:
    """Length of the closed curve formed by an arc plus its endpoint chord.

    A full arc (length_frac == 1) closes on itself and contributes no
    chord.
    """
    arc_len = arc.length_frac * curve.length
    if arc.length_frac >= 1.0:
        return arc_len
    return arc_len + float(chord_length(curve, arc.t_start, arc.length_frac))
