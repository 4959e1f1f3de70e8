"""Average chord length and minimum-chord search.

The central quantity is the mean length of the chord spanned by an arc
of length s, averaged over all starting points of a unit-length closed
curve.  One cell kernel serves every chord computation: ``_cells`` cuts
[0, 1) where t or t+s crosses a vertex, and hands every per-s reader the
chord ||a + b (t - t0)|| on each cell [t0, t1] (a formed at t0) in vertex
form.  ``average_chord`` integrates it, ``min_chord_start`` minimizes it,
``verify`` gets both from one pass, and ``best_uniform_shift`` reads it at
s = 1/k for every arc of a uniform cover.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curve import UNIT_LENGTH_TOL, ClosedCurve, chord_length
from .errors import NotNormalized, OutOfRange

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# min_chord_start: cell minima within this relative distance of the
# global minimum tie, and the smallest start among them wins.
MIN_TIE_RTOL = 1e-12
_SAMPLES = 64  # sampled quadrature: midpoints per part, parts per unit of t


@dataclass(frozen=True)
class QuadratureConfig:
    """How to evaluate the average-chord integral.

    ``exact-piecewise`` integrates the closed form on every breakpoint
    interval; ``sampled`` uses a composite midpoint rule with 64 midpoints
    on each part of at most 1/64 of an interval.
    """

    mode: str = "exact-piecewise"

    def __post_init__(self):
        if self.mode not in ("exact-piecewise", "sampled"):
            raise OutOfRange(f"unknown quadrature mode {self.mode!r}")


def _require_unit(curve: ClosedCurve):
    if not curve.is_unit_length:
        raise NotNormalized(f"curve length {curve.length} is not 1 within {UNIT_LENGTH_TOL}")


def _affine_at(curve: ClosedCurve, s: float, t0: np.ndarray, t1: np.ndarray):
    """(a, b) with r(t+s) - r(t) = a + b (t - t0) on the 1-D cells [t0, t1] of
    ``_cells``, where t and t+s each stay on one edge; a and b are (cells, d).
    a, the chord at t0, is formed from the nearest vertices: accurate as s -> 0."""
    u, vtx, tan = curve.params, curve.vertices, curve._tangents
    mids = 0.5 * (t0 + t1)
    i = np.clip(np.searchsorted(u, mids, side="right") - 1, 0, curve.n - 1)
    wrap = mids + s >= 1.0  # t + s runs past 1 on this cell, and t0 >= 1/2
    j = np.clip(np.searchsorted(u, mids + s - wrap, side="right") - 1, 0, curve.n - 1)
    ei, ej = np.take(tan, i, axis=0), np.take(tan, j, axis=0)
    # r(t0) = r_{i+1} - (u_{i+1} - t0) e_i, r(t0+s) = r_j + (t0 - wrap - u_j + s) e_j
    # (t0 - wrap is exact); where both lie on edge i, a = (s - wrap) e_i outright
    a = (np.take(vtx, j, axis=0) - np.take(vtx, i + 1, axis=0, mode="wrap")
         + (np.take(u, i + 1) - t0)[..., None] * ei
         + ((t0 - wrap - np.take(u, j)) + s)[..., None] * ej)
    same = i == j
    if same.any():
        a[same] = (s - wrap[same])[..., None] * ei[same]
    return a, ej - ei


def _cells(curve: ClosedCurve, s: float):
    """Sorted cells [t0, t1] of [0, 1), cut where t or t+s crosses a vertex,
    with r(t+s) - r(t) = a + b (t - t0) on each in the vertex form that every
    per-s reader reads as it is: (t0, t1, A, h, q2)."""
    u = curve.params[:-1]
    brk = np.unique(np.concatenate((u, np.mod(u - s, 1.0), [0.0, 1.0])))
    t0, t1 = brk[:-1], brk[1:]
    return (t0, t1) + _vertex_form(*_affine_at(curve, s, t0, t1))


def _ratio(num, den, empty=0.0):
    """num / den where den >= 2^-1020, else ``empty``: the quotients stay finite,
    and a subnormal den (|b|^2, a chord or q^2 near zero) drops a negligible term."""
    return np.divide(num, den, out=np.full_like(num, empty), where=den >= 2.0**-1020)


def _vertex_form(a, b):
    """(A, h, q2) with ||a + b t||^2 = A (t + h)^2 + q2, A = |b|^2, h = a.b/A
    (0 where b = 0) and q2 = |a - h b|^2: two nonnegative terms, so a chord
    near zero keeps its accuracy, which A t^2 + 2 (a.b) t + |a|^2 loses."""
    A = np.einsum("...d,...d->...", b, b)
    h = _ratio(np.einsum("...d,...d->...", a, b), A)
    q = a - h[..., None] * b
    return A, h, np.einsum("...d,...d->...", q, q)


def _norm_affine_integral(A, h, q2, T):
    """Vectorized integral of ||a + b t|| over [0, T] from the vertex form of ``_cells``.

    With beta = |b| = sqrt(A), the chord rho = sqrt(p^2 + q^2) has the
    component p(t) = p0 + beta t along b and q across it.  Reflected so that
    p0 + p1 >= 0, the integral is 1/2 [T (p0 (p0 + p1)/(rho0 + rho1) + rho1)
    + q^2 log1p(beta T x)/beta], x = (1 + (p0 + p1)/(rho0 + rho1))/(p0 + rho0):
    no sum cancels, and beta = 0 takes the limit T x.
    """
    beta = np.sqrt(A)
    bT = beta * T
    p0 = h * beta
    p0 = np.where(2.0 * p0 + bT < 0.0, -(p0 + bT), p0)  # reflected: p0 + p1 >= 0
    p1 = p0 + bT
    r0, r1 = np.sqrt(p0 * p0 + q2), np.sqrt(p1 * p1 + q2)
    lean = _ratio(p0 + p1, r0 + r1)
    # p0 + rho0 = q^2/(rho0 - p0) where p0 < 0
    x = _ratio(1.0 + lean, np.where(p0 >= 0.0, p0 + r0, _ratio(q2, r0 - p0)))
    z = bT * x
    return 0.5 * T * (p0 * lean + r1 + q2 * x * _ratio(np.log1p(z), z, 1.0))


def average_chord(curve: ClosedCurve, s: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Integral over t in [0,1] of the chord length spanned by an arc of length s.

    Requires a unit-length curve and s in [0, 1/2].  The value never
    exceeds sin(pi*s)/pi, with equality only in the circular limit.
    """
    _require_unit(curve)
    if not (0.0 <= s <= 0.5):
        raise OutOfRange(f"s must lie in [0, 1/2], got {s}")
    if s == 0.0:
        return 0.0
    t0, t1, *form = _cells(curve, s)
    if cfg.mode == "exact-piecewise":
        return float(np.sum(_norm_affine_integral(*form, t1 - t0)))
    # sampled: composite midpoint on the same cells, each first split into
    # equal parts of at most 1/64 with np.linspace's edges, so the rule stays
    # within 1e-6 of the closed form (coarse polygons)
    parts = np.maximum(1, np.ceil((t1 - t0) * _SAMPLES)).astype(int)
    cell = np.repeat(np.arange(len(t0)), parts)
    i = np.arange(len(cell)) - np.repeat(np.cumsum(parts) - parts, parts)
    step, start = ((t1 - t0) / parts)[cell], t0[cell]
    p0 = i * step + start
    p1 = np.where(i + 1 == parts[cell], t1[cell], (i + 1) * step + start)
    offs = (np.arange(_SAMPLES) + 0.5) / _SAMPLES
    ts = p0[:, None] + offs[None, :] * (p1 - p0)[:, None]
    vals = chord_length(curve, ts.ravel(), s).reshape(ts.shape)
    return float(np.sum(vals.sum(axis=1) * (p1 - p0) / _SAMPLES))


def golden_section(f, a, b):
    """Minimize unimodal f on each bracket [a, b]; returns (x, f(x)).

    ``a`` and ``b`` are scalars or equal-shape arrays of brackets, and f
    maps one point per bracket to its value, so one call of f per step
    serves every bracket.  All brackets shrink together until the widest
    is at most 1e-12; x is the better of the last two samples.
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(b, dtype=float) - a
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    yc, yd = f(c), f(d)
    while np.max(h, initial=0.0) > 1e-12:
        h = h * _INV_PHI
        left = yc < yd  # keep [a, d]; else keep [c, b]
        a = np.where(left, a, c)
        c, d = np.where(left, a + _INV_PHI2 * h, d), np.where(left, c, a + _INV_PHI * h)
        y = f(np.where(left, c, d))
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
    first = yc < yd
    return np.where(first, c, d)[()], np.where(first, yc, yd)[()]


def min_chord_start(curve: ClosedCurve, s: float):
    """Start parameter minimizing the chord spanned by an arc of length s.

    Exact: on each cell [t0, t1] of ``_cells`` the squared chord is
    A (t - t0 + h)^2 + q2, least at t0 + clip(-h, 0, t1 - t0), never above
    the average chord.  Ties go to the smallest t with a cell minimum within
    a relative ``MIN_TIE_RTOL`` of the global one.  Returns (t_star, chord).
    """
    _require_unit(curve)
    if not (0.0 < s <= 0.5):
        raise OutOfRange(f"s must lie in (0, 1/2], got {s}")
    return _least_chord(*_cells(curve, s))


def _least_chord(t0, t1, A, h, q2):  # min_chord_start on the cells of _cells
    tau = np.clip(-h, 0.0, t1 - t0)
    chords = np.sqrt(A * np.square(tau + h) + q2)
    i = int(np.argmax(chords <= chords.min() * (1.0 + MIN_TIE_RTOL)))
    return float(t0[i] + tau[i]) % 1.0, float(chords[i])


def _both_chords(curve: ClosedCurve, s: float):
    """(average_chord, *min_chord_start) at s from one pass of ``_cells``."""
    if not (0.0 < s <= 0.5 and curve.is_unit_length):  # s = 0: no minimum chord
        return average_chord(curve, s), None, None  # 0.0, or average_chord's error
    t0, t1, *form = cells = _cells(curve, s)
    return float(np.sum(_norm_affine_integral(*form, t1 - t0))), *_least_chord(*cells)


def _verdict(curve: ClosedCurve, value: float, bound: float, scaled: bool = True):
    """(passes, err): value <= bound passes iff value <= bound + err, err an a
    priori bound on the rounding of both sides.  ``scaled``: value is a chord,
    so grows with the curve's length L; gamma does not.

    Exact is the polyline through the stored vertices at exact arc-length
    fractions.  To first order in u = 2^-53, with n vertices in R^d, R the
    largest vertex norm over L and l = |L - 1| where ``scaled``, else 0: an
    edge length is good to (d + 3) u, plus 2uR where normalizing rounded the
    vertices; the sequential cum_lengths sum adds (n - 1) u and the sum L n u,
    so a parameter is within P = 2 (n + d + 4 + 2Rn) u.  The kernel walks each
    edge from its end vertex at unit speed, so a0 + b tau is off by 2.5 P + l,
    plus (2d + 23 + 4R) u forming a0 (four terms of norm <= 1/2), b tau and the
    cell breakpoints.  The per-cell closed form is good to (4d + 24) u relative
    (no term loses more than the chord's ratio to its cell maximum, and the
    integral is >= T max(rho0, rho1)/4), the minimum chord to (d + 3) u/2, and
    pairwise summation of <= 2n cells adds (log2 n + 13) u relative.
    chord_length, then the division by L, is off by 2.25 P + (d + 10 + 6R) u.
    A bound formula rounds to 5u relative, and scales with L by l + P/2.  All
    told, err = 6 (n + 2d + 8)(1 + 2R)(1 + |value| + |bound|) u + 2l.
    """
    v = curve.vertices / curve.length
    rmax = math.sqrt(np.einsum("ij,ij->i", v, v).max())
    err = 6 * (curve.n + 2 * curve.dim + 8) * (1 + 2 * rmax) * 2.0**-53
    err *= 1 + abs(value) + abs(bound)
    if scaled:
        err += 2 * abs(curve.length - 1.0)
    return value <= bound + err, err
