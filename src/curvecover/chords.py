"""Average chord length and minimum-chord search.

The central quantity is the mean length of the chord spanned by an arc
of length s, averaged over all starting points of a unit-length closed
curve.  One cell kernel serves every chord computation: ``_windows`` cuts
[0, 1) where t or t+s crosses a vertex and yields the chord ||a + b (t - t0)||
on each cell [t0, t1] (a formed at t0) in vertex form, about ``_BLOCK`` cells
at a time.  ``average_chord`` integrates it over every cell, ``min_chord_start``
minimizes it over only the windows that a Lipschitz screen finds can hold the
minimum, and ``verify`` gets both from one pass over every cell, keeping a float
per cell and the cells that may tie; ``best_uniform_shift`` gathers every cell at
s = 1/k with ``_cells``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curve import UNIT_LENGTH_TOL, ClosedCurve, point_at
from .curve import chord_length  # noqa: F401  unused; perfbench/selftest.py checks this binding
from .errors import NotNormalized, OutOfRange, _number

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# _ties' relative tolerance, above equal costs' rounding spread and far below real dips:
MIN_TIE_RTOL = 1e-12  # 1.7e-13 and 2.8e-9 of the least shift cost, 4,096-gon at k = 50
_SAMPLES = 64  # sampled quadrature: midpoints per part, parts per unit of t
_BLOCK = 2**14  # cells in a window of _windows, so temporaries do not grow with n
_SCREEN = 32  # vertices per block of min_chord_start's screen


@dataclass(frozen=True)
class QuadratureConfig:
    """How to evaluate the average-chord integral.

    ``exact-piecewise`` integrates the closed form on every breakpoint
    interval; ``sampled`` uses a composite midpoint rule with 64 midpoints
    on each part of at most 1/64 of an interval, each chord read from the
    interval's vertex form: an oracle for the closed-form integral.
    """

    mode: str = "exact-piecewise"

    def __post_init__(self):
        if self.mode not in ("exact-piecewise", "sampled"):
            raise OutOfRange(f"unknown quadrature mode {self.mode!r}")


def _require_unit(curve: ClosedCurve):
    if not curve.is_unit_length:
        raise NotNormalized(f"curve length {curve.length} is not 1 within {UNIT_LENGTH_TOL}")


def _chord_s(curve: ClosedCurve, s, zero=False) -> float:
    """s as a float for a chord reader of a unit-length ``curve``: in [0, 1/2] if ``zero``,
    else (0, 1/2], and never in (0, 2^-52), where a cell of width s can round away."""
    _require_unit(curve)
    s = _number(s, "s")
    if not (0.0 <= s <= 0.5 and (zero or s > 0.0)):
        raise OutOfRange(f"s must lie in {'[' if zero else '('}0, 1/2], got {s}")
    if 0.0 < s < 2.0**-52:
        raise OutOfRange(f"s must be {'0 or ' if zero else ''}at least 2^-52, got {s}: "
                         "a cell of width s rounds away")
    return s


def _ties(x, least):  # x within a relative MIN_TIE_RTOL of least: the one tie test
    return x <= least * (1.0 + MIN_TIE_RTOL)


def _affine_at(curve: ClosedCurve, s: float, t0: np.ndarray, t1: np.ndarray, u: np.ndarray):
    """(a, b) with r(t+s) - r(t) = a + b (t - t0) on the 1-D cells [t0, t1] of
    ``_windows``, where t and t+s each stay on one edge; a and b are (cells, d).
    a, the chord at t0, is formed from the nearest vertices: accurate as s -> 0.
    u is ``curve.params``, which ``_windows`` forms once for all its windows."""
    vtx, tan = curve.vertices, curve._tangents
    mids = 0.5 * (t0 + t1)
    i = np.minimum(np.searchsorted(u, mids, side="right") - 1, curve.n - 1)  # >= 0: u[0] = 0
    wrap = mids + s >= 1.0  # t + s runs past 1 on this cell, and t0 >= 1/2
    j = np.minimum(np.searchsorted(u, mids + s - wrap, side="right") - 1, curve.n - 1)
    ei, ej = np.take(tan, i, axis=0), np.take(tan, j, axis=0)
    # r(t0) = r_{i+1} - (u_{i+1} - t0) e_i, r(t0+s) = r_j + (t0 - wrap - u_j + s) e_j
    # (t0 - wrap is exact); where both lie on edge i, a = (s - wrap) e_i outright
    a = (np.take(vtx, j, axis=0) - np.take(vtx, i + 1, axis=0, mode="wrap")
         + (np.take(u, i + 1) - t0)[..., None] * ei
         + ((t0 - wrap - np.take(u, j)) + s)[..., None] * ej)
    same = i == j
    a[same] = (s - wrap[same])[..., None] * ei[same]
    return a, ej - ei


def _windows(curve: ClosedCurve, s: float, spans=None):
    """Cells [t0, t1] of [0, 1), cut where t or t+s crosses a vertex, in the vertex form
    of r(t+s) - r(t): (t0, t1, A, h, q2) on [u_a, u_b) for vertices a..b-1, _BLOCK/2 at a
    time, or on the windows (first, stop) = ``spans`` of at most _BLOCK/2 vertices, in
    order.  Vertices are breakpoints, so these are the cells of one whole sort, to the bit;
    the last window ends at 1.0, not at u_n."""
    u, step = curve.params, _BLOCK // 2
    if spans is None:
        first = np.arange(0, curve.n, step)
        spans = first, np.minimum(first + step, curve.n)
    first, stop = spans
    j = np.searchsorted(u, s)  # u - s < 0 below j, where np.mod adds 1 (fmod is exact)
    shifted = np.concatenate((u[j:-1] - s, u[:j] - s + 1.0))  # np.mod(u[:-1] - s, 1), sorted
    ends = np.where(stop < curve.n, u[stop], 1.0)
    cells = zip(first, stop, np.searchsorted(shifted, u[first]), np.searchsorted(shifted, ends))
    for (a, b, lo, hi), end in zip(cells, ends):
        brk = np.concatenate((u[a:b], shifted[lo:hi], [end]))
        brk.sort()  # np.unique, in place
        brk = brk[np.concatenate(([True], brk[1:] != brk[:-1]))]
        t0, t1 = brk[:-1], brk[1:]
        yield t0, t1, *_vertex_form(*_affine_at(curve, s, t0, t1, u))


def _per_cell(curve: ClosedCurve, s: float, rows: int, read):
    """``rows`` arrays of a float per cell (<= 2n), read(*cells) filling a window of each."""
    out, m = [np.empty(2 * curve.n) for _ in range(rows)], 0
    for cells in _windows(curve, s):
        for row, x in zip(out, read(*cells)):
            row[m:m + len(x)] = x
        m += len(cells[0])
    return [row[:m] for row in out]


def _cells(curve: ClosedCurve, s: float):
    """Every cell of ``_windows`` at once, (t0, t1, A, h, q2): the shift search's gather."""
    t0, A, h, q2 = _per_cell(curve, s, 4, lambda t0, t1, *form: (t0, *form))
    return t0, np.concatenate((t0[1:], [1.0])), A, h, q2


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


def _sq(A, h, q2, tau):
    """A (tau + h)^2 + q2: the squared chord of a vertex form at tau past its origin."""
    v = np.add(tau, h)
    np.square(v, out=v)
    v *= A
    v += q2
    return v


def _norm_affine_integral(A, h, q2, T):
    """Vectorized integral of ||a + b t|| over [0, T] from the vertex form of ``_windows``.

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
    exceeds sin(pi*s)/pi, with equality only in the circular limit.  Both
    modes read the chord on each cell of ``_windows`` from its vertex form:
    ``exact-piecewise`` integrates it in closed form, ``sampled`` sums it at
    midpoints, a window at a time, with no point geometry.
    """
    if (s := _chord_s(curve, s, zero=True)) == 0.0:
        return 0.0
    if cfg.mode == "exact-piecewise":
        return float(np.sum(_per_cell(curve, s, 1, _integral)[0]))
    return math.fsum(_midpoint_sum(*cells) for cells in _windows(curve, s))


def _integral(t0, t1, A, h, q2):  # each cell's part of the exact average chord
    return (_norm_affine_integral(A, h, q2, t1 - t0),)


def _midpoint_sum(t0, t1, *form):
    """The sampled rule on one window's cells, read from their vertex form: 64 p
    midpoints on a cell of width w, p = max(1, ceil(64 w)), so the rule stays
    within 1e-6 of the closed form (coarse polygons).  Row r of a cell holds
    its midpoints tau = (64 r + i + 0.5) w/(64 p), i < 64."""
    p = np.maximum(1, np.ceil((t1 - t0) * _SAMPLES)).astype(int)
    cell = np.repeat(np.arange(len(p)), p)[:, None]
    step = ((t1 - t0) / (_SAMPLES * p))[cell]
    row = np.arange(len(cell))[:, None] - (np.cumsum(p) - p)[cell]
    tau = (_SAMPLES * row + np.arange(_SAMPLES) + 0.5) * step
    chords = _sq(*(x[cell] for x in form), tau)
    np.sqrt(chords, out=chords)
    chords *= step
    return np.sum(chords)


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
    widest = np.max(h, initial=0.0)  # rounding is monotone: max(h) * phi is max(h * phi)
    while widest > 1e-12:
        h, widest = h * _INV_PHI, widest * _INV_PHI
        left = yc < yd  # keep [a, d] with a new c; else keep [c, b] with a new d
        a = np.where(left, a, c)
        x = a + np.where(left, _INV_PHI2, _INV_PHI) * h
        c, d = np.where(left, x, d), np.where(left, c, x)
        y = f(x)
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
    first = yc < yd
    return np.where(first, c, d)[()], np.where(first, yc, yd)[()]


def min_chord_start(curve: ClosedCurve, s: float):
    """Start parameter minimizing the chord spanned by an arc of length s.

    Exact: on each cell [t0, t1] of ``_windows`` the squared chord is
    A (t - t0 + h)^2 + q2, least at t0 + clip(-h, 0, t1 - t0), never above
    the average chord.  Ties go to the smallest t whose cell minimum ``_ties``
    the global one (within a relative MIN_TIE_RTOL).  Returns (t_star, chord).

    Screened: the chord c(t) = |r(t+s) - r(t)| is 2L-Lipschitz in t, so on a
    block [u_a, u_b] of ``_SCREEN`` vertices it is at least
    (c_a + c_b)/2 - L (u_b - u_a), from the chords c_a, c_b at the block's
    ends (t = 1 is t = 0), taken by one point_at call.  Let m be twice ``_verdict``'s err at the least
    of those chords, c_min: it bounds the rounding of a point chord and of
    a kernel chord together (the point_at seam near t = 1 among it), so the
    kernel's least chord is at most c_min + m and no kernel chord in the
    block is below that bound less m.  A block whose bound less m does not
    tie c_min + m (``_ties``) thus holds neither the least chord nor a
    tie with it, and the walk need not read its cells.  Each cell walked is
    the float of the full walk, so the result keeps its bits.
    """
    s = _chord_s(curve, s)
    return _tie(_least(*cells) for cells in _windows(curve, s, _screen(curve, s)))


def _screen(curve: ClosedCurve, s: float):
    """(first, stop) vertex bounds of the windows that min_chord_start walks: in
    each window of ``_windows``' own grid that keeps a block, from its first kept
    block to its last, so never more windows than the full walk; None (the full
    walk) for one block."""
    ends = np.append(curve.cum_lengths[:-1:_SCREEN] / curve.length, 1.0)  # u_a, then 1.0
    if len(ends) < 3:
        return None
    c = np.linalg.norm(point_at(curve, ends[:-1] + s) - curve.vertices[::_SCREEN], axis=1)
    c = np.append(c, c[0])  # r(u_a) is vertex a; t = 1 is t = 0
    least = c.min()
    m = 2.0 * _verdict(curve, least, least).err
    low = 0.5 * (c[:-1] + c[1:]) - curve.length * np.diff(ends) - m
    kept = np.flatnonzero(_ties(low, least + m))
    cut = np.flatnonzero(np.diff(kept // (_BLOCK // 2 // _SCREEN)))  # last kept of a window
    first, last = kept[np.append(0, cut + 1)], kept[np.append(cut, -1)]
    return first * _SCREEN, np.minimum(last * _SCREEN + _SCREEN, curve.n)


def _least(t0, t1, A, h, q2):  # least chord and t* of the cells that may tie, in a window
    tau = np.clip(-h, 0.0, t1 - t0)
    chords = np.sqrt(_sq(A, h, q2, tau))
    near = _ties(chords, chords.min())
    return chords[near], (t0 + tau)[near]


def _tie(windows):  # min_chord_start's tie rule over every window's _least cells
    chords, t_star = map(np.concatenate, zip(*windows))
    i = int(np.argmax(_ties(chords, chords.min())))
    return float(t_star[i]) % 1.0, float(chords[i])


def _both_chords(curve: ClosedCurve, s: float):
    """(average_chord, *min_chord_start) at s from one ``_windows`` pass; (0.0, None, None) at 0."""
    if (s := _chord_s(curve, s, zero=True)) == 0.0:
        return 0.0, None, None
    least = []

    def read(*cells):  # fills the integral row, keeping each window's _least
        least.append(_least(*cells))
        return _integral(*cells)
    parts, = _per_cell(curve, s, 1, read)
    return float(np.sum(parts)), *_tie(least)


@dataclass(frozen=True)
class Verdict:
    """value <= bound, err bounding the rounding of both: passes iff value <= bound + err."""

    value: float
    bound: float
    err: float
    passes = property(lambda v: v.value <= v.bound + v.err)
    margin = property(lambda v: v.bound - v.value)


def _verdict(curve: ClosedCurve, value: float, bound: float, scaled: bool = True) -> Verdict:
    """The ``Verdict`` of value <= bound with its err.  ``scaled``: value is a
    chord, so grows with the curve's length L; gamma does not.

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
    err = 6 * (curve.n + 2 * curve.dim + 8) * (1 + 2 * curve._rmax) * 2.0**-53
    err *= 1 + abs(value) + abs(bound)
    if scaled:
        err += 2 * abs(curve.length - 1.0)
    return Verdict(value, bound, err)
