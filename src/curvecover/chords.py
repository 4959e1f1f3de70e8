"""Average chord length and minimum-chord search.

The central quantity is the mean length of the chord spanned by an arc
of length s, averaged over all starting points of a unit-length closed
curve.  One cell kernel serves every chord computation: ``_cells`` cuts
[0, 1) where t or t+s crosses a vertex, and on each cell the chord is
||a + b t||.  ``average_chord`` integrates it in closed form,
``min_chord_start`` minimizes it, and ``best_uniform_shift`` reads it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curve import ClosedCurve, chord_length
from .errors import NotNormalized, OutOfRange

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# min_chord_start: cell minima within this relative distance of the
# global minimum tie, and the smallest start among them wins.
MIN_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class QuadratureConfig:
    """How to evaluate the average-chord integral.

    ``exact-piecewise`` integrates the closed form on every breakpoint
    interval; ``sampled`` uses a composite midpoint rule with
    ``samples_per_breakpoint`` midpoints per interval.
    """

    mode: str = "exact-piecewise"
    samples_per_breakpoint: int = 64

    def __post_init__(self):
        if self.mode not in ("exact-piecewise", "sampled"):
            raise OutOfRange(f"unknown quadrature mode {self.mode!r}")
        if self.samples_per_breakpoint < 1:
            raise OutOfRange("samples_per_breakpoint must be positive")


def _require_unit(curve: ClosedCurve):
    if not curve.is_unit_length:
        raise NotNormalized(f"curve length {curve.length} is not 1 within 1e-9")


def _affine_at(curve: ClosedCurve, s: float, mids: np.ndarray):
    """Coefficients (a, b) with r(t+s) - r(t) = a + b t on the cells with
    midpoints ``mids`` (any shape); a and b add a trailing axis of size d."""
    u = curve.params
    i = np.clip(np.searchsorted(u, mids, side="right") - 1, 0, curve.n - 1)
    w = mids + s
    wrap = w >= 1.0
    j = np.clip(np.searchsorted(u, np.where(wrap, w - 1.0, w), side="right") - 1,
                0, curve.n - 1)
    s_eff = np.where(wrap, s - 1.0, s)
    ei, ej = np.take(curve._tangents, i, axis=0), np.take(curve._tangents, j, axis=0)
    a = (np.take(curve.vertices, j, axis=0) - np.take(curve.vertices, i, axis=0)
         + (s_eff - np.take(u, j))[..., None] * ej + np.take(u, i)[..., None] * ei)
    b = ej - ei
    return a, b


def _cells(curve: ClosedCurve, s: float):
    """Sorted cells [t0, t1] of [0, 1), cut where t or t+s crosses a vertex,
    and (a, b) with r(t+s) - r(t) = a + b t on each: (t0, t1, a, b)."""
    u = curve.params[:-1]
    brk = np.unique(np.concatenate((u, np.mod(u - s, 1.0), [0.0, 1.0])))
    t0, t1 = brk[:-1], brk[1:]
    return (t0, t1) + _affine_at(curve, s, 0.5 * (t0 + t1))


def _quadratic(a, b):
    """(A, B, C) = (|b|^2, a.b, |a|^2): ||a + b t||^2 = A t^2 + 2 B t + C."""
    return tuple(np.einsum("...d,...d->...", x, y) for x, y in ((b, b), (a, b), (a, a)))


def _norm_affine_integral(a, b, t0, t1):
    """Vectorized closed form of the integral of ||a + b t|| over [t0, t1].

    With A = |b|^2, the integrand is sqrt(A) * sqrt((t + h)^2 + D) for
    h = (a.b)/A and D = |a|^2/A - h^2 >= 0; the antiderivative is the
    classical one in terms of asinh.
    """
    A, B, C = _quadratic(a, b)
    dt = t1 - t0
    out = np.empty_like(dt)

    flat = A <= 1e-20
    if np.any(flat):
        # parallel tangents: integrand is constant to within roundoff
        mid = 0.5 * (t0 + t1)
        val = np.sqrt(np.maximum(C + mid * (2.0 * B + mid * A), 0.0))
        out[flat] = val[flat] * dt[flat]

    live = ~flat
    if np.any(live):
        Al, Bl, Cl = A[live], B[live], C[live]
        h = Bl / Al
        D = np.maximum(Cl / Al - h * h, 0.0)
        u0 = t0[live] + h
        u1 = t1[live] + h

        def G(u):
            r = np.sqrt(u * u + D)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_term = np.where(D > 0.0, D * np.arcsinh(u / np.sqrt(D)), 0.0)
            return 0.5 * (u * r + log_term)

        out[live] = np.sqrt(Al) * (G(u1) - G(u0))
    return out


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
    t0, t1, a, b = _cells(curve, s)
    if cfg.mode == "exact-piecewise":
        return float(np.sum(_norm_affine_integral(a, b, t0, t1)))
    # sampled: composite midpoint on the same cells, each first split into
    # equal parts of at most 1/64 with np.linspace's edges, so the rule stays
    # within 1e-6 of the closed form at the default settings (coarse polygons)
    parts = np.maximum(1, np.ceil((t1 - t0) * 64.0)).astype(int)
    cell = np.repeat(np.arange(len(t0)), parts)
    i = np.arange(len(cell)) - np.repeat(np.cumsum(parts) - parts, parts)
    step, start = ((t1 - t0) / parts)[cell], t0[cell]
    p0 = i * step + start
    p1 = np.where(i + 1 == parts[cell], t1[cell], (i + 1) * step + start)
    m = cfg.samples_per_breakpoint
    offs = (np.arange(m) + 0.5) / m
    ts = p0[:, None] + offs[None, :] * (p1 - p0)[:, None]
    vals = chord_length(curve, ts.ravel(), s).reshape(ts.shape)
    return float(np.sum(vals.sum(axis=1) * (p1 - p0) / m))


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

    Exact: on each breakpoint cell [t0, t1] the chord is ||a + b t||, so
    its minimum is at t* = clip(-a.b / |b|^2, t0, t1), or at t0 where
    b = 0; it never exceeds the average chord.  Ties: the smallest t
    whose cell minimum is within a relative ``MIN_TIE_RTOL`` of the
    global minimum wins.  Returns (t_star, chord).
    """
    _require_unit(curve)
    if not (0.0 < s <= 0.5):
        raise OutOfRange(f"s must lie in (0, 1/2], got {s}")
    t0, t1, a, b = _cells(curve, s)
    bb, ab, _ = _quadratic(a, b)
    t = np.clip(np.divide(-ab, bb, out=t0.copy(), where=bb > 0.0), t0, t1)
    v = a + b * t[:, None]
    chords = np.sqrt(np.einsum("ij,ij->i", v, v))
    i = int(np.argmax(chords <= chords.min() * (1.0 + MIN_TIE_RTOL)))
    return float(t[i]) % 1.0, float(chords[i])
