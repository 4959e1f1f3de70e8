"""Cover constructions and their quality metrics.

Three ways to cover a closed curve with k closed curves, each an arc of
the original plus the chord joining its endpoints:

* ``uniform_partition``   - k equal arcs starting at a common shift;
* ``theorem2_partition``  - one slightly longer arc placed where its
  chord is shortest, plus k-1 equal arcs;
* ``optimized_partition`` - the same shape with the arc length tuned so
  the long and short pieces are equally bad.

``cover_metrics`` scores any cover by the mean (beta) and maximum
(gamma) piece-to-curve length ratios; beta is bounded by
1/k + sin(pi/k)/pi at the best shift, gamma by the certified
construction bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds
from .chords import (_affine_at, _require_unit, _verdict, _vertex_form,
                     golden_section, min_chord_start)
# chord_length unused: perfbench/selftest.py checks its tracer binding here
from .curve import Arc, ClosedCurve, _piece_lengths, chord_length  # noqa: F401
from .errors import KTooSmall, NotAPartition, OutOfRange

PARTITION_TOL = 1e-9


@dataclass(frozen=True)
class Cover:
    """k arcs (tiling the curve) with their closed-up piece lengths."""

    pieces: tuple[Arc, ...]
    piece_lengths: np.ndarray
    construction: str = "custom"


@dataclass(frozen=True)
class CoverMetrics:
    beta: float
    gamma: float
    argmax_piece: int


def uniform_partition(curve: ClosedCurve, k: int, shift: float = 0.0) -> Cover:
    """k arcs of length 1/k starting at shift, shift + 1/k, ..."""
    if k < 1:
        raise KTooSmall("k must be >= 1")
    starts = np.mod(shift + np.arange(k) / k, 1.0)
    fracs = np.full(k, 1.0 / k)
    lengths = _piece_lengths(curve, starts, fracs)
    arcs = tuple(Arc(float(t), 1.0 / k) for t in starts)
    return Cover(arcs, lengths, "uniform")


def best_uniform_shift(curve: ClosedCurve, k: int, objective: str = "max"):
    """Shift minimizing gamma (``max``) or beta (``avg``) of the uniform cover.

    Requires a unit-length curve.  Shifts where an arc endpoint crosses
    a vertex cut [0, 1/k) into cells; on a cell each arc's chord is the
    norm of an affine function of the shift, so the objective is convex
    there.  Cells whose bound (each arc's minimum, reduced by the objective)
    exceeds the best cell start are dropped; a batched golden-section search
    refines the rest and the widest cell, which sets its step count, to 1e-12.
    The best cell start or refined point wins.  Returns (shift_star, cover).
    """
    if k < 1:
        raise KTooSmall("k must be >= 1")
    if objective not in ("max", "avg"):
        raise OutOfRange(f"objective must be 'max' or 'avg', got {objective!r}")
    _require_unit(curve)
    if k == 1:
        return 0.0, uniform_partition(curve, 1, 0.0)
    period = 1.0 / k
    brk = np.unique(np.concatenate((np.mod(curve.params[:-1], period),
                                    [0.0, period])))
    lo, hi = brk[:-1], brk[1:]
    # one row of cells per arc, shifted by j/k
    shifted = brk[None, :] + (np.arange(k) / k)[:, None]
    qa, h, qm = _vertex_form(*_affine_at(curve, period, shifted[:, :-1], shifted[:, 1:]))

    def sq(tau):  # each arc's squared chord at shift lo + tau
        return qa * np.square(tau + h) + qm

    def reduce(v):
        return v.max(axis=0) if objective == "max" else np.sqrt(v).sum(axis=0)

    start = reduce(sq0 := sq(0.0))  # the cost at lo, as lo - lo = 0
    # On a cell sq <= 2 (qa/k^2 + sq0), and its rounding, also at the search's points
    # a few ulp past the cell end, is a few ulp of that: far below the 2e-13 (qa/k^2
    # + sq0) taken off each arc's minimum.  Max and sums are monotone.
    low = sq(np.clip(-h, 0.0, hi - lo)) - 2e-13 * (qa * period**2 + sq0)
    keep = reduce(np.maximum(low, 0.0)) <= start.min()
    keep[np.argmax(hi - lo)] = True  # the widest cell sets golden_section's steps
    if not keep.all():  # np.compress keeps rows C-contiguous: fast, same sum order
        qa, h, qm, lo, hi = (np.compress(keep, q, -1) for q in (qa, h, qm, lo, hi))
    x, y = golden_section(lambda sigma: reduce(sq(sigma - lo)), lo, hi)
    cand = np.concatenate((brk[:-1], x))
    i = int(np.argmin(np.concatenate((start, y))))
    return float(cand[i]), uniform_partition(curve, k, float(cand[i]))


def _long_short_cover(curve: ClosedCurve, k: int, s: float, tag: str) -> Cover:
    if k < 3:
        raise KTooSmall("k must be >= 3")
    t1, _ = min_chord_start(curve, s)
    short = (1.0 - s) / (k - 1)
    starts = np.concatenate(([t1], np.mod(t1 + s + np.arange(k - 1) * short, 1.0)))
    fracs = np.concatenate(([s], np.full(k - 1, short)))
    lengths = _piece_lengths(curve, starts, fracs)
    arcs = tuple(Arc(float(t), float(f)) for t, f in zip(starts, fracs))
    return Cover(arcs, lengths, tag)


def theorem2_partition(curve: ClosedCurve, k: int) -> Cover:
    """Long arc of length 1/k + (k-1)/(8k^4) at a minimum-chord start,
    plus k-1 equal arcs.  Guarantees gamma <= 2/k - 1/(4k^4)."""
    eps = 1.0 / (8.0 * k**4)
    s = 1.0 / k + (k - 1) * eps
    return _long_short_cover(curve, k, s, "theorem2")


def optimized_partition(curve: ClosedCurve, k: int) -> Cover:
    """Same construction with the tuned arc length s_k, guaranteeing
    gamma <= 2(1 - s_k)/(k - 1)."""
    s_k, _ = bounds.solve_sk(k)
    return _long_short_cover(curve, k, s_k, "optimized")


def cover_metrics(curve: ClosedCurve, cover: Cover) -> CoverMetrics:
    """beta (mean piece ratio) and gamma (max piece ratio) of a cover
    whose arcs tile the curve."""
    fracs = np.array([a.length_frac for a in cover.pieces])
    starts = np.array([a.t_start for a in cover.pieces])
    if abs(fracs.sum() - 1.0) > PARTITION_TOL:
        raise NotAPartition(f"arc fractions sum to {fracs.sum()}, not 1")
    order = np.argsort(starts)
    ends = starts[order] + fracs[order]
    nxt = np.roll(starts[order], -1)
    nxt[-1] += 1.0
    if np.max(np.abs(ends - nxt)) > PARTITION_TOL:
        raise NotAPartition("arcs overlap or leave a gap")
    lengths = np.asarray(cover.piece_lengths, dtype=float)
    beta = float(lengths.sum() / (len(lengths) * curve.length))
    gamma_idx = int(np.argmax(lengths))
    return CoverMetrics(beta, float(lengths[gamma_idx] / curve.length), gamma_idx)


def cover_report(curve: ClosedCurve, cover: Cover, bound: float,
                 shift_or_s: float = 0.0) -> dict:
    """JSON-ready report of a cover and its certified-bound verdict: gamma
    passes iff it is at most bound + err, err its rounding bound."""
    metrics = cover_metrics(curve, cover)
    passes, err = _verdict(curve, metrics.gamma, bound, scaled=False)
    return {
        "k": len(cover.pieces),
        "construction": cover.construction,
        "shift_or_s": shift_or_s,
        "pieces": [
            {"t_start": a.t_start, "length_frac": a.length_frac,
             "piece_length": float(l)}
            for a, l in zip(cover.pieces, cover.piece_lengths)
        ],
        "beta": metrics.beta,
        "gamma": metrics.gamma,
        "bound": bound,
        "bound_satisfied": passes,
        "err": err,
    }
