"""Cover pieces, the cover constructions and their quality metrics.

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

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .chords import (MIN_TIE_RTOL, _cells, _require_unit, _sq, _verdict, golden_section,
                     min_chord_start)
from .curve import ClosedCurve, chord_length
from .errors import NotAPartition, OutOfRange, _count, _number

PARTITION_TOL = 1e-9
_BLOCK = 2**15  # elements (arcs x cells) in one block of the shift search


@dataclass(frozen=True)
class Arc:
    """Connected sub-piece of a curve: start parameter plus a length fraction."""

    t_start: float
    length_frac: float

    def __post_init__(self):
        if not (0.0 <= _number(self.t_start, "t_start") < 1.0):
            raise OutOfRange(f"t_start must lie in [0, 1), got {self.t_start}")
        if not (0.0 < _number(self.length_frac, "length_frac") <= 1.0):
            raise OutOfRange(f"length_frac must lie in (0, 1], got {self.length_frac}")


def _piece_lengths(curve: ClosedCurve, starts, fracs) -> np.ndarray:
    """``cover_piece_length`` of each arc (starts, fracs), as an array."""
    chords = np.where(fracs >= 1.0, 0.0, chord_length(curve, starts, fracs))
    return fracs * curve.length + chords


def cover_piece_length(curve: ClosedCurve, arc: Arc) -> float:
    """Length of the closed curve formed by an arc plus its endpoint chord.

    A full arc (length_frac == 1) closes on itself and contributes no
    chord.
    """
    return float(_piece_lengths(curve, arc.t_start, arc.length_frac))


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


def _cover(curve: ClosedCurve, starts, fracs, tag: str) -> Cover:
    """The cover by the arcs (starts, fracs), with their piece lengths."""
    arcs = tuple(Arc(float(t), float(f)) for t, f in zip(starts, fracs))
    return Cover(arcs, _piece_lengths(curve, starts, fracs), tag)


def uniform_partition(curve: ClosedCurve, k: int, shift: float = 0.0) -> Cover:
    """k arcs of length 1/k starting at shift, shift + 1/k, ..."""
    k, shift = _count(k, 1), _number(shift, "shift")
    # fmod is exact, so j/k survives any shift; a start just below 0 rounds to 1
    starts = np.mod(math.fmod(shift, 1.0) + np.arange(k) / k, 1.0)
    starts[starts == 1.0] = 0.0
    return _cover(curve, starts, np.full(k, 1.0 / k), "uniform")


def _shift_cells(curve: ClosedCurve, k: int):
    """(lo, hi, arcs): the shift cells [lo, hi] of [0, 1/k), cut where an arc
    endpoint crosses a vertex, and arcs(c) -> (qa, h, qm) on the cells c (a
    slice or index array): arc j's squared chord qa (tau + h)^2 + qm at shift
    lo + tau, in row j."""
    offs = np.arange(k)[:, None] / k  # built once: a k too large to allocate fails here
    period = 1.0 / k
    brk = np.unique(np.concatenate((np.mod(curve.params[:-1], period),
                                    [0.0, period])))
    lo, hi = brk[:-1], brk[1:]
    t0, _, A, H, q2 = _cells(curve, period)

    def arcs(c):
        # arc j on [lo, hi] lies inside one cell [t0, t1] of _cells, as both cut at
        # every vertex mod 1/k: the cell holding its midpoint, with h moved to lo
        h = lo[c] + offs
        i = np.searchsorted(t0, h + 0.5 * (hi[c] - lo[c]), side="right") - 1
        h -= t0[i]
        h += H[i]  # H + (start - t0), in place
        return A[i], h, q2[i]
    return lo, hi, arcs


def best_uniform_shift(curve: ClosedCurve, k: int, objective: str = "max"):
    """Shift minimizing gamma (``max``) or beta (``avg``) of the uniform cover.

    Requires a unit-length curve.  Shifts where an arc endpoint crosses
    a vertex cut [0, 1/k) into cells; on a cell each arc's chord is the
    norm of an affine function of the shift, read from ``_cells`` at s = 1/k,
    so the objective is convex there.  A first pass walks the cells in blocks
    of all k arcs and about ``_BLOCK`` elements, and keeps only each cell's
    cost at its start and its bound (each arc's minimum, reduced by the
    objective).  Cells whose bound exceeds the best start, by more than the
    tie tolerance, are dropped; a second pass refines the rest, with all k
    arcs, to 1e-12 by a batched golden-section search, in blocks of the same
    size.  Every block also carries the widest cell, which sets
    golden_section's step count, so each cell gets the point and cost of one
    search over every cell at once.  Memory does not grow with k x cells.
    Ties go to the smallest cell start or refined point whose cost is within
    a relative ``MIN_TIE_RTOL`` of the least.  Returns (shift_star, cover).
    """
    k = _count(k, 1)
    if k > 4 * _BLOCK:  # a block holds >= 4 cells x k arcs: memory grows with k
        raise OutOfRange(f"k must be <= {4 * _BLOCK} for the best-shift search, got {k}")
    if objective not in ("max", "avg"):
        raise OutOfRange(f"objective must be 'max' or 'avg', got {objective!r}")
    _require_unit(curve)
    if k == 1:
        return 0.0, uniform_partition(curve, 1, 0.0)
    period = 1.0 / k
    lo, hi, arcs = _shift_cells(curve, k)
    width = hi - lo

    def reduce(v):  # over the arcs; avg takes the roots in place, so v is spent
        return v.max(axis=0) if objective == "max" else np.sqrt(v, out=v).sum(axis=0)

    # blocks of >= 2 cells (or the only one): numpy sums their k rows in order,
    # as it does over every cell at once.  Each cell's cost at its start and its
    # bound: reduce over the arcs of their values at lo and of their least
    # values on the cell, less a slack
    cols = max(4, _BLOCK // k)
    start, bound = np.empty_like(lo), np.empty_like(lo)
    for c in np.array_split(np.arange(len(lo)), -(-len(lo) // cols)):
        qa, h, _ = form = arcs(c)
        sq0 = _sq(*form, 0.0)  # at lo, as lo - lo = 0
        low = _sq(*form, np.clip(-h, 0.0, width[c]))
        # the slack 2e-13 (qa/k^2 + sq0): on the cell sq <= 2 (qa/k^2 + sq0), and its
        # rounding, also at the search's points a few ulp past the cell end, is a few
        # ulp of that; max and sums are monotone, so the bound stays below the cost
        low -= 2e-13 * (qa * period**2 + sq0)
        start[c], bound[c] = reduce(sq0), reduce(np.maximum(low, 0.0, out=low))
    keep = bound <= start.min() * (1.0 + MIN_TIE_RTOL)
    wide = np.argmax(width)  # the widest cell sets golden_section's steps
    keep[wide] = False
    rest = np.flatnonzero(keep)
    xs, ys = [lo], [start]  # every cell start is a candidate, also of a dropped cell
    for part in np.array_split(rest, max(1, -(-len(rest) // (cols - 1)))):
        c = np.sort(np.append(part, wide))  # every block carries the widest cell
        form = arcs(c)
        lo_c = lo[c]
        x, y = golden_section(lambda sigma: reduce(_sq(*form, sigma - lo_c)), lo_c, hi[c])
        xs.append(x)
        ys.append(y)
    cand, cost = np.concatenate(xs), np.concatenate(ys)
    shift = float(cand[cost <= cost.min() * (1.0 + MIN_TIE_RTOL)].min())
    return shift, uniform_partition(curve, k, shift)


def _long_short_cover(curve: ClosedCurve, k: int, s: float, tag: str) -> Cover:
    t1, _ = min_chord_start(curve, s)
    short = (1.0 - s) / (k - 1)
    starts = np.concatenate(([t1], np.mod(t1 + s + np.arange(k - 1) * short, 1.0)))
    return _cover(curve, starts, np.concatenate(([s], np.full(k - 1, short))), tag)


def theorem2_partition(curve: ClosedCurve, k: int) -> Cover:
    """Long arc of length 1/k + (k-1)/(8k^4) at a minimum-chord start,
    plus k-1 equal arcs.  Guarantees gamma <= 2/k - 1/(4k^4)."""
    k = _count(k, 3)
    eps = 1.0 / (8.0 * k**4)
    s = 1.0 / k + (k - 1) * eps
    return _long_short_cover(curve, k, s, "theorem2")


def optimized_partition(curve: ClosedCurve, k: int) -> Cover:
    """Same construction with the tuned arc length s_k, guaranteeing
    gamma <= 2(1 - s_k)/(k - 1)."""
    k = _count(k, 3)
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
    v = _verdict(curve, metrics.gamma, bound, scaled=False)
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
        "gamma": v.value,
        "bound": v.bound,
        "bound_satisfied": v.passes,
        "err": v.err,
    }
