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
from .chords import golden_section, min_chord_start
from .curve import Arc, ClosedCurve, chord_length
from .errors import KTooSmall, NotAPartition, NotNormalized, OutOfRange

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


def _piece_lengths(curve: ClosedCurve, starts, fracs) -> np.ndarray:
    starts = np.asarray(starts, dtype=float)
    fracs = np.asarray(fracs, dtype=float)
    chords = np.where(fracs >= 1.0, 0.0,
                      np.asarray(chord_length(curve, starts, fracs)))
    return fracs * curve.length + chords


def uniform_partition(curve: ClosedCurve, k: int, shift: float = 0.0) -> Cover:
    """k arcs of length 1/k starting at shift, shift + 1/k, ..."""
    if k < 1:
        raise KTooSmall("k must be >= 1")
    starts = np.mod(shift + np.arange(k) / k, 1.0)
    fracs = np.full(k, 1.0 / k)
    lengths = _piece_lengths(curve, starts, fracs)
    arcs = tuple(Arc(float(t), 1.0 / k) for t in starts)
    return Cover(arcs, lengths, "uniform")


def best_uniform_shift(curve: ClosedCurve, k: int, objective: str = "max",
                       grid_size: int = 4096):
    """Shift minimizing gamma (``max``) or beta (``avg``) of the uniform cover.

    Scans grid_size shifts in [0, 1/k) augmented with every shift at
    which some arc endpoint crosses a vertex, then refines the best
    cell by golden-section search.  Returns (shift_star, cover).
    """
    if k < 1:
        raise KTooSmall("k must be >= 1")
    if grid_size < 2:
        raise OutOfRange("grid_size must be >= 2")
    if objective not in ("max", "avg"):
        raise ValueError(f"objective must be 'max' or 'avg', got {objective!r}")
    period = 1.0 / k
    grid = np.arange(grid_size) * (period / grid_size)
    crossings = np.mod(curve.params[:-1], period)
    cand = np.unique(np.concatenate((grid, crossings)))
    cand = cand[cand < period]

    starts = np.mod(cand[:, None] + np.arange(k)[None, :] / k, 1.0)
    chords = np.asarray(chord_length(curve, starts.ravel(), 1.0 / k))
    lengths = (curve.length / k + chords).reshape(starts.shape) if k > 1 \
        else np.full((len(cand), 1), curve.length)
    vals = lengths.max(axis=1) if objective == "max" else lengths.sum(axis=1)
    i = int(np.argmin(vals))
    best_shift, best_val = float(cand[i]), float(vals[i])

    def obj(shift: float) -> float:
        lens = _piece_lengths(curve, np.mod(shift + np.arange(k) / k, 1.0),
                              np.full(k, 1.0 / k))
        return float(lens.max() if objective == "max" else lens.sum())

    m = len(cand)
    left = cand[i - 1] - (period if i == 0 else 0.0)
    right = cand[(i + 1) % m] + (period if i == m - 1 else 0.0)
    for a, b in ((left, best_shift), (best_shift, right)):
        x, y = golden_section(obj, a, b, tol=1e-10)
        if y < best_val:
            best_shift, best_val = x % period, y
    return best_shift, uniform_partition(curve, k, best_shift)


def _long_short_cover(curve: ClosedCurve, k: int, s: float, grid_size: int,
                      tag: str) -> Cover:
    if k < 3:
        raise KTooSmall("k must be >= 3")
    if not curve.is_unit_length:
        raise NotNormalized("construction requires a unit-length curve")
    t1, _ = min_chord_start(curve, s, grid_size)
    short = (1.0 - s) / (k - 1)
    starts = np.concatenate(([t1], np.mod(t1 + s + np.arange(k - 1) * short, 1.0)))
    fracs = np.concatenate(([s], np.full(k - 1, short)))
    lengths = _piece_lengths(curve, starts, fracs)
    arcs = tuple(Arc(float(t), float(f)) for t, f in zip(starts, fracs))
    return Cover(arcs, lengths, tag)


def theorem2_partition(curve: ClosedCurve, k: int, grid_size: int = 4096) -> Cover:
    """Long arc of length 1/k + (k-1)/(8k^4) at a minimum-chord start,
    plus k-1 equal arcs.  Guarantees gamma <= 2/k - 1/(4k^4)."""
    eps = 1.0 / (8.0 * k**4)
    s = 1.0 / k + (k - 1) * eps
    return _long_short_cover(curve, k, s, grid_size, "theorem2")


def optimized_partition(curve: ClosedCurve, k: int, grid_size: int = 4096) -> Cover:
    """Same construction with the tuned arc length s_k, guaranteeing
    gamma <= 2(1 - s_k)/(k - 1)."""
    if k < 3:
        raise KTooSmall("k must be >= 3")
    s_k, _ = bounds.solve_sk(k)
    return _long_short_cover(curve, k, s_k, grid_size, "optimized")


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
                 shift_or_s: float = 0.0, tol: float = 1e-6) -> dict:
    """JSON-ready report of a cover and its certified-bound verdict."""
    metrics = cover_metrics(curve, cover)
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
        "bound_satisfied": metrics.gamma <= bound + tol,
    }
