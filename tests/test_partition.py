import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvecover import (Arc, Cover, CurveSpec, beta_extremal, best_uniform_shift,
                        build_curve, chord_length, cover_metrics, cover_report,
                        gamma_upper_refined, gamma_upper_simple, generate,
                        golden_section, optimized_partition, solve_sk,
                        theorem2_partition, uniform_partition)
from curvecover.chords import MIN_TIE_RTOL
from curvecover.errors import (DegenerateCurve, KTooSmall, NotAPartition,
                               NotNormalized, OutOfRange)
from curvecover.partition import _shift_cells


class TestUniformPartition:
    def test_circle_quarters(self, circle):
        cover = uniform_partition(circle, 4, 0.0)
        expect = 0.25 + math.sin(math.pi / 4) / math.pi
        assert np.allclose(cover.piece_lengths, expect, atol=1e-6)

    def test_square_sides(self, square):
        cover = uniform_partition(square, 4, 0.0)
        m = cover_metrics(square, cover)
        assert np.allclose(cover.piece_lengths, 0.5, atol=1e-12)
        assert m.gamma == pytest.approx(0.5, abs=1e-12)

    def test_single_piece(self, circle):
        cover = uniform_partition(circle, 1, 0.37)
        m = cover_metrics(circle, cover)
        assert m.beta == pytest.approx(1.0, abs=1e-12)
        assert m.gamma == pytest.approx(1.0, abs=1e-12)

    def test_k_zero(self, circle):
        with pytest.raises(KTooSmall):
            uniform_partition(circle, 0)

    @pytest.mark.parametrize("shift, want", [
        (-0.3, np.mod(-0.3 + np.arange(4) / 4, 1.0)),
        (0.3, np.mod(0.3 + np.arange(4) / 4, 1.0)),
        (-1e-20, [0.0, 0.25, 0.5, 0.75]), (1e16, [0.0, 0.25, 0.5, 0.75]),
        (-2.75, [0.25, 0.5, 0.75, 0.0])])
    def test_starts_at_any_shift(self, circle, shift, want):
        # -1e-20 + 0 rounds to 1 mod 1 and 1e16 + j/k loses j/k; other shifts
        # with |shift| < 1 keep the starts they had
        cover = uniform_partition(circle, 4, shift)
        starts = np.array([a.t_start for a in cover.pieces])
        assert starts.tobytes() == np.asarray(want, dtype=float).tobytes()
        cover_metrics(circle, cover)  # raises NotAPartition unless the arcs tile

    def test_proposition_two_over_k(self, corpus):
        shifts = np.arange(64) / 64
        for name, curve in corpus.items():
            for k in range(2, 13):
                for sh in shifts / k:
                    m = cover_metrics(curve, uniform_partition(curve, k, sh))
                    assert m.gamma <= 2.0 / k + 1e-9, (name, k, sh)


class TestBestUniformShift:
    def test_circle_avg_matches_extremal(self, circle):
        _, cover = best_uniform_shift(circle, 3, "avg")
        m = cover_metrics(circle, cover)
        assert m.beta == pytest.approx(beta_extremal(3), abs=1e-4)
        assert m.beta <= beta_extremal(3) + 1e-6

    def test_square_max(self, square):
        shift, cover = best_uniform_shift(square, 4, "max")
        m = cover_metrics(square, cover)
        assert m.gamma == pytest.approx(0.25 + math.sqrt(2) / 8, abs=1e-9)
        # brute-force oracle over a fine shift grid
        grid = np.arange(100000) / 100000 * 0.25
        gammas = [0.25 + max(
            float(chord_length(square, sh + i / 4, 0.25)) for i in range(4))
            for sh in grid[::500]]
        assert m.gamma <= min(gammas) + 1e-9
        assert shift == pytest.approx(0.125, abs=1e-8)

    def test_k1_trivial(self, circle):
        _, cover = best_uniform_shift(circle, 1, "max")
        assert cover_metrics(circle, cover).gamma == pytest.approx(1.0)

    def test_bad_objective(self, circle):
        with pytest.raises(OutOfRange):
            best_uniform_shift(circle, 3, "median")

    def test_needs_unit_length(self):
        from curvecover import build_curve
        c = build_curve([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(NotNormalized):
            best_uniform_shift(c, 3)

    @pytest.mark.parametrize("objective, k", [("max", 13), ("avg", 13), ("max", 50),
                                              ("avg", 50)],
                             ids=["max", "avg", "max-k50", "avg-k50"])
    def test_oracle_random4k(self, random4k, objective, k):
        # shifts 1/1.3e6 apart at every k: 100,000 of them at k = 13
        grid = 1_300_000 // k
        shifts = np.arange(grid) / (grid * k)
        starts = np.mod(shifts[:, None] + np.arange(k)[None, :] / k, 1.0)
        chords = np.asarray(chord_length(random4k, starts.ravel(), 1.0 / k))
        lengths = 1.0 / k + chords.reshape(starts.shape)
        reduce = np.max if objective == "max" else np.sum
        brute = float(reduce(lengths, axis=1).min())
        shift, cover = best_uniform_shift(random4k, k, objective)
        assert 0.0 <= shift < 1.0 / k
        assert float(reduce(cover.piece_lengths)) <= brute + 1e-12

    @pytest.mark.parametrize("spec, k", [
        (CurveSpec("random_closed", {"n": 16, "seed": 7}, dim=3), 50),
        (CurveSpec("regular_polygon", {"m": 8}), 12)], ids=["rnd-k50", "octagon-k12"])
    def test_ties_go_to_the_smallest_shift(self, spec, k):
        # many shifts tie in gamma here, up to its last bits; rounding used to
        # pick one of them
        curve = generate(spec)
        shift, cover = best_uniform_shift(curve, k)
        assert shift == 0.0
        lo, hi = _shift_cells(curve, k)[:2]
        gammas = [cover_metrics(curve, uniform_partition(curve, k, t)).gamma
                  for t in np.concatenate((lo, 0.5 * (lo + hi)))]
        assert cover_metrics(curve, cover).gamma <= min(gammas) * (1.0 + 1e-12)


def _full_search_shift(curve, k, objective):
    """Reference: the shift search that refines every cell, before pruning,
    with the same tie rule."""
    lo, hi, qa, h, qm = _shift_cells(curve, k)

    def cost(sigma):
        sq = qa * np.square(sigma - lo + h) + qm
        return sq.max(axis=0) if objective == "max" else np.sqrt(sq).sum(axis=0)

    x, y = golden_section(cost, lo, hi)
    cand, costs = np.concatenate((lo, x)), np.concatenate((cost(lo), y))
    return float(cand[costs <= costs.min() * (1.0 + MIN_TIE_RTOL)].min())


def _assert_pruned_matches_full(curve, k, objective):
    shift, cover = best_uniform_shift(curve, k, objective)
    ref = _full_search_shift(curve, k, objective)
    assert shift == ref, (k, objective)
    want = uniform_partition(curve, k, ref).piece_lengths
    assert cover.piece_lengths.tobytes() == want.tobytes(), (k, objective)


@pytest.mark.parametrize("objective", ["max", "avg"])
def test_pruned_search_matches_full(corpus, random4k, objective):
    for curve in [*corpus.values(), random4k]:
        for k in (2, 3, 5, 13, 50):
            _assert_pruned_matches_full(curve, k, objective)


@st.composite
def random_polylines(draw):
    """A closed polyline with 4 to 64 vertices in R^2 .. R^5, usually
    self-intersecting, as a unit-length curve."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(4, 64))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                        min_size=n, max_size=n))
    try:
        return build_curve(pts, normalize=True)
    except DegenerateCurve:
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve=random_polylines(), k=st.integers(2, 50),
       objective=st.sampled_from(["max", "avg"]))
def test_pruned_search_matches_full_random(curve, k, objective):
    _assert_pruned_matches_full(curve, k, objective)


def _assert_shift_cells_match(curve, k):
    # each arc's quadratic against the chord measured afresh, at the start,
    # middle and end of every shift cell
    lo, hi, qa, h, qm = _shift_cells(curve, k)
    arc = (np.arange(k) / k)[:, None]
    for tau in (0.0, 0.5 * (hi - lo), hi - lo):
        got = np.sqrt(qa * np.square(tau + h) + qm)
        want = chord_length(curve, lo + tau + arc, 1.0 / k)
        assert np.max(np.abs(got - want)) <= 1e-12, (k, tau)


@pytest.mark.parametrize("k", [2, 3, 13, 50])
def test_shift_cells_match_chord_length(corpus, random4k, k):
    for curve in [*corpus.values(), random4k]:
        _assert_shift_cells_match(curve, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve=random_polylines(), k=st.sampled_from([2, 3, 13, 50]))
def test_shift_cells_match_chord_length_random(curve, k):
    _assert_shift_cells_match(curve, k)


def test_shift_search_memory_does_not_grow_with_dim():
    # the search reads each arc's chord from _cells: no k x cells x d array
    peaks = []
    for d in (2, 5):
        curve = generate(CurveSpec("random_closed", {"n": 4096, "seed": 7}, dim=d))
        tracemalloc.start()
        try:
            best_uniform_shift(curve, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve=random_polylines(), k=st.integers(3, 12),
       shift=st.floats(0.0, 1.0, exclude_max=True))
def test_every_construction_meets_its_bound(curve, k, shift):
    # cover_metrics raises NotAPartition unless the arcs tile the curve
    uniform = cover_metrics(curve, uniform_partition(curve, k, shift / k))
    best_max = cover_metrics(curve, best_uniform_shift(curve, k, "max")[1])
    best_avg = cover_metrics(curve, best_uniform_shift(curve, k, "avg")[1])
    theorem2 = cover_metrics(curve, theorem2_partition(curve, k))
    optimized = cover_metrics(curve, optimized_partition(curve, k))
    assert uniform.gamma <= 2.0 / k + 1e-12
    assert best_max.gamma <= uniform.gamma + 1e-12
    assert best_avg.beta <= min(uniform.beta, beta_extremal(k)) + 1e-12
    assert theorem2.gamma <= gamma_upper_refined(k) + 1e-12
    assert optimized.gamma <= solve_sk(k)[1] + 1e-12


class TestTheorem2Partition:
    def test_circle_k3_structure(self, circle):
        cover = theorem2_partition(circle, 3)
        eps = 1.0 / (8 * 3**4)
        s = 1.0 / 3 + 2 * eps
        assert cover.pieces[0].length_frac == pytest.approx(s, abs=1e-15)
        assert cover.pieces[1].length_frac == pytest.approx(1 / 3 - eps, abs=1e-15)
        m = cover_metrics(circle, cover)
        assert m.gamma <= gamma_upper_refined(3) + 1e-6

    def test_certificate_on_corpus(self, corpus):
        for name, curve in corpus.items():
            for k in (3, 5, 8):
                m = cover_metrics(curve, theorem2_partition(curve, k))
                assert m.gamma <= gamma_upper_refined(k) + 1e-6, (name, k)

    def test_k2_rejected(self, square):
        with pytest.raises(KTooSmall):
            theorem2_partition(square, 2)

    def test_needs_unit_length(self):
        from curvecover import build_curve
        c = build_curve([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(NotNormalized):
            theorem2_partition(c, 3)


class TestOptimizedPartition:
    def test_circle_k3(self, circle):
        m = cover_metrics(circle, optimized_partition(circle, 3))
        assert m.gamma <= 0.644

    def test_circle_k10(self, circle):
        m = cover_metrics(circle, optimized_partition(circle, 10))
        assert m.gamma <= 0.200

    def test_ellipse_k5(self, corpus):
        m = cover_metrics(corpus["ellipse_2_1"],
                          optimized_partition(corpus["ellipse_2_1"], 5))
        assert m.gamma <= solve_sk(5)[1] + 1e-6
        assert m.gamma <= 0.398 + 1e-6

    def test_k2_rejected(self, circle):
        with pytest.raises(KTooSmall):
            optimized_partition(circle, 2)


class TestCoverMetrics:
    def test_full_cover(self, circle):
        m = cover_metrics(circle, uniform_partition(circle, 1))
        assert m.beta == m.gamma == pytest.approx(1.0)

    def test_circle_halves(self, circle):
        m = cover_metrics(circle, uniform_partition(circle, 2))
        assert m.beta == pytest.approx(0.5 + 1 / math.pi, abs=1e-6)
        assert m.gamma == pytest.approx(m.beta, abs=1e-9)

    def test_square_quarters(self, square):
        m = cover_metrics(square, uniform_partition(square, 4))
        assert m.beta == pytest.approx(0.5, abs=1e-12)
        assert m.gamma == pytest.approx(0.5, abs=1e-12)
        assert m.argmax_piece == 0

    def test_gamma_at_least_beta(self, corpus):
        for curve in corpus.values():
            for k in (2, 5, 9):
                m = cover_metrics(curve, uniform_partition(curve, k, 0.03))
                assert m.gamma >= m.beta - 1e-12
                assert m.beta >= 1.0 / k

    def test_not_a_partition(self, circle):
        bad = Cover((Arc(0.0, 0.5), Arc(0.25, 0.5)), np.array([0.6, 0.6]))
        with pytest.raises(NotAPartition):
            cover_metrics(circle, bad)
        short = Cover((Arc(0.0, 0.25), Arc(0.25, 0.25)), np.array([0.3, 0.3]))
        with pytest.raises(NotAPartition):
            cover_metrics(circle, short)


class TestTheorem1Averaging:
    def test_grid_mean_beta(self, corpus):
        shifts = np.arange(256) / 256
        for name, curve in corpus.items():
            for k in (2, 4, 7):
                betas = [cover_metrics(curve, uniform_partition(curve, k, sh)).beta
                         for sh in shifts / k]
                assert np.mean(betas) <= beta_extremal(k) + 1e-6, (name, k)


class TestCircleLowerBound:
    def test_uniform_shift_invariance(self, circle):
        for k in (2, 3, 5, 8):
            bound = beta_extremal(k)
            for sh in np.arange(32) / (32 * k):
                m = cover_metrics(circle, uniform_partition(circle, k, sh))
                assert m.gamma >= bound - 1e-4


def test_cover_report_payload(circle):
    cover = uniform_partition(circle, 4, 0.0)
    report = cover_report(circle, cover, bound=0.5, shift_or_s=0.0)
    assert report["k"] == 4
    assert report["construction"] == "uniform"
    assert len(report["pieces"]) == 4
    assert {"t_start", "length_frac", "piece_length"} <= report["pieces"][0].keys()
    assert report["bound_satisfied"] is True
    assert report["gamma"] <= report["bound"]


def _scan_curves():
    """Regular 3- to 64-gons, four rectangles and eight random polylines with
    n from 8 to 256 and d from 2 to 6: coarse curves whose covers reach their
    bounds exactly, as pieces lying on straight sides do."""
    specs = [CurveSpec("regular_polygon", {"m": m}) for m in range(3, 65)]
    specs += [CurveSpec("rectangle", {"aspect": a}) for a in (1.0, 2.5, 7.0, 20.0)]
    specs += [CurveSpec("random_closed", {"n": n, "seed": 100 + i}, dim=d)
              for i, (n, d) in enumerate([(8, 2), (13, 3), (32, 4), (64, 5),
                                          (100, 6), (256, 2), (200, 3), (17, 6)])]
    return [generate(spec) for spec in specs]


def test_covers_at_equality_pass():
    # gamma - bound reaches 8.25 u bound (u = 2^-53), on the heptagon's best
    # cover at k = 11; every cover must pass, within its err
    worst = 0.0
    for curve in _scan_curves():
        for k in range(3, 13):
            shift, best = best_uniform_shift(curve, k)
            for cover, bound, shift_or_s in (
                    (theorem2_partition(curve, k), gamma_upper_refined(k), 0.0),
                    (optimized_partition(curve, k), *solve_sk(k)[::-1]),
                    (best, gamma_upper_simple(k), shift)):
                report = cover_report(curve, cover, bound, shift_or_s)
                assert report["bound_satisfied"] is True, (curve.n, k, cover.construction)
                assert report["gamma"] - bound <= report["err"]
                worst = max(worst, (report["gamma"] - bound) / (2.0**-53 * bound))
    assert worst > 4.0  # the scan does reach past the bound's last bits
