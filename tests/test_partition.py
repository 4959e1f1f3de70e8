import math

import numpy as np
import pytest

from curvecover import (Arc, Cover, beta_extremal, best_uniform_shift,
                        chord_length, cover_metrics, cover_report,
                        gamma_upper_refined, optimized_partition, solve_sk,
                        theorem2_partition, uniform_partition)
from curvecover.errors import KTooSmall, NotAPartition, NotNormalized, OutOfRange


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

    def test_proposition_two_over_k(self, corpus):
        shifts = np.arange(64) / 64
        for name, curve in corpus.items():
            for k in range(2, 13):
                for sh in shifts / k:
                    m = cover_metrics(curve, uniform_partition(curve, k, sh))
                    assert m.gamma <= 2.0 / k + 1e-9, (name, k, sh)


class TestBestUniformShift:
    def test_circle_avg_matches_extremal(self, circle):
        _, cover = best_uniform_shift(circle, 3, "avg", grid_size=256)
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
        _, cover = best_uniform_shift(circle, 1, "max", grid_size=16)
        assert cover_metrics(circle, cover).gamma == pytest.approx(1.0)

    def test_bad_objective(self, circle):
        with pytest.raises(ValueError):
            best_uniform_shift(circle, 3, "median")

    def test_bad_grid_size(self, circle):
        with pytest.raises(OutOfRange):
            best_uniform_shift(circle, 3, "max", 1)


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
