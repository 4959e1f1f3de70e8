import math

import numpy as np
import pytest

from curvecover import (CurveSpec, QuadratureConfig, average_chord, build_curve,
                        chord_length, generate, golden_section, min_chord_start)
from curvecover.chords import _breakpoints
from curvecover.errors import NotNormalized, OutOfRange

SAMPLED = QuadratureConfig("sampled", 64)
S_VALUES = [0.05, 0.1, 0.25, 0.4, 0.5]


def circle_bound(s):
    return math.sin(math.pi * s) / math.pi


class TestAverageChord:
    def test_circle_quarter(self, circle):
        assert average_chord(circle, 0.25) == pytest.approx(
            circle_bound(0.25), abs=1e-5)

    def test_zero_shift(self, circle):
        assert average_chord(circle, 0.0) == 0.0

    def test_square_half_closed_form(self, square):
        expect = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 8
        assert average_chord(square, 0.5) == pytest.approx(expect, abs=1e-9)
        assert average_chord(square, 0.5, SAMPLED) == pytest.approx(expect, abs=1e-6)

    def test_requires_unit_length(self):
        c = build_curve([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(NotNormalized):
            average_chord(c, 0.25)

    def test_s_domain(self, circle):
        with pytest.raises(OutOfRange):
            average_chord(circle, 0.6)
        with pytest.raises(OutOfRange):
            average_chord(circle, -0.1)

    def test_inequality_on_corpus(self, corpus):
        for name, curve in corpus.items():
            for s in S_VALUES:
                val = average_chord(curve, s)
                assert val <= circle_bound(s) + 1e-9, (name, s)

    def test_circle_equality_improves_with_resolution(self):
        gaps = []
        for n in (256, 1024, 4096):
            poly = generate(CurveSpec("circle", resolution=n))
            gaps.append(circle_bound(0.25) - average_chord(poly, 0.25))
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 1e-4

    def test_strict_for_non_circles(self, corpus):
        for name in ("ellipse_2_1", "square"):
            gap = circle_bound(0.25) - average_chord(corpus[name], 0.25)
            assert gap > 1e-3, name

    def test_modes_agree(self, corpus):
        for name, curve in corpus.items():
            for s in (0.1, 0.25, 0.5):
                exact = average_chord(curve, s)
                sampled = average_chord(curve, s, SAMPLED)
                assert sampled == pytest.approx(exact, abs=1e-6), (name, s)

    def test_bad_quadrature_config(self):
        with pytest.raises(OutOfRange):
            QuadratureConfig("simpson")
        with pytest.raises(OutOfRange):
            QuadratureConfig("sampled", 0)


class TestMinChordStart:
    def test_circle_all_starts_tie(self, circle):
        t_star, chord = min_chord_start(circle, 0.3)
        assert chord == pytest.approx(circle_bound(0.3), abs=1e-6)
        # minimum-chord starts repeat every vertex; the reported one is
        # within a vertex spacing of 0
        dist = min(t_star, 1.0 - t_star)
        assert dist < 1.0 / 2048

    def test_square_corner_straddle(self, square):
        t_star, chord = min_chord_start(square, 0.25)
        assert t_star == pytest.approx(0.125, abs=1e-8)
        assert chord == pytest.approx(math.hypot(0.125, 0.125), abs=1e-9)
        # corner-aligned arcs have a strictly longer chord
        assert chord < chord_length(square, 0.0, 0.25) - 1e-3

    def test_min_dominated_by_any_sample(self, corpus, random4k):
        ts = np.arange(200_000) / 200_000
        for name, curve in {**corpus, "random4k": random4k}.items():
            for s in (0.05, 0.1, 0.3):
                t_star, chord = min_chord_start(curve, s)
                samples = np.concatenate((ts, _breakpoints(curve, s)))
                brute = float(np.min(chord_length(curve, samples, s)))
                assert chord <= brute + 1e-12, (name, s, chord - brute)
                assert chord == pytest.approx(
                    float(chord_length(curve, t_star, s)), rel=1e-9, abs=1e-15)

    def test_min_below_average(self, corpus):
        for name, curve in corpus.items():
            for s in S_VALUES:
                _, chord = min_chord_start(curve, s)
                assert chord <= average_chord(curve, s) + 1e-12, (name, s)

    def test_rigid_motion_invariance(self, square):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = build_curve(square.vertices @ rot.T + np.array([3.0, -1.0]))
        _, c0 = min_chord_start(square, 0.2)
        _, c1 = min_chord_start(moved, 0.2)
        assert c0 == pytest.approx(c1, abs=1e-9)

    def test_domain_errors(self, circle):
        with pytest.raises(OutOfRange):
            min_chord_start(circle, 0.0)
        with pytest.raises(OutOfRange):
            min_chord_start(circle, 0.6)


def test_golden_section_quadratic():
    # x resolution is limited to ~sqrt(eps) by the flat quadratic
    x, y = golden_section(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_golden_section_batched():
    # independent brackets, minima inside, at either end and in a
    # zero-width bracket, refined together to the requested width
    lo = np.array([0.0, 1.0, -2.0, 0.5])
    hi = np.array([1.0, 3.0, -1.0, 0.5])
    target = np.array([0.3, 5.0, -5.0, 0.5])
    x, y = golden_section(lambda t: np.abs(t - target), lo, hi, tol=1e-12)
    assert x.shape == y.shape == (4,)
    assert np.allclose(x, np.clip(target, lo, hi), atol=1e-12)
    assert np.allclose(y, np.abs(x - target), atol=0.0)
