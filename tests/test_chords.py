import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvecover import (CurveSpec, QuadratureConfig, average_chord,
                        best_uniform_shift, build_curve, chord_length, cover_report,
                        gamma_upper_refined, gamma_upper_simple, generate,
                        golden_section, min_chord_start, optimized_partition,
                        solve_sk, theorem2_partition)
from curvecover import chords
from curvecover.chords import (_BLOCK, _SCREEN, MIN_TIE_RTOL, _affine_at, _both_chords, _cells,
                               _norm_affine_integral, _sq, _verdict, _vertex_form)
from curvecover.errors import DegenerateCurve, NotNormalized, OutOfRange

SAMPLED = QuadratureConfig("sampled")
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
        with pytest.raises(OutOfRange, match="s must be a real number, got False"):
            average_chord(circle, False)  # a bool, not the number 0

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
                samples = np.concatenate((ts, _cells(curve, s)[0]))
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


@st.composite
def polylines(draw):
    """A closed polyline with 4 to 64 vertices in R^2 .. R^5, plus a random
    rigid motion of R^d (orthogonal matrix and translation)."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(4, 64))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return pts, q, rng.normal(size=d) * 10.0


# Derandomized so that CI runs the same 100 examples every time.  The chord
# at each cell start is formed from the nearest vertices and integrated
# without cancellation, so the bar is relative only, for any s the chords
# take (from 2^-52) and any scale.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=polylines(), s=st.floats(2.0**-52, 0.5),
       shift=st.integers(1, 63), scale=st.sampled_from([1e-9, 1e-3, 7.0, 1e6]))
def test_chord_kernel_properties(case, s, shift, scale):
    pts, rot, move = case
    try:
        curve, *others = [build_curve(p, normalize=True) for p in (
            pts, pts[::-1], np.roll(pts, shift % len(pts), axis=0),
            pts @ rot.T + move, pts * scale)]
    except DegenerateCurve:
        assume(False)
    avg = average_chord(curve, s)
    _, low = min_chord_start(curve, s)
    assert low <= avg + 1e-12
    assert avg <= circle_bound(s) + 1e-12
    for other in others:
        assert average_chord(other, s) == pytest.approx(avg, rel=1e-12, abs=0.0)


def _assert_kernel_is_geometry(curve, s):
    """Every cell's vertex-form chord sqrt(_sq) at tau = 0, w/2 and w equals
    chord_length at t0 + tau: to 1e-12 relative, plus a few ulp of the largest
    coordinate or of t (a unit-speed parameter), plus the seam |cum_lengths[-1]
    - L| (a sequential sum against a pairwise one) that point_at carries just
    below t = 1, where it walks the last edge out to L."""
    t0, t1, A, h, q2 = _cells(curve, s)
    ulp = 2.0**-52 * max(1.0, np.abs(curve.vertices).max())
    seam = abs(curve.cum_lengths[-1] - curve.length)
    for tau in (np.zeros_like(t0), (t1 - t0) / 2, t1 - t0):
        np.testing.assert_allclose(np.sqrt(_sq(A, h, q2, tau)),
                                   chord_length(curve, t0 + tau, s),
                                   rtol=1e-12, atol=4 * ulp + seam)


@pytest.mark.parametrize("s", [1e-6, 0.01, 0.1, 0.25, 0.37, 0.5])
def test_kernel_chords_are_point_geometry(corpus, random4k, s):
    for curve in [*corpus.values(), random4k]:
        _assert_kernel_is_geometry(curve, s)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=polylines(), s=st.floats(0.0, 0.5, exclude_min=True))
def test_kernel_chords_are_point_geometry_on_polylines(case, s):
    pts, rot, move = case
    try:
        curve = build_curve(pts @ rot.T + move, normalize=True)
    except DegenerateCurve:
        assume(False)
    for x in (s, 1e-6, 0.1, 0.5):
        _assert_kernel_is_geometry(curve, x)


def _mp_integral(a, b, T):
    """40-digit quadrature of ||a + b t|| over [0, T], split at the minimum."""
    with mpmath.workdps(40):
        a, b = [mpmath.mpf(x) for x in a], [mpmath.mpf(x) for x in b]
        bb = mpmath.fsum(x * x for x in b)
        vertex = -mpmath.fsum(x * y for x, y in zip(a, b)) / bb if bb else 0
        knots = [0, vertex, T] if 0 < vertex < T else [0, T]
        return mpmath.quad(lambda t: mpmath.sqrt(mpmath.fsum(
            (x + y * t) ** 2 for x, y in zip(a, b))), knots)


def _mp_closed(a, b, T):
    """40-digit closed form of the integral of ||a + b t|| over [0, T]; the
    asinh antiderivative's cancellation leaves far more than 16 digits."""
    with mpmath.workdps(40):
        A = mpmath.fsum(x * x for x in b)
        if not A:
            return T * mpmath.sqrt(mpmath.fsum(x * x for x in a))
        h = mpmath.fsum(x * y for x, y in zip(a, b)) / A
        k2 = mpmath.fsum((x - h * y) ** 2 for x, y in zip(a, b)) / A

        def F(x):  # an antiderivative of sqrt(x^2 + k2)
            tail = k2 * mpmath.asinh(x / mpmath.sqrt(k2)) if k2 else 0
            return x * mpmath.sqrt(x * x + k2) + tail
        return mpmath.sqrt(A) * (F(T + h) - F(h)) / 2


class _MpPolyline:
    """The polyline through a curve's float vertices at exact arc-length
    fractions t, in 40-digit arithmetic: the exact quantities that each
    verdict's err must cover."""

    def __init__(self, curve):
        with mpmath.workdps(40):
            vtx = [[mpmath.mpf(x) for x in row] for row in curve.vertices.tolist()]
            n = len(vtx)
            edges = [[y - x for x, y in zip(vtx[i], vtx[(i + 1) % n])]
                     for i in range(n)]
            seg = [mpmath.sqrt(mpmath.fsum(x * x for x in e)) for e in edges]
            cum = [mpmath.mpf(0)]
            for length in seg:
                cum.append(cum[-1] + length)
            self.vtx, self.length = vtx, cum[-1]
            self.u = [c / self.length for c in cum]
            self.vel = [[x * self.length / length for x in e]  # dr/dt on each edge
                        for e, length in zip(edges, seg)]

    def _edge(self, t):
        return min(bisect.bisect_right(self.u, t) - 1, len(self.vtx) - 1)

    def _at(self, i, t):  # r(t) on (the line of) edge i
        return [v + (t - self.u[i]) * x for v, x in zip(self.vtx[i], self.vel[i])]

    def chord(self, t, s):
        with mpmath.workdps(40):
            t1 = (mpmath.mpf(t) + s) % 1
            p, q = self._at(self._edge(t), t), self._at(self._edge(t1), t1)
            return mpmath.sqrt(mpmath.fsum((x - y) ** 2 for x, y in zip(p, q)))

    def cells(self, s):
        """(a, b, T) with chord ||a + b tau|| on each cell [t0, t0 + T]."""
        with mpmath.workdps(40):
            us = self.u[:-1]
            brk = sorted(set(us + [(x - s) % 1 for x in us] + [mpmath.mpf(1)]))
            cells = []
            for t0, t1 in zip(brk[:-1], brk[1:]):
                mid = (t0 + t1) / 2
                wrap = 1 if mid + s >= 1 else 0
                i, j = self._edge(mid), self._edge(mid + s - wrap)
                a = [y - x for x, y in zip(self._at(i, t0), self._at(j, t0 + s - wrap))]
                b = [y - x for x, y in zip(self.vel[i], self.vel[j])]
                cells.append((a, b, t1 - t0))
            return cells


def _mp_min_chord(cells):
    with mpmath.workdps(40):
        lows = []
        for a, b, T in cells:
            A = mpmath.fsum(x * x for x in b)
            tau = min(max(-mpmath.fsum(x * y for x, y in zip(a, b)) / A, 0), T) if A else 0
            lows.append(mpmath.sqrt(mpmath.fsum((x + y * tau) ** 2 for x, y in zip(a, b))))
        return min(lows)


@pytest.mark.parametrize("spec, s_values, ks", [
    (CurveSpec("circle"), (0.3,), (5,)),
    (CurveSpec("random_closed", {"n": 40, "seed": 3}, dim=5), (0.05, 0.3, 0.5), (3, 5, 13)),
    (CurveSpec("rectangle", {"aspect": 3.0}), (0.05, 0.3, 0.5), (3, 5, 13)),
], ids=["circle-4096", "random-d5", "rectangle"])
def test_verdicts_within_err_of_mpmath(spec, s_values, ks):
    # average chord, minimum chord and gamma against their exact values on the
    # float vertices: each within the err of its verdict
    curve = generate(spec)
    poly = _MpPolyline(curve)
    for s in s_values:
        bound = circle_bound(s)
        cells = poly.cells(s)
        for a, b, T in cells[::max(1, len(cells) // 6)]:  # closed form against quad
            assert abs(_mp_closed(a, b, T) - _mp_integral(a, b, T)) <= 1e-30 * T
        got = average_chord(curve, s)
        assert abs(got - mpmath.fsum(_mp_closed(*c) for c in cells)) <= \
            _verdict(curve, got, bound).err
        _, low = min_chord_start(curve, s)
        assert abs(low - _mp_min_chord(cells)) <= _verdict(curve, low, bound).err
    for k in ks:
        shift, best = best_uniform_shift(curve, k)
        for cover, bound in ((theorem2_partition(curve, k), gamma_upper_refined(k)),
                             (optimized_partition(curve, k), solve_sk(k)[1]),
                             (best, gamma_upper_simple(k))):
            report = cover_report(curve, cover, bound)
            exact = max(a.length_frac + poly.chord(a.t_start, a.length_frac) / poly.length
                        for a in cover.pieces)
            assert abs(report["gamma"] - exact) <= report["err"], (k, cover.construction)


def _kernel_cells():
    """(a, b, T) cells in R^2..R^5 that stress the closed form."""
    rng = np.random.default_rng(20)
    cells = [([0.02, 0.0, -0.0176 - 3e-10], [0.0, 0.0, -5e-10], 0.01)]
    for d in (2, 3, 4, 5):
        unit = rng.normal(size=d)
        unit /= np.linalg.norm(unit)
        cells += [(rng.normal(size=d) * 0.1, rng.normal(size=d), rng.uniform(1e-3, 0.3))
                  for _ in range(4)]
        for size in (1e-15, 1e-13, 1e-11, 1e-9):
            tilt = rng.normal(size=d) * size
            cells.append((rng.normal(size=d) * 0.05, tilt, 0.2))  # tiny |b|
            cells.append((0.03 * unit + 1e-9 * tilt, size * unit + 1e-3 * tilt, 0.01))
            cells.append((0.03 * unit, -size * unit + 1e-3 * tilt, 0.01))  # antiparallel
        cells += [(0.02 * unit, -0.1 * unit, 0.5),  # the chord passes through zero
                  (0.02 * unit + 1e-7 * rng.normal(size=d), -0.1 * unit, 0.5),
                  (0.02 * unit, 0.1 * unit, 0.5), (-0.02 * unit, -0.1 * unit, 0.5),
                  (rng.normal(size=d), np.zeros(d), 0.2), (np.zeros(d), unit, 0.2)]
    return cells


def test_norm_affine_integral_matches_mpmath():
    # the first cell has nearly parallel tangents (|b| = 5e-10), on which an
    # asinh antiderivative difference G(u1) - G(u0) cancels to 7e-7 relative
    for a, b, T in _kernel_cells():
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        got = _norm_affine_integral(*_vertex_form(a[None], b[None]), np.array([T]))[0]
        want = _mp_integral(a, b, T)
        assert abs(got - want) <= 1e-14 * want, (a, b, T)


@pytest.mark.parametrize("height", [4.2e-155, 1e-160, 1e-300])
def test_thin_triangle_matches_its_segment(height):
    # q^2 and the chord near its zero are subnormal here; the closed form
    # must neither overflow nor lose the collinear triangle's value
    flat = build_curve([[0, 0], [1, 0], [0.75, 0]], normalize=True)
    thin = build_curve([[0, 0], [1, height], [0.75, 0]], normalize=True)
    for s in (0.1, 0.3, 0.5):
        assert average_chord(thin, s) == pytest.approx(average_chord(flat, s), rel=1e-15)
        assert min_chord_start(thin, s)[1] <= average_chord(thin, s)


@pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-10, 1e-14, 2.0**-52])
def test_tiny_s_relabelling_invariance(s):
    # a reversed or cyclically relabelled polyline has the same average chord
    # to 1e-13 relative: the chord at a cell start comes from the vertices
    # nearest it, so it keeps its relative accuracy as s shrinks
    rng = np.random.default_rng(1014)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(4, 64)), 3))
        roll = int(rng.integers(1, len(pts)))
        curve, *others = [build_curve(p, normalize=True) for p in (
            pts, pts[::-1], np.roll(pts, roll, axis=0))]
        avg = average_chord(curve, s)
        for other in others:
            assert average_chord(other, s) == pytest.approx(avg, rel=1e-13, abs=0.0)


# on this curve the min chord over s is 0.0664 at s = 2^-52 but 0.5716 at
# 1e-17: below 2^-52 a cell of width s rounds away, so the chords refuse it
@pytest.mark.parametrize("s", [1e-17, 1e-200, 5e-324])
def test_s_below_2_to_the_minus_52_refused(s):
    curve = generate(CurveSpec("random_closed", {"n": 16, "seed": 7}, dim=3))
    for chord in (average_chord, min_chord_start, _both_chords):
        with pytest.raises(OutOfRange, match=r"at least 2\^-52, got "):
            chord(curve, s)


def test_s_of_2_to_the_minus_52_keeps_its_values():
    curve = generate(CurveSpec("random_closed", {"n": 16, "seed": 7}, dim=3))
    want = 2.2204460492503109e-16, 0.8792780941757148, 1.4744460707043594e-17
    assert average_chord(curve, 2.0**-52) == want[0]
    assert min_chord_start(curve, 2.0**-52) == want[1:]
    assert _both_chords(curve, 2.0**-52) == want


def _sampled_reference(curve, s):
    """The sampled rule cell by cell, read from the kernel's vertex form: m =
    64 p midpoints tau on a cell of width w, p = max(1, ceil(64 w)), each chord
    sqrt(A (tau + h)^2 + q2) weighted by w / m, summed once over all cells."""
    t0, t1, A, h, q2 = _cells(curve, s)
    pieces = []
    for p, q, a, c, r in zip(t0, t1, A, h, q2):
        m = 64 * max(1, math.ceil((q - p) * 64.0))
        tau = (np.arange(m) + 0.5) * ((q - p) / m)
        pieces.append(np.sqrt(a * (tau + c) ** 2 + r) * ((q - p) / m))
    return float(np.sum(np.concatenate(pieces)))


def test_sampled_midpoints_match_per_cell_loop(corpus, random4k):
    coarse = [corpus[name] for name in
              ("square", "rectangle_10", "random_d2", "random_d3", "random_d5")]
    coarse.append(generate(CurveSpec("regular_polygon", {"m": 5})))
    # on this 8-vertex polygon at s = 0.05 a cell's parts of width w/p do not
    # add up to w in floating point, so where the last midpoints go shows
    coarse.append(build_curve(np.random.default_rng(250).normal(size=(8, 2)),
                              normalize=True))
    cases = [(curve, s) for curve in coarse for s in (0.05, 0.1, 0.25, 0.5)]
    for curve, s in cases + [(random4k, 0.25)]:
        assert average_chord(curve, s, SAMPLED) == _sampled_reference(curve, s), s


@pytest.fixture(scope="module")
def random_d5_32k():
    """A random polyline in R^5 over 2^15 cells: several blocks of _cells."""
    return generate(CurveSpec("random_closed", {"n": 20000, "seed": 5}, dim=5, normalize=True))


@pytest.mark.parametrize("name, s", [("random_d5_32k", 0.1), ("random_d5_32k", 0.25),
                                     ("ellipse65k", 0.1)])
def test_sampled_rule_across_windows(name, s, request):
    # above one window of _windows the sampled rule sums each window's
    # midpoints, then the window sums: only its last bits may move from the
    # one sum over every cell
    curve = request.getfixturevalue(name)
    assert curve.n > 8192
    assert average_chord(curve, s, SAMPLED) == pytest.approx(
        _sampled_reference(curve, s), rel=1e-15, abs=0.0)


@pytest.fixture(scope="module")
def ellipse65k():
    """The 65,536-vertex unit-length 2:1 ellipse: eight windows of cells."""
    return generate(CurveSpec("ellipse", {"a": 2.0, "b": 1.0}, resolution=65536,
                              normalize=True))


@pytest.mark.parametrize("s", [1e-12, 0.1, 1 / 3, 0.5])
@pytest.mark.parametrize("name", ["ellipse65k", "random_d5_32k"])
def test_windows_cut_the_whole_sort(name, s, request):
    # the cells of every window, in order, are those of one sort of all
    # the breakpoints: the vertex parameters and np.mod(u - s, 1)
    curve = request.getfixturevalue(name)
    u = curve.params
    brk = np.unique(np.concatenate((u[:-1], np.mod(u[:-1] - s, 1.0), [0.0, 1.0])))
    t0, t1 = _cells(curve, s)[:2]
    assert t0.tobytes() == brk[:-1].tobytes()
    assert t1.tobytes() == brk[1:].tobytes()


def _least_chord_whole(t0, t1, A, h, q2):
    """min_chord_start's reduction over every cell at once."""
    tau = np.clip(-h, 0.0, t1 - t0)
    chords = np.sqrt(_sq(A, h, q2, tau))
    i = int(np.argmax(chords <= chords.min() * (1.0 + MIN_TIE_RTOL)))
    return float(t0[i] + tau[i]) % 1.0, float(chords[i])


@pytest.fixture(scope="module")
def lissajous65k():
    """A 65,536-vertex Lissajous curve in R^3: one least chord, far from any tie."""
    return generate(CurveSpec("lissajous3d", {"freq_a": 3, "freq_b": 4}, resolution=65536,
                              normalize=True))


@pytest.mark.parametrize("s", [1e-6, 0.1, 1 / 3, 1 / 3 + 2 / (8 * 3**4), 0.5])
@pytest.mark.parametrize("name", ["ellipse262k", "random_d5_32k", "lissajous65k"])
def test_blocked_kernel_keeps_its_bits(name, s, request):
    # _cells forms the vertex form block by block, and the exact average and
    # the minimum chord read it block by block: every bit is the whole-array
    # one.  The minimum chord's screen skips only blocks that cannot hold the
    # least chord or a tie, and each cell it walks is the full walk's float
    curve = request.getfixturevalue(name)
    t0, t1, *form = cells = _cells(curve, s)
    assert len(t0) > 2**15
    whole = _vertex_form(*_affine_at(curve, s, t0, t1, curve.params))
    assert [x.tobytes() for x in form] == [x.tobytes() for x in whole]
    average = float(np.sum(_norm_affine_integral(*whole, t1 - t0)))
    least = _least_chord_whole(t0, t1, *whole)
    assert average_chord(curve, s) == average
    assert min_chord_start(curve, s) == least
    assert _both_chords(curve, s) == (average, *least)


@pytest.mark.parametrize("s", [1e-6, 1 / 3, 0.5])
def test_min_chord_tie_across_blocks(s):
    # on a regular 2^16-gon the minimum ties in every period, over every block
    # of cells: the smallest t, in the first period, still wins
    m = 2**16
    curve = generate(CurveSpec("regular_polygon", {"m": m}, normalize=True))
    t0, t1, A, h, q2 = cells = _cells(curve, s)
    chords = np.sqrt(_sq(A, h, q2, np.clip(-h, 0.0, t1 - t0)))
    tied = np.flatnonzero(chords <= chords.min() * (1.0 + MIN_TIE_RTOL))
    assert tied[-1] - tied[0] > len(t0) // 2
    got = min_chord_start(curve, s)
    assert got == _least_chord_whole(*cells)
    assert got[0] < 1.0 / m


def test_golden_section_quadratic():
    # x resolution is limited to ~sqrt(eps) by the flat quadratic
    x, y = golden_section(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_golden_section_batched():
    # independent brackets, minima inside, at either end and in a
    # zero-width bracket, refined together to width 1e-12
    lo = np.array([0.0, 1.0, -2.0, 0.5])
    hi = np.array([1.0, 3.0, -1.0, 0.5])
    target = np.array([0.3, 5.0, -5.0, 0.5])
    x, y = golden_section(lambda t: np.abs(t - target), lo, hi)
    assert x.shape == y.shape == (4,)
    assert np.allclose(x, np.clip(target, lo, hi), atol=1e-12)
    assert np.allclose(y, np.abs(x - target), atol=0.0)


@pytest.mark.parametrize("s", [1 / 3, 0.5])
def test_every_edge_ties_across_windows(s):
    # on a regular (3 2^13)-gon at s = 1/3 and 1/2 the least chord of every
    # edge's cell ties (the slivers between them, 1e-17 wide, do not), in
    # every window of cells: the rule, applied to each window's cells that
    # may tie, picks the cell the whole-array rule picks
    m = 3 * 2**13
    curve = generate(CurveSpec("regular_polygon", {"m": m}, normalize=True))
    t0, t1, A, h, q2 = _cells(curve, s)
    tau = np.clip(-h, 0.0, t1 - t0)
    chords = np.sqrt(_sq(A, h, q2, tau))
    tied = chords <= chords.min() * (1.0 + MIN_TIE_RTOL)
    assert tied.sum() == m and len(t0) > 2 * _BLOCK
    assert all(tied[a:a + _BLOCK].sum() > _BLOCK // 3 for a in range(0, len(t0), _BLOCK))
    i = int(np.argmax(tied))
    want = (float(t0[i] + tau[i]) % 1.0, float(chords[i]))
    assert min_chord_start(curve, s) == want
    assert _both_chords(curve, s)[1:] == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=polylines(), s=st.floats(2.0**-52, 0.5))  # a smaller s > 0 is refused
def test_screened_min_chord_on_polylines(case, s):
    # 4 to 64 vertices: one block, where the screen is skipped, or two
    pts, rot, move = case
    try:
        curve = build_curve(pts @ rot.T + move, normalize=True)
    except DegenerateCurve:
        assume(False)
    assert min_chord_start(curve, s) == _least_chord_whole(*_cells(curve, s))


def _lopsided(shift):
    """A smooth 2^15-vertex curve (four windows of _windows) with no symmetry,
    so one least chord at s = 0.1, its vertices rolled by ``shift``."""
    theta = 2 * np.pi * np.arange(2**15) / 2**15
    pts = np.stack((np.cos(theta) + 0.3 * np.cos(2 * theta + 0.7),
                    np.sin(theta) + 0.2 * np.sin(3 * theta + 0.4)), axis=1)
    return build_curve(np.roll(pts, -shift, axis=0), normalize=True)


@pytest.mark.parametrize("where", ["last block", "straddles 0"])
def test_screened_min_chord_at_the_seam(where):
    # rolled so that the least chord lies just below t = 1, in the block
    # that ends at 1.0 (where point_at walks the last edge out to L), or
    # just past t = 0, its basin kept in the first and the last block
    curve = _lopsided(0)
    near = int(np.searchsorted(curve.params, min_chord_start(curve, 0.1)[0]))
    curve = _lopsided(near + 5 if where == "last block" else near - 1)
    got = min_chord_start(curve, 0.1)
    assert got == _least_chord_whole(*_cells(curve, 0.1))
    first, stop = chords._screen(curve, 0.1)
    assert stop[-1] == curve.n and (stop - first).sum() < curve.n // 4
    if where == "last block":
        assert curve.params[curve.n - _SCREEN] < got[0] < curve.params[curve.n - 1]
    else:
        assert got[0] < curve.params[1] and first[0] == 0


def _cells_read(curve, s, monkeypatch):
    """The cells min_chord_start reads from _windows, and its point_at calls."""
    read, points = [], []
    windows, point_at = chords._windows, chords.point_at

    def spy(*args):
        for cells in windows(*args):
            read.append(len(cells[0]))
            yield cells
    monkeypatch.setattr(chords, "_windows", spy)
    monkeypatch.setattr(chords, "point_at", lambda *args: points.append(1) or point_at(*args))
    min_chord_start(curve, s)
    monkeypatch.undo()
    return sum(read), len(points)


def test_screen_prunes_a_smooth_curve(ellipse262k, monkeypatch):
    s = 1 / 7 + 6 / (8 * 7**4)
    read, _ = _cells_read(ellipse262k, s, monkeypatch)
    assert 0 < read < 0.05 * len(_cells(ellipse262k, s)[0])


def test_screen_keeps_every_cell_of_a_regular_polygon(monkeypatch):
    # every start ties on a regular polygon, so no block can be dropped
    curve = generate(CurveSpec("regular_polygon", {"m": 4096}, normalize=True))
    for s in (0.1, 1 / 3, 0.5):
        assert _cells_read(curve, s, monkeypatch)[0] == len(_cells(curve, s)[0])


def test_screen_skipped_for_one_block(monkeypatch):
    # up to _SCREEN vertices form one block: no point chords are taken;
    # above, one point_at call takes them all
    square = build_curve([(0, 0), (1, 0), (1, 1), (0, 1)], normalize=True)
    assert _cells_read(square, 0.3, monkeypatch) == (len(_cells(square, 0.3)[0]), 0)
    for n, calls in ((_SCREEN, 0), (_SCREEN + 1, 1)):
        curve = generate(CurveSpec("regular_polygon", {"m": n}, normalize=True))
        assert _cells_read(curve, 0.3, monkeypatch)[1] == calls
