import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvecover import (Arc, build_curve, chord_length, cover_piece_length,
                        point_at)
from curvecover.curve import UNIT_LENGTH_TOL
from curvecover.errors import DegenerateCurve, DimensionMismatch, OutOfRange

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class TestBuildCurve:
    def test_normalized_square(self):
        c = build_curve(SQUARE, normalize=True)
        assert c.length == pytest.approx(1.0, abs=1e-12)
        assert c.input_length == 4.0
        assert np.allclose(c.vertices[1] - c.vertices[0], [0.25, 0.0])

    def test_triangle_length(self):
        c = build_curve([(0, 0), (1, 0), (0, 1)])
        assert c.length == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)
        assert c.input_length == c.length

    # below about 1e-154 and above 1e154 a sum of squares under- or overflows
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-165, 1e-160, 1e-13,
                                       1.0, 1e6, 1e160, 1e200, 1e300])
    def test_merge_tolerance_is_relative(self, scale):
        c = build_curve(np.array([(0, 0), (1, 0), (0, 1)]) * scale)
        assert c.n == 3
        assert c.length == pytest.approx((2.0 + math.sqrt(2.0)) * scale,
                                         rel=2.2e-16, abs=0.0)
        near = build_curve(np.array([(0, 0), (1, 0), (1, 1e-13), (0, 1)]) * scale)
        assert near.n == 4
        assert near.length == pytest.approx((2.0 + math.sqrt(2.0)) * scale,
                                            rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("power", [-1000, -520, -60, 60, 520, 1000])
    def test_power_of_two_scale_is_exact(self, power):
        pts = np.array([(0.1, 0.0), (1.3, 0.2), (0.9, 1.7), (-0.4, 0.6)])
        raw, scaled = build_curve(pts), build_curve(pts * 2.0**power)
        assert scaled.cum_lengths.tobytes() == (raw.cum_lengths * 2.0**power).tobytes()
        assert scaled.length == raw.length * 2.0**power
        want = build_curve(pts, normalize=True)
        got = build_curve(pts * 2.0**power, normalize=True)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.cum_lengths.tobytes() == want.cum_lengths.tobytes()

    def test_duplicate_vertex_dropped(self):
        c = build_curve([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
        assert c.n == 4

    def test_repeated_first_vertex_dropped(self):
        c = build_curve(SQUARE + [(0.0, 0.0)])
        assert c.n == 4

    @pytest.mark.parametrize("pts", [
        [(0.0, 1.0, -0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)],
        [(1.0, 0.0, 0.0), (0.0, 1.0, -0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, -0.0), (0.0, 0.0, 1.0)],
    ])
    def test_first_of_equal_vertices_kept(self, pts):
        # -0.0 equals 0.0: the first of the two keeps its bits
        c = build_curve(pts)
        want = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        assert c.vertices.tobytes() == np.array(want).tobytes()

    # over 2^1 (the largest coordinate is 1), a square underflows below about
    # 2^-537.5 = 3.2e-162: such an edge measures 0 and its end vertex goes
    @pytest.mark.parametrize("h, n", [(1e-163, 3), (3e-162, 3), (7e-162, 4), (1e-160, 4)])
    def test_underflowing_edge_drops_its_end_vertex(self, h, n):
        pts = [[0.0, 0.0], [h, 0.0], [1.0, 0.0], [0.0, 1.0]]
        c = build_curve(pts)
        assert c.vertices.tolist() == [p for p in pts if n == 4 or p[0] != h]
        assert np.all(np.isfinite(c._tangents))
        assert c.length == pytest.approx(2.0 + math.sqrt(2.0), rel=2.2e-16, abs=0.0)

    def test_kept_vertices_measured_again(self):
        # the edge (0, 0) -> (2.5e-162, 0) measures 0, the next one 4e-162 does
        # not; measured again, (0, 0) -> (-1.5e-162, 0) is 0 and that vertex goes too
        c = build_curve([(0.0, 0.0), (2.5e-162, 0.0), (-1.5e-162, 0.0), (1.0, 0.0),
                         (0.0, 1.0)])
        assert c.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert np.all(c._tangents.any(axis=1))

    def test_edge_lengths_match_cum(self):
        c = build_curve([(0, 0), (3, 0), (3, 4), (1, 5)])
        diffs = np.diff(c.cum_lengths)
        rolled = np.roll(c.vertices, -1, axis=0) - c.vertices
        assert np.allclose(diffs, np.linalg.norm(rolled, axis=1), atol=1e-12 * c.n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_curve([(0, 0), (1, 0, 0), (1, 1)])
        with pytest.raises(DimensionMismatch):
            build_curve([(0.0,), (1.0,), (2.0,)])
        with pytest.raises(DimensionMismatch):
            build_curve([0.0, 1.0, 2.0])

    def test_degenerate(self):
        with pytest.raises(DegenerateCurve):
            build_curve([(0, 0), (1, 0)])
        with pytest.raises(DegenerateCurve, match="need at least 3 distinct vertices"):
            build_curve([(0, 0), (0, 0), (0, 0), (0, 0)])
        with pytest.raises(DegenerateCurve):
            build_curve([])
        with pytest.raises(DegenerateCurve):
            build_curve(np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        pts = SQUARE[:2] + [(bad, 1.0)] + SQUARE[3:]
        with pytest.raises(DegenerateCurve, match="non-finite"):
            build_curve(pts)

    def test_overflowing_length_rejected(self):
        # every coordinate is finite, but the total length is not
        with pytest.raises(DegenerateCurve, match="total length is not finite"):
            build_curve([[0, 0], [1e308, 0], [0, 1e308]])

    def test_normalizing_a_unit_curve_keeps_it(self, corpus):
        for name, c in corpus.items():
            again = build_curve(c.vertices, normalize=True)
            assert again.vertices.tobytes() == c.vertices.tobytes(), name
            assert again.input_length == again.length, name

    def test_input_copied(self):
        pts = np.array(SQUARE)
        c = build_curve(pts)
        pts[0, 0] = 5.0
        assert c.vertices[0, 0] == 0.0

    # bool, str, bytes and complex arrays are refused whole, naming the dtype
    @pytest.mark.parametrize("pts, dtype", [
        ([(True, False), (True, True), (False, True)], "bool"),
        ([(False, False), (True, False), (False, True), (True, True)], "bool"),
        ([("0", "0"), ("1", "0"), ("0", "1")], "<U"),
        ([(0, 0), ("a", 0), (0, 1)], "<U"),
        ([(b"0", b"0"), (b"1", b"0"), (b"0", b"1")], "|S"),
        ([(0, 0), (1, 0), (0, 1j)], "complex"),
        (np.array(SQUARE).astype("m8[s]"), "timedelta64"),
    ])
    def test_non_real_dtype_refused(self, pts, dtype):
        with pytest.raises(DegenerateCurve,
                           match=re.escape(f"coordinates must be real numbers, got dtype {dtype}")):
            build_curve(pts)

    # an object array (a Decimal forces one) is read element by element
    @pytest.mark.parametrize("bad", [10**400, -10**400, Fraction(10**400), None, "1", b"1",
                                     True, np.bool_(True), 1j, Decimal("sNaN")],
                             ids=["int-1e400", "int-neg-1e400", "fraction-1e400", "none",
                                  "str", "bytes", "bool", "numpy-bool", "complex", "snan"])
    def test_non_real_element_refused(self, bad):
        pts = [(Decimal(0), 0), (1, 0), (0, bad)]
        with pytest.raises(DegenerateCurve, match="coordinates must be real numbers that fit "
                                                  "a float, got " + re.escape(repr(bad)[:20])):
            build_curve(pts)

    # np.array reads a bool among ints or floats as a number, so list input
    # is read element by element for bools; (True, 1) made a triangle of 3.414
    @pytest.mark.parametrize("pts, bad", [
        ([(0, 0), (1, 0), (True, 1)], "True"),
        ([(0, 0), (1, False), (0, 1)], "False"),
        ([(0.0, 0.0), (1.0, 0.0), (np.True_, 1.0)], repr(np.True_)),
        ((np.zeros(2), np.array([1.0, 0.0]), np.array([False, True])), "False"),
    ])
    def test_bool_among_numbers_refused(self, pts, bad):
        with pytest.raises(DegenerateCurve, match="coordinates must be real numbers that fit "
                                                  "a float, got " + re.escape(bad) + "$"):
            build_curve(pts)

    @pytest.mark.parametrize("pts", [
        [(0, 0), (3, 0), (3, 4), (1, 5)],
        np.array([(0, 0), (3, 0), (3, 4), (1, 5)], dtype=np.int64),
        np.array([(0.1, 0), (3.3, 0.2), (2.9, 4.1), (1, 5)], dtype=np.float32),
        [(Decimal("0.1"), 0), (Decimal("3.3"), Decimal("0.2")), (2.9, 4.1), (1, 5)],
        [(Fraction(1, 3), 0), (3, Fraction(1, 7)), (Fraction(29, 10), 4.1), (1, 5)],
        [(0, 0), (2**70 + 1, 0), (2**70, 2**64 + 3), (0, 2**63 + 5)],
    ])
    def test_real_coordinates_keep_their_bits(self, pts):
        want = build_curve([[float(x) for x in row] for row in pts])
        got = build_curve(pts)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.cum_lengths.tobytes() == want.cum_lengths.tobytes()


def _over_power_of_two(pts):
    """pts / 2^e and 2^e, for the power of two 2^e above max |coordinate|."""
    e = math.frexp(np.max(np.abs(pts)))[1]
    return np.ldexp(pts, -e), np.ldexp(1.0, e)


def _sequential_build(vertices, normalize):
    """Reference: one vertex at a time, drop each vertex whose edge from the
    one before measures 0, and the last one kept if the closing edge does,
    until every edge of the kept vertices measures > 0; then the arc-length
    arithmetic.  Lengths are measured on the vertices over a power of two, so
    no square under- or overflows; normalizing divides only a length more
    than UNIT_LENGTH_TOL from 1.  None if degenerate."""
    pts = np.asarray(vertices, dtype=float)
    unit = _over_power_of_two(pts)[0]
    keep, kept = None, list(range(len(pts)))
    while kept != keep:
        keep, kept = kept, kept[:1]
        for i, j in zip(keep, keep[1:]):
            if np.linalg.norm(unit[j] - unit[i]) > 0.0:
                kept.append(j)
        if keep and np.linalg.norm(unit[keep[-1]] - unit[keep[0]]) == 0.0:
            kept.pop()
    arr = pts[keep]
    if arr.shape[0] < 3:
        return None
    unit, scale = _over_power_of_two(arr)
    seg = np.linalg.norm(np.roll(unit, -1, axis=0) - unit, axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        return None
    if normalize and abs(total * scale - 1.0) > UNIT_LENGTH_TOL:
        arr, seg = arr / (total * scale), seg / total
        total, scale = float(seg.sum()), 1.0
    cum = np.concatenate(([0.0], np.cumsum(seg))) * scale
    return arr, cum, cum / (total * scale)


@st.composite
def polylines_with_near_duplicates(draw):
    """Random polyline with clusters of steps of 0 (an exact duplicate) or
    0.3 to 2 times 1e-12 of the diagonal of the base vertices after some
    vertices (random signs give zig-zags) and an optional closing vertex at or
    near the first, all scaled by 1 or 1e-13."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 10))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    base = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))
    tol = 1e-12 * np.hypot.reduce(base.max(axis=0) - base.min(axis=0))
    steps = [0.0] + [f * tol for f in (0.3, 0.6, 1.0, 2.0)]
    out = []
    for p in base:
        out.append(p)
        for _ in range(draw(st.integers(0, 4))):
            q = out[-1].copy()
            q[draw(st.integers(0, d - 1))] += (draw(st.sampled_from([1.0, -1.0]))
                                               * draw(st.sampled_from(steps)))
            out.append(q)
    closing = draw(st.sampled_from([None] + steps))
    if closing is not None:
        q = base[0].copy()
        q[-1] += closing
        out.append(q)
    return np.array(out) * draw(st.sampled_from([1.0, 1e-13]))


@settings(max_examples=200, deadline=None)
@given(pts=polylines_with_near_duplicates(), normalize=st.booleans())
# a vertex 2^-45 from the one holding the only coordinate at 2^0: both stay
@example(pts=np.array([(0, 0), (0.5, 0.9), (1 - 2**-45, 0), (1, 0)]), normalize=False)
@example(pts=np.array([(0, 0), (0.5, 0.9), (1 - 2**-45, 0), (1, 0)]), normalize=True)
# equal vertices of different bits: the first of the run, -0.0, stays
@example(pts=np.array([(1, 0, 0), (0, 1, -0.0), (0, 1, 0.0), (0, 0, 1)]), normalize=False)
# length 1 + 2^-40, within UNIT_LENGTH_TOL of 1: normalizing leaves it as built
@example(pts=np.array(SQUARE) * 0.25 * (1 + 2**-40), normalize=True)
def test_merge_matches_sequential_reference(pts, normalize):
    expect = _sequential_build(pts, normalize)
    if expect is None:
        with pytest.raises(DegenerateCurve):
            build_curve(pts, normalize=normalize)
        return
    c = build_curve(pts, normalize=normalize)
    for got, want in zip((c.vertices, c.cum_lengths, c.params), expect):
        assert got.tobytes() == want.tobytes()


class TestPointAt:
    def test_square_corners(self):
        c = build_curve(SQUARE, normalize=True)
        assert np.allclose(point_at(c, 0.5), [0.25, 0.25])
        assert np.allclose(point_at(c, 0.0), [0.0, 0.0])

    def test_periodicity(self):
        c = build_curve(SQUARE, normalize=True)
        assert np.array_equal(point_at(c, 1.0), point_at(c, 0.0))
        for t in (0.0, 0.125, 0.375, 0.875):
            assert np.array_equal(point_at(c, t + 1.0), point_at(c, t))

    def test_midside(self):
        c = build_curve(SQUARE, normalize=True)
        assert np.allclose(point_at(c, 0.125), [0.125, 0.0])

    def test_array_input(self):
        c = build_curve(SQUARE, normalize=True)
        pts = point_at(c, np.array([0.0, 0.25, 0.5]))
        assert pts.shape == (3, 2)
        assert np.allclose(pts[1], [0.25, 0.0])


class TestChordLength:
    def test_zero_shift(self, circle):
        assert chord_length(circle, 0.123, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_circle_diameter(self, circle):
        assert chord_length(circle, 0.3, 0.5) == pytest.approx(1 / math.pi, abs=1e-6)

    def test_square_diagonal(self, square):
        assert chord_length(square, 0.0, 0.5) == pytest.approx(
            math.sqrt(2) / 4, abs=1e-12)

    def test_symmetry_in_complement(self, square):
        for t, s in [(0.1, 0.2), (0.3, 0.45), (0.77, 0.11)]:
            a = chord_length(square, t, s)
            b = chord_length(square, t + s, 1.0 - s)
            assert a == pytest.approx(b, abs=1e-12)


class TestCoverPieceLength:
    def test_square_side(self, square):
        assert cover_piece_length(square, Arc(0.0, 0.25)) == pytest.approx(0.5)

    def test_circle_quarter(self, circle):
        expect = 0.25 + math.sin(math.pi / 4) / math.pi
        assert cover_piece_length(circle, Arc(0.1, 0.25)) == pytest.approx(
            expect, abs=1e-6)

    def test_full_curve_no_chord(self, circle):
        assert cover_piece_length(circle, Arc(0.0, 1.0)) == pytest.approx(
            circle.length, abs=1e-12)

    def test_arc_validation(self):
        with pytest.raises(OutOfRange):
            Arc(1.0, 0.5)
        with pytest.raises(OutOfRange):
            Arc(0.0, 0.0)
        with pytest.raises(OutOfRange):
            Arc(-0.1, 0.5)
        with pytest.raises(OutOfRange, match="t_start must be a finite number, got nan"):
            Arc(math.nan, 0.5)
        with pytest.raises(OutOfRange, match="length_frac must be a finite number, got inf"):
            Arc(0.1, math.inf)
        with pytest.raises(OutOfRange, match="t_start does not fit a float"):
            Arc(10**400, 0.5)

    @pytest.mark.parametrize("t, frac", [
        (0.0, True), (True, 0.5), (np.bool_(False), 0.5), (0.1, np.bool_(True)),
        (0.1, "0.5"), ("0", 0.5), (0.1, 1j), (None, 0.5), (0.1, Decimal("0.5"))])
    def test_arc_refuses_non_reals(self, t, frac):
        with pytest.raises(OutOfRange, match="must be a real number, got "):
            Arc(t, frac)

    def test_arc_takes_reals(self, circle):
        arc = Arc(Fraction(1, 10), np.float32(0.25))
        assert cover_piece_length(circle, arc) == cover_piece_length(
            circle, Arc(0.1, float(np.float32(0.25))))


@settings(max_examples=200, deadline=None)
@given(t=st.floats(0, 1, exclude_max=True), s=st.floats(0, 1))
def test_chord_below_shorter_arc(t, s):
    # the chord never exceeds the shorter of the two arcs it spans
    c = build_curve(SQUARE, normalize=True)
    assert chord_length(c, t, s) <= min(s, 1.0 - s) * c.length + 1e-12


@settings(max_examples=100, deadline=None)
@given(t=st.floats(0, 1, exclude_max=True),
       frac=st.floats(0.01, 0.5))
def test_piece_at_most_twice_arc(t, frac):
    c = build_curve([(0, 0), (2, 1), (3, 3), (1, 4), (-1, 2)], normalize=True)
    assert cover_piece_length(c, Arc(t, frac)) <= 2.0 * frac * c.length + 1e-12


def test_chord_property_on_corpus(corpus):
    rng = np.random.default_rng(0)
    for curve in corpus.values():
        ts = rng.random(64)
        ss = rng.random(64)
        lhs = np.asarray(chord_length(curve, ts, ss))
        rhs = np.minimum(ss, 1.0 - ss) * curve.length
        assert np.all(lhs <= rhs + 1e-9)
