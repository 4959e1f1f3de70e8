import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecover import (Arc, build_curve, chord_length, cover_piece_length,
                        point_at)
from curvecover.curve import MERGE_TOL
from curvecover.errors import DegenerateCurve, DimensionMismatch, OutOfRange

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class TestBuildCurve:
    def test_normalized_square(self):
        c = build_curve(SQUARE, normalize=True)
        assert c.length == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(c.vertices[1] - c.vertices[0], [0.25, 0.0])

    def test_triangle_length(self):
        c = build_curve([(0, 0), (1, 0), (0, 1)])
        assert c.length == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_duplicate_vertex_dropped(self):
        c = build_curve([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
        assert c.n == 4

    def test_repeated_first_vertex_dropped(self):
        c = build_curve(SQUARE + [(0.0, 0.0)])
        assert c.n == 4

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
        with pytest.raises(DegenerateCurve):
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

    def test_input_copied(self):
        pts = np.array(SQUARE)
        c = build_curve(pts)
        pts[0, 0] = 5.0
        assert c.vertices[0, 0] == 0.0


def _sequential_build(vertices, normalize):
    """Reference: merge by comparing each vertex with the last one kept,
    one vertex at a time, then the arc-length arithmetic.  None if
    degenerate."""
    pts = np.asarray(vertices, dtype=float)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) >= MERGE_TOL:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(pts[keep[-1]] - pts[0]) < MERGE_TOL:
        keep.pop()
    arr = pts[keep]
    if arr.shape[0] < 3:
        return None
    edges = np.roll(arr, -1, axis=0) - arr
    seg = np.linalg.norm(edges, axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        return None
    if normalize:
        arr, seg = arr / total, seg / total
        total = float(seg.sum())
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return arr, cum, cum / total


STEPS = [f * MERGE_TOL for f in (0.3, 0.6, 1.0, 2.0)]


@st.composite
def polylines_with_near_duplicates(draw):
    """Random polyline with clusters of sub- and near-MERGE_TOL steps after
    some vertices (random signs give zig-zags) and an optional closing
    vertex at or near the first."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1e-9, 1.0, 1e3]))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    base = scale * np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                          min_size=n, max_size=n)))
    out = []
    for p in base:
        out.append(p)
        for _ in range(draw(st.integers(0, 4))):
            q = out[-1].copy()
            q[draw(st.integers(0, d - 1))] += (draw(st.sampled_from([1.0, -1.0]))
                                               * draw(st.sampled_from(STEPS)))
            out.append(q)
    closing = draw(st.sampled_from([None, 0.0] + STEPS))
    if closing is not None:
        q = base[0].copy()
        q[-1] += closing
        out.append(q)
    return np.array(out)


@settings(max_examples=200, deadline=None)
@given(pts=polylines_with_near_duplicates(), normalize=st.booleans())
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
