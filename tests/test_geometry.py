"""Segments, their piecewise decomposition, and the geodesic metric."""

import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxminconv.core import UNIT, PreconditionError
from maxminconv.geometry import (
    Point,
    RadicalSum,
    SegmentDecomposition,
    geodesic_distance,
    point,
    segment_contains,
    segment_decompose,
    segment_point,
)
from maxminconv.oracle import GridSpec, brute_segment

from support import comparable_pair, random_point

X = point("0.2", "0.5")
Y = point("0.6", "0.9")


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_point_basics():
    p = point("0.2", "0.5")
    assert p.dim == 2
    assert p[0] == Fraction(1, 5)
    assert p.join(point("0.4", "0.1")) == point("0.4", "0.5")
    assert p.meet(point("0.4", "0.1")) == point("0.2", "0.1")


def test_point_coerces_what_is_not_a_fraction_tuple():
    """Strings and ints are converted, floats refused; Fractions kept as given."""
    half = Fraction(1, 2)
    assert point("1/2", 1).coords == (half, Fraction(1))
    assert Point(("1/2",)).coords == (half,)
    assert Point([half, "0.5"]).coords == (half, half)
    assert type(Point([half]).coords) is tuple
    coords = (half, Fraction(3, 4))
    assert Point(coords).coords is coords
    for bad in (point, lambda *c: Point(c)):
        with pytest.raises(TypeError):
            bad("1/2", 0.5)
    with pytest.raises(TypeError):
        Point((half, 0.5))


def test_point_partial_order():
    assert X.leq(Y)
    assert not Y.leq(X)
    a, b = point("0.7", "0.2"), point("0.3", "0.6")
    assert not a.leq(b) and not b.leq(a)


# ---------------------------------------------------------------------------
# parametric evaluation
# ---------------------------------------------------------------------------


def test_segment_point_midrange():
    assert segment_point(X, Y, Fraction(55, 100)) == point("0.55", "0.55")


def test_segment_point_flanks():
    # below every coordinate of x the point parks at x, above every
    # coordinate of y it parks at y
    assert segment_point(X, Y, Fraction(1, 10)) == X
    assert segment_point(X, Y, Fraction(95, 100)) == Y


def test_segment_point_requires_comparable():
    with pytest.raises(PreconditionError):
        segment_point(point("0.7", "0.2"), point("0.3", "0.6"), Fraction(1, 2))


def test_segment_point_matches_componentwise_formula(rng):
    for _ in range(200):
        lo, hi = comparable_pair(rng, rng.randrange(1, 5))
        beta = Fraction(rng.randrange(0, 9), 8)
        z = segment_point(lo, hi, beta)
        expected = tuple(max(lo[i], min(beta, hi[i])) for i in range(lo.dim))
        assert z.coords == expected


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_comparable_example():
    dec = segment_decompose(X, Y)
    assert dec.mode == "comparable"
    assert len(dec.elementary()) == 3
    assert dec.corner_chain() == (
        X,
        point("0.5", "0.5"),
        point("0.6", "0.6"),
        Y,
    )


def test_decompose_degenerate():
    dec = segment_decompose(X, X)
    assert dec.corner_chain() == (X,)
    assert dec.elementary() == ()


def test_decompose_incomparable_example():
    x, y = point("0.7", "0.2"), point("0.3", "0.6")
    dec = segment_decompose(x, y)
    assert dec.mode == "concatenated"
    assert dec.corner == point("0.7", "0.6")
    assert dec.corner_chain() == (x, point("0.7", "0.6"), y)
    assert len(dec.elementary()) == 2


def test_decompose_breakpoints_are_endpoint_coordinates():
    dec = segment_decompose(X, Y)
    assert [p.beta_lo for p in dec.pieces[1:]] == [p.beta_hi for p in dec.pieces[:-1]]
    assert [p.beta_hi for p in dec.pieces[:-1]] == [
        Fraction(1, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(9, 10),
    ]
    assert (dec.pieces[0].beta_lo, dec.pieces[-1].beta_hi) == (UNIT.lo, UNIT.hi)


def test_decomposition_keeps_only_endpoints_pieces_and_corner():
    x, y = point("0.7", "0.2"), point("0.3", "0.6")
    assert [f.name for f in fields(SegmentDecomposition)] == ["x", "y", "pieces", "corner"]
    assert segment_decompose(X, Y).corner is None
    assert segment_decompose(Y, X).mode == "comparable"
    assert segment_decompose(x, y).mode == "concatenated"


def _comparable_halves(x, y):
    """(lower, upper) of each comparable half of [x, y], in piece order."""
    if x.leq(y):
        return [(x, y)]
    if y.leq(x):
        return [(y, x)]
    return [(x, x.join(y)), (y, x.join(y))]


@st.composite
def endpoint_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    coords = st.fractions(min_value=0, max_value=1, max_denominator=4)
    return tuple(Point(tuple(draw(coords) for _ in range(d))) for _ in range(2))


@given(endpoint_pairs())
@example((point("1/2", "1/4"), point("1/4", "1/2")))
@example((point("0", "1/2", "1/2"), point("1", "1/2", "3/4")))
@settings(max_examples=200, deadline=None)
def test_piece_sets_match_the_midpoint_rule(pair):
    """Each piece's M/L/H sets are those of its interval's midpoint.

    At the midpoint, coordinate i moves when lower_i <= mid <= upper_i,
    is low when mid < lower_i and high when mid > upper_i.  Coarse
    coordinates repeat, so degenerate pieces (beta_lo == beta_hi) and
    incomparable endpoints are both frequent; the two explicit examples
    have both (incomparable) and repeated cuts on a comparable pair.
    """
    x, y = pair
    d = x.dim
    dec = segment_decompose(x, y)
    halves = _comparable_halves(x, y)
    n = 2 * d + 1
    assert len(dec.pieces) == n * len(halves)
    for h, (lower, upper) in enumerate(halves):
        for piece in dec.pieces[h * n:(h + 1) * n]:
            mid = (piece.beta_lo + piece.beta_hi) / 2
            assert piece.m_indices == {i for i in range(d) if lower[i] <= mid <= upper[i]}
            assert piece.l_indices == {i for i in range(d) if mid < lower[i]}
            assert piece.h_indices == {i for i in range(d) if mid > upper[i]}


@st.composite
def grid_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    q = draw(st.sampled_from((4, 8)))
    coords = st.integers(min_value=0, max_value=q).map(lambda k: Fraction(k, q))
    return tuple(Point(tuple(draw(coords) for _ in range(d))) for _ in range(2))


@given(grid_pairs())
@example((point("1/4", "1/2", "1/2"), point("3/4", "1/2", "1")))
@example((point("7/8", "1/2", "3/8"), point("1/8", "1/2", "3/8")))
@example((point("1/2", "1/4", "0", "1"), point("1/4", "1/2", "0", "1")))
@settings(max_examples=200, deadline=None)
def test_piece_ends_match_segment_point(pair):
    """Every piece end is ``segment_point`` of its half at the piece's cut.

    A half traversed from lower to upper starts at beta_lo and ends at
    beta_hi; a half traversed backwards (reversed endpoints, or the
    second half of an incomparable pair) starts at beta_hi.  The pieces
    chain from x to y: each starts where the one before it ends.  The
    examples are comparable, reversed and incomparable pairs with
    repeated coordinates.
    """
    x, y = pair
    dec = segment_decompose(x, y)
    halves = _comparable_halves(x, y)
    n = 2 * x.dim + 1
    for h, (lower, upper) in enumerate(halves):
        forward = h == 0 and (len(halves) == 2 or x.leq(y))
        for piece in dec.pieces[h * n:(h + 1) * n]:
            at_lo = segment_point(lower, upper, piece.beta_lo)
            at_hi = segment_point(lower, upper, piece.beta_hi)
            assert (piece.start, piece.end) == ((at_lo, at_hi) if forward else (at_hi, at_lo))
    assert dec.pieces[0].start == x and dec.pieces[-1].end == y
    for before, after in zip(dec.pieces, dec.pieces[1:]):
        assert before.end == after.start


def test_piece_classification_constant_and_consistent(rng):
    """Each piece's M/L/H sets partition the coordinates and match its image."""
    for _ in range(100):
        lo, hi = comparable_pair(rng, 3)
        dec = segment_decompose(lo, hi)
        for piece in dec.pieces:
            idx = sorted(piece.m_indices | piece.l_indices | piece.h_indices)
            assert idx == list(range(lo.dim))
            for i in piece.l_indices:
                assert piece.start[i] == lo[i] and piece.end[i] == lo[i]
            for i in piece.h_indices:
                assert piece.start[i] == hi[i] and piece.end[i] == hi[i]
            for i in piece.m_indices:
                assert piece.start[i] == piece.beta_lo
                assert piece.end[i] == piece.beta_hi


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_piece_count_bounds(data):
    d = data.draw(st.integers(min_value=1, max_value=4))
    coords = st.fractions(min_value=0, max_value=1, max_denominator=6)
    x = Point(tuple(data.draw(coords) for _ in range(d)))
    y = Point(tuple(data.draw(coords) for _ in range(d)))
    dec = segment_decompose(x, y)
    if x.leq(y) or y.leq(x):
        assert len(dec.elementary()) <= 2 * d - 1
    else:
        assert len(dec.elementary()) <= 2 * d - 2


def test_corner_chain_lies_on_segment(rng):
    for _ in range(100):
        x = random_point(rng, 2)
        y = random_point(rng, 2)
        dec = segment_decompose(x, y)
        for q in dec.corner_chain():
            assert segment_contains(x, y, q)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def test_contains_examples():
    assert segment_contains(X, Y, point("0.55", "0.55"))
    assert segment_contains(X, Y, X)
    assert segment_contains(X, Y, Y)
    assert not segment_contains(X, Y, point("0.3", "0.8"))


def test_contains_dimension_mismatch():
    with pytest.raises(PreconditionError):
        segment_contains(X, Y, point("0.5"))


def test_contains_agrees_with_brute_enumeration(rng):
    for _ in range(60):
        x = random_point(rng, 2, den=4)
        y = random_point(rng, 2, den=4)
        grid = GridSpec.from_inputs([x, y], UNIT)
        sampled = brute_segment(x, y, grid)
        for z in sampled:
            assert segment_contains(x, y, z)
        # grid points off the segment must be rejected
        for a in grid.axis_values():
            for b in grid.axis_values():
                q = Point((a, b))
                if q not in sampled:
                    assert not segment_contains(x, y, q)


def test_concatenation_membership(rng):
    """z on [x,y] exactly when z on [x, x v y] or on [x v y, y]."""
    for _ in range(40):
        x = random_point(rng, 2, den=4)
        y = random_point(rng, 2, den=4)
        m = x.join(y)
        for a in GridSpec.from_inputs([x, y], UNIT).axis_values():
            for b in GridSpec.from_inputs([x, y], UNIT).axis_values():
                z = Point((a, b))
                whole = segment_contains(x, y, z)
                halves = segment_contains(x, m, z) or segment_contains(m, y, z)
                assert whole == halves


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_zero_iff_equal(rng):
    assert geodesic_distance(X, X) == RadicalSum.zero()
    for _ in range(30):
        x = random_point(rng, 3)
        y = random_point(rng, 3)
        assert (geodesic_distance(x, y) == RadicalSum.zero()) == (x == y)


def test_distance_comparable_example():
    dist = geodesic_distance(X, Y)
    assert str(dist) == "3/5 + 1/10*sqrt(2)"
    assert math.isclose(dist.to_float(), 0.6 + 0.1 * math.sqrt(2))


def test_distance_one_dimensional():
    dist = geodesic_distance(point("0.2"), point("0.9"))
    assert dist == RadicalSum.term(Fraction(7, 10), 1)


def test_distance_symmetric(rng):
    for _ in range(50):
        x = random_point(rng, 3)
        y = random_point(rng, 3)
        assert geodesic_distance(x, y) == geodesic_distance(y, x)


def test_distance_triangle_inequality(rng):
    for _ in range(60):
        x, y, z = (random_point(rng, 2) for _ in range(3))
        dxy = geodesic_distance(x, y).to_float()
        dxz = geodesic_distance(x, z).to_float()
        dzy = geodesic_distance(z, y).to_float()
        assert dxy <= dxz + dzy + 1e-12


def test_radical_sum_arithmetic():
    a = RadicalSum.term(Fraction(1, 2), 2)
    b = RadicalSum.term(Fraction(1, 2), 2)
    assert str(a + b) == "sqrt(2)"
    assert (a + b).to_float() == pytest.approx(math.sqrt(2))
    lo, hi = (a + b).rational_bounds()
    assert lo <= Fraction(math.sqrt(2)) <= hi
    assert hi - lo < Fraction(1, 10**9)


def test_radical_sum_normalizes_radicands():
    # sqrt(8) = 2*sqrt(2), so the two terms must merge
    s = RadicalSum.term(Fraction(1), 8) + RadicalSum.term(Fraction(1), 2)
    assert s == RadicalSum.term(Fraction(3), 2)
