"""Segments, their piecewise decomposition, and the geodesic metric."""

import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxminconv.core import UNIT, PreconditionError, SemiringBounds
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


BOUNDS = (UNIT, SemiringBounds("-1", "2"), SemiringBounds("1/3", "5/2"))

# 30-digit primes: coordinates over two of them have coprime denominators
PRIMES = (10**29 + 319, 10**29 + 379, 10**29 + 459, 10**30 - 11)


def _coordinates(draw, bounds, coarse):
    """Coordinates of one pair: coarse ones alone, or mixed with
    denominators up to 97, or with 30-digit prime denominators.

    Coarse coordinates repeat, which gives degenerate pieces; with the
    other two the common denominator exceeds every input's own.
    """
    mixed = st.fractions(min_value=bounds.lo, max_value=bounds.hi, max_denominator=97)
    large = st.sampled_from(PRIMES).flatmap(
        lambda q: st.integers(math.ceil(bounds.lo * q), math.floor(bounds.hi * q)).map(
            lambda k: Fraction(k, q)
        )
    )
    return draw(st.sampled_from((coarse, st.one_of(coarse, mixed), st.one_of(coarse, large))))


@st.composite
def endpoint_pairs(draw):
    bounds = draw(st.sampled_from(BOUNDS))
    d = draw(st.integers(min_value=1, max_value=4))
    coarse = st.fractions(min_value=bounds.lo, max_value=bounds.hi, max_denominator=4)
    coords = _coordinates(draw, bounds, coarse)
    return (*(Point(tuple(draw(coords) for _ in range(d))) for _ in range(2)), bounds)


def _assert_ends_on_the_segment(dec, bounds):
    """``segment_contains``, on Fractions, holds every piece end."""
    for piece in dec.pieces:
        assert segment_contains(dec.x, dec.y, piece.start, bounds)
        assert segment_contains(dec.x, dec.y, piece.end, bounds)


@given(endpoint_pairs())
@example((point("1/2", "1/4"), point("1/4", "1/2"), UNIT))
@example((point("0", "1/2", "1/2"), point("1", "1/2", "3/4"), UNIT))
@example((point("-1", "1/97", "2"), point("1/3", "-1/2", "2"), BOUNDS[1]))
@example((point(Fraction(2, PRIMES[0]), "1/3"), point("1/2", Fraction(7, PRIMES[1])), UNIT))
@settings(max_examples=200, deadline=None)
def test_piece_sets_match_the_midpoint_rule(case):
    """Each piece's M/L/H sets are those of its interval's midpoint.

    At the midpoint, coordinate i moves when lower_i <= mid <= upper_i,
    is low when mid < lower_i and high when mid > upper_i.  Coarse
    coordinates repeat, so degenerate pieces (beta_lo == beta_hi) and
    incomparable endpoints are both frequent; the first two examples
    have both (incomparable) and repeated cuts on a comparable pair.
    The bounds are [0, 1], [-1, 2] or [1/3, 5/2].
    """
    x, y, bounds = case
    d = x.dim
    dec = segment_decompose(x, y, bounds)
    halves = _comparable_halves(x, y)
    n = 2 * d + 1
    assert len(dec.pieces) == n * len(halves)
    for h, (lower, upper) in enumerate(halves):
        for piece in dec.pieces[h * n:(h + 1) * n]:
            mid = (piece.beta_lo + piece.beta_hi) / 2
            assert piece.m_indices == {i for i in range(d) if lower[i] <= mid <= upper[i]}
            assert piece.l_indices == {i for i in range(d) if mid < lower[i]}
            assert piece.h_indices == {i for i in range(d) if mid > upper[i]}
    _assert_ends_on_the_segment(dec, bounds)


@st.composite
def grid_pairs(draw):
    bounds = draw(st.sampled_from(BOUNDS))
    d = draw(st.integers(min_value=1, max_value=5))
    q = draw(st.sampled_from((4, 8)))
    levels = st.integers(min_value=math.ceil(bounds.lo * q), max_value=math.floor(bounds.hi * q))
    coords = _coordinates(draw, bounds, levels.map(lambda k: Fraction(k, q)))
    return (*(Point(tuple(draw(coords) for _ in range(d))) for _ in range(2)), bounds)


@given(grid_pairs())
@example((point("1/4", "1/2", "1/2"), point("3/4", "1/2", "1"), UNIT))
@example((point("7/8", "1/2", "3/8"), point("1/8", "1/2", "3/8"), UNIT))
@example((point("1/2", "1/4", "0", "1"), point("1/4", "1/2", "0", "1"), UNIT))
@example((point("5/2", "1/3", "3/4"), point("1/3", Fraction(9, PRIMES[3]) + 1, "7/5"), BOUNDS[2]))
@settings(max_examples=200, deadline=None)
def test_piece_ends_match_segment_point(case):
    """Every piece end is ``segment_point`` of its half at the piece's cut.

    A half traversed from lower to upper starts at beta_lo and ends at
    beta_hi; a half traversed backwards (reversed endpoints, or the
    second half of an incomparable pair) starts at beta_hi.  The pieces
    chain from x to y: each starts where the one before it ends.  The
    first three examples are comparable, reversed and incomparable pairs
    with repeated coordinates.
    """
    x, y, bounds = case
    dec = segment_decompose(x, y, bounds)
    halves = _comparable_halves(x, y)
    n = 2 * x.dim + 1
    for h, (lower, upper) in enumerate(halves):
        forward = h == 0 and (len(halves) == 2 or x.leq(y))
        for piece in dec.pieces[h * n:(h + 1) * n]:
            at_lo = segment_point(lower, upper, piece.beta_lo, bounds)
            at_hi = segment_point(lower, upper, piece.beta_hi, bounds)
            assert (piece.start, piece.end) == ((at_lo, at_hi) if forward else (at_hi, at_lo))
    assert dec.pieces[0].start == x and dec.pieces[-1].end == y
    for before, after in zip(dec.pieces, dec.pieces[1:]):
        assert before.end == after.start
    _assert_ends_on_the_segment(dec, bounds)


# bounds, x, y -> the refusal: a dimension mismatch first, then the
# first coordinate of x, and then of y, that is out of bounds
REFUSALS = [
    (UNIT, ("0", "4/3", "-1/7"), ("1/2", "1/2", "1/2"),
     "coordinate 4/3 of (0, 4/3, -1/7) outside bounds [0, 1]"),
    (UNIT, ("1/2", "1/2", "1/2"), ("-1/7", "1", "4/3"),
     "coordinate -1/7 of (-1/7, 1, 4/3) outside bounds [0, 1]"),
    (UNIT, ("1", "0", "-1/7"), ("4/3", "1", "1"),
     "coordinate -1/7 of (1, 0, -1/7) outside bounds [0, 1]"),
    (UNIT, ("2", "0"), ("1", "1", "1"), "dimension mismatch: 2 vs 3"),
    (BOUNDS[1], ("2", "-3/2", "5"), ("-1", "0", "0"),
     "coordinate -3/2 of (2, -3/2, 5) outside bounds [-1, 2]"),
    (BOUNDS[2], ("1/3", "1/3", "1"), ("3", "1/4", "5/2"),
     "coordinate 3 of (3, 1/4, 5/2) outside bounds [1/3, 5/2]"),
    (BOUNDS[2], ("1/2", "5/2", "0"), ("1", "1", "1/4"),
     "coordinate 0 of (1/2, 5/2, 0) outside bounds [1/3, 5/2]"),
    (BOUNDS[2], ("1/3", "2", "1"), ("1/3", "2", "5/2", "26/10"),
     "dimension mismatch: 3 vs 4"),
]


@pytest.mark.parametrize("bounds, x, y, message", REFUSALS)
def test_decompose_refusal_names_the_first_coordinate_out_of_bounds(bounds, x, y, message):
    with pytest.raises(PreconditionError) as refusal:
        segment_decompose(point(*x), point(*y), bounds)
    assert str(refusal.value) == message


def test_decomposition_compares_no_fractions(monkeypatch):
    """The decomposition orders integer numerators, never Fractions."""
    x = point("0.7", "0.2", "1/3", "0", "1", "5/8")
    y = point("0.3", "0.6", "1/3", "1/2", "0", "7/8")
    expected = segment_decompose(x, y)
    assert expected.mode == "concatenated"
    calls = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        def counting(a, b, name=name, original=getattr(Fraction, name)):
            calls.append(name)
            return original(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    assert Fraction(1, 3) < Fraction(1, 2) and calls == ["__lt__"]
    calls.clear()
    got = segment_decompose(x, y)
    monkeypatch.undo()
    assert calls == []
    assert got == expected


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
