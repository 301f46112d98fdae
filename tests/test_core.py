"""Scalar layer: bounds, t-norms, residuation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxminconv.core import (
    LUKASIEWICZ,
    MIN,
    NUMERAL_LIMIT,
    PRODUCT,
    UNIT,
    DomainError,
    PreconditionError,
    SemiringBounds,
    TNorm,
    as_value,
    common_denominator,
    format_value,
    grid_levels,
    residual,
    tnorm_apply,
    value_grid,
)

from support import value_grid_loop

ALL_TNORMS = (MIN, PRODUCT, LUKASIEWICZ)


def frac(s):
    return Fraction(s)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1/3", Fraction(1, 3)),
        ("0.25", Fraction(1, 4)),
        (1, Fraction(1)),
        (Fraction(7, 8), Fraction(7, 8)),
        ("0.1", Fraction(1, 10)),
    ],
)
def test_as_value_exact(raw, expected):
    assert as_value(raw) == expected


def test_as_value_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        as_value("zebra")
    with pytest.raises(TypeError):
        as_value(0.1)  # binary floats are not exact inputs


def test_as_value_refuses_numerals_that_cannot_be_printed_back():
    """Length and exponent are checked before the Fraction is built."""
    assert as_value("1e-%d" % NUMERAL_LIMIT) == Fraction(1, 10**NUMERAL_LIMIT)
    assert as_value("1E+%d" % NUMERAL_LIMIT) == 10**NUMERAL_LIMIT
    assert as_value("7" * NUMERAL_LIMIT) == int("7" * NUMERAL_LIMIT)
    with pytest.raises(ValueError) as exc:
        as_value("1e-40000000")
    assert str(exc.value) == "exponent -40000000 in '1e-40000000' is beyond the 1000 accepted"
    with pytest.raises(ValueError) as exc:
        as_value("0.5e1_001")
    assert str(exc.value) == "exponent 1001 in '0.5e1_001' is beyond the 1000 accepted"
    with pytest.raises(ValueError) as exc:
        as_value("7" * (NUMERAL_LIMIT + 1))
    assert str(exc.value) == "numeral of 1001 characters, more than the 1000 accepted"
    with pytest.raises(ValueError, match="Invalid literal"):
        as_value("1e")  # no exponent to check: Fraction refuses it


def test_format_value_round_trips():
    for v in (Fraction(0), Fraction(2), Fraction(1, 3), Fraction(-7, 8)):
        assert as_value(format_value(v)) == v


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_ordering_enforced():
    with pytest.raises(DomainError):
        SemiringBounds(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        SemiringBounds(Fraction(1, 2), Fraction(1, 2))


def test_unit_bounds_contains_and_interior():
    assert UNIT.contains(Fraction(0))
    assert UNIT.contains(Fraction(1))
    assert not UNIT.contains(Fraction(3, 2))
    assert UNIT.interior(Fraction(1, 2))
    assert not UNIT.interior(Fraction(1))


def test_extended_bounds_strictly_widen():
    wide = UNIT.extended()
    assert wide.lo < UNIT.lo and wide.hi > UNIT.hi
    assert wide.lo == Fraction(-1) and wide.hi == Fraction(2)


# ---------------------------------------------------------------------------
# t-norm construction
# ---------------------------------------------------------------------------


def test_min_tnorm_accepts_general_bounds():
    wide = SemiringBounds(Fraction(-1), Fraction(2))
    t = TNorm("min", wide)
    assert tnorm_apply(t, Fraction(-1, 2), Fraction(3, 2)) == Fraction(-1, 2)


@pytest.mark.parametrize("tag", ["product", "lukasiewicz"])
def test_unit_only_tnorms_reject_other_bounds(tag):
    with pytest.raises(DomainError):
        TNorm(tag, SemiringBounds(Fraction(-1), Fraction(2)))


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        TNorm("drastic")


# ---------------------------------------------------------------------------
# application examples
# ---------------------------------------------------------------------------


def test_min_apply():
    assert tnorm_apply(MIN, frac("0.3"), frac("0.7")) == frac("0.3")


def test_lukasiewicz_apply():
    assert tnorm_apply(LUKASIEWICZ, frac("0.6"), frac("0.7")) == frac("0.3")
    assert tnorm_apply(LUKASIEWICZ, frac("0.2"), frac("0.3")) == 0


def test_neutral_element():
    for t in ALL_TNORMS:
        for k in range(9):
            v = Fraction(k, 8)
            assert tnorm_apply(t, v, Fraction(1)) == v
            assert tnorm_apply(t, Fraction(1), v) == v


def test_apply_rejects_out_of_bounds():
    with pytest.raises(DomainError):
        tnorm_apply(PRODUCT, Fraction(3, 2), Fraction(1, 2))


def test_residual_rejects_out_of_bounds():
    for t in ALL_TNORMS:
        with pytest.raises(DomainError):
            residual(t, Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(DomainError):
            residual(t, Fraction(1, 2), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# residuation examples
# ---------------------------------------------------------------------------


def test_residual_min():
    assert residual(MIN, frac("0.7"), frac("0.5")) == frac("0.5")
    assert residual(MIN, frac("0.3"), frac("0.5")) == 1


def test_residual_lukasiewicz():
    assert residual(LUKASIEWICZ, frac("0.9"), frac("0.3")) == frac("0.4")


def test_residual_product():
    assert residual(PRODUCT, frac("0.8"), frac("0.2")) == frac("0.25")
    assert residual(PRODUCT, frac("0.2"), frac("0.8")) == 1


def test_residual_monotone_in_c():
    grid = [Fraction(k, 10) for k in range(11)]
    for t in ALL_TNORMS:
        for a in grid:
            vals = [residual(t, a, c) for c in grid]
            assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# axioms on a small grid (the acceptance suite runs the full 21-value grid)
# ---------------------------------------------------------------------------


GRID6 = [Fraction(k, 5) for k in range(6)]


@pytest.mark.parametrize("t", ALL_TNORMS, ids=lambda t: t.tag)
def test_axioms_small_grid(t):
    for x, y, z in itertools.product(GRID6, repeat=3):
        assert tnorm_apply(t, x, tnorm_apply(t, y, z)) == tnorm_apply(
            t, tnorm_apply(t, x, y), z
        )
        if y <= z:
            assert tnorm_apply(t, x, y) <= tnorm_apply(t, x, z)
    for x in GRID6:
        assert tnorm_apply(t, x, Fraction(1)) == x
        assert tnorm_apply(t, x, Fraction(0)) == 0
        for y in GRID6:
            assert tnorm_apply(t, x, y) == tnorm_apply(t, y, x)


@pytest.mark.parametrize("t", ALL_TNORMS, ids=lambda t: t.tag)
def test_residual_galois_small_grid(t):
    for lam, a, c in itertools.product(GRID6, repeat=3):
        assert (tnorm_apply(t, lam, a) <= c) == (lam <= residual(t, a, c))


@given(
    lam=st.fractions(min_value=0, max_value=1, max_denominator=97),
    a=st.fractions(min_value=0, max_value=1, max_denominator=97),
    c=st.fractions(min_value=0, max_value=1, max_denominator=97),
)
def test_residual_galois_random(lam, a, c):
    for t in ALL_TNORMS:
        assert (tnorm_apply(t, lam, a) <= c) == (lam <= residual(t, a, c))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_value_grid_contains_inputs_and_bounds():
    vals = [Fraction(1, 3), Fraction(2, 7)]
    grid = value_grid(vals, UNIT)
    assert grid[0] == 0 and grid[-1] == 1
    for v in vals:
        assert v in grid
    assert list(grid) == sorted(set(grid))


def test_value_grid_with_step():
    grid = value_grid([Fraction(1, 3)], UNIT, step=Fraction(1, 4))
    for k in range(5):
        assert Fraction(k, 4) in grid
    assert Fraction(1, 3) in grid


def _scaled(grid):
    """A Fraction grid as (levels, denom) over its common denominator."""
    denom = common_denominator(grid)
    return tuple(v.numerator * (denom // v.denominator) for v in grid), denom


@st.composite
def _grid_questions(draw):
    """Values inside non-unit bounds (negative lo too), and a step with
    0, 1, 2 or many multiples inside the bounds, or none."""
    lo = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 9)))
    hi = lo + Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 9)))
    values = draw(st.lists(st.integers(0, 12).map(lambda i: lo + (hi - lo) * Fraction(i, 12)),
                           max_size=6))
    # a step of width times r puts about 1/r multiples inside the bounds
    r = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    step = draw(st.sampled_from([None, (hi - lo) * r, Fraction(1, draw(st.integers(1, 60)))]))
    return values, SemiringBounds(lo, hi), step


@given(_grid_questions())
def test_grid_levels_match_the_fraction_loop(question):
    values, bounds, step = question
    expected = value_grid_loop(values, bounds, step)
    assert grid_levels(values, bounds, step) == _scaled(expected)
    assert value_grid(values, bounds, step) == expected


@pytest.mark.parametrize(
    "bounds, step, multiples",
    [
        (SemiringBounds(Fraction(1, 4), Fraction(3, 4)), Fraction(1), 0),
        (SemiringBounds(Fraction(1, 4), Fraction(3, 4)), Fraction(1, 2), 1),
        (SemiringBounds(Fraction(1, 4), Fraction(3, 4)), Fraction(1, 3), 2),
        (SemiringBounds(Fraction(-1, 3), Fraction(1, 5)), Fraction(1, 7), 4),
        (SemiringBounds(Fraction(-2), Fraction(-1, 2)), Fraction(3, 10), 5),
        (UNIT, Fraction(1, 30), 31),
    ],
)
def test_grid_levels_by_multiple_count(bounds, step, multiples):
    values = [bounds.lo + (bounds.hi - bounds.lo) * Fraction(2, 7)]
    on_grid = [v for v in value_grid_loop([], bounds, step) if v / step == v // step]
    assert len(on_grid) == multiples
    assert grid_levels(values, bounds, step) == _scaled(value_grid_loop(values, bounds, step))


@pytest.mark.parametrize(
    "values, step, error, message",
    [
        ([Fraction(1, 2), Fraction(3, 2)], Fraction(0), DomainError,
         "grid value 3/2 outside bounds [0, 1]"),
        ([], Fraction(0), ValueError, "grid step must be positive"),
        ([], Fraction(-1, 4), ValueError, "grid step must be positive"),
        ([], Fraction(1, 10**5), PreconditionError,
         "grid step 1/100000 puts 100001 values in [0, 1], more than the 10001 a search accepts"),
    ],
    ids=["value-outside", "zero-step", "negative-step", "step-too-fine"],
)
def test_grid_refusals(values, step, error, message):
    for build in (grid_levels, value_grid, value_grid_loop):
        with pytest.raises(error) as exc:
            build(values, UNIT, step)
        assert type(exc.value) is error and str(exc.value) == message


def test_common_denominator():
    assert common_denominator([Fraction(1, 3), Fraction(1, 4)]) == 12
    assert common_denominator([]) == 1
