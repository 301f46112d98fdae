"""Separating points and boxes from hulls, condition checks, hyperplanes."""

import itertools
from fractions import Fraction

import pytest

from maxminconv.core import UNIT, PreconditionError
from maxminconv.geometry import Point, point
from maxminconv.hull import Polytope, hull_member, polytope
from maxminconv.semispaces import (
    NotOnDiagonal,
    hyperplane_contains,
    index_set,
    sector_contains,
    sector_contains_box,
    semispace,
    semispace_contains,
)
from maxminconv.separation import (
    Box,
    NonSeparable,
    PointInHull,
    condition_violation,
    sep_condition,
    separate_box,
    separate_by_hyperplane,
    separate_point,
)

from support import random_point, random_polytope

TWO_GEN = polytope([("0.2", "0.8"), ("0.8", "0.2")])


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def test_box_validation():
    with pytest.raises(PreconditionError):
        Box(lower=point("0.6", "0.1"), upper=point("0.4", "0.9"))
    b = Box(lower=point("0.2", "0.1"), upper=point("0.5", "0.9"))
    assert b.contains(point("0.3", "0.5"))
    assert not b.contains(point("0.6", "0.5"))


def test_box_corners():
    b = Box(lower=point("0.2", "0.1"), upper=point("0.5", "0.9"))
    assert set(b.corners()) == {
        point("0.2", "0.1"),
        point("0.2", "0.9"),
        point("0.5", "0.1"),
        point("0.5", "0.9"),
    }


# ---------------------------------------------------------------------------
# point separation
# ---------------------------------------------------------------------------


def test_separate_point_example():
    s = separate_point(point("0.5", "0.5"), TWO_GEN)
    assert s.index == 0
    for g in TWO_GEN:
        assert semispace_contains(s, g)


def test_separate_point_generator_is_in_hull():
    res = separate_point(point("0.2", "0.8"), TWO_GEN)
    assert isinstance(res, PointInHull)
    assert res.membership.member


def test_separate_point_single_generator():
    res = separate_point(point("0.5", "0.5"), polytope([("0.3", "0.7")]))
    assert semispace_contains(res, point("0.3", "0.7"))


def test_separate_point_consistent_with_membership(rng):
    for _ in range(200):
        p = random_point(rng, 2)
        c = random_polytope(rng, 2, 3)
        res = separate_point(p, c)
        member = hull_member(p, c).member
        assert isinstance(res, PointInHull) == member
        if not member:
            for g in c:
                assert semispace_contains(res, g)


# ---------------------------------------------------------------------------
# the box separation condition
# ---------------------------------------------------------------------------


def test_condition_single_point_box(rng):
    for _ in range(30):
        q = random_point(rng, 2)
        c = random_polytope(rng, 2, 3)
        if hull_member(q, c).member:
            continue
        assert sep_condition(Box(lower=q, upper=q), c)


def test_condition_vacuous_without_top_coordinate():
    b = Box(lower=point("0.1", "0.1"), upper=point("0.4", "0.9"))
    c = polytope([("0.9", "0.95")])
    assert sep_condition(b, c)


def test_condition_failure_example():
    b = Box(lower=point("0", "0"), upper=point("1", "0.3"))
    c = polytope([("0.5", "0.6")])
    assert not sep_condition(b, c)
    assert condition_violation(b, c, UNIT) == point("0.5", "0.6")


def test_condition_rejects_overlap():
    b = Box(lower=point("0.1", "0.1"), upper=point("0.9", "0.9"))
    with pytest.raises(PreconditionError):
        sep_condition(b, polytope([("0.5", "0.5")]))


def test_condition_violation_is_a_hull_point():
    b = Box(lower=point("0", "0"), upper=point("1", "0.3"))
    c = polytope([("0.5", "0.6"), ("0.2", "0.9")])
    y = condition_violation(b, c, UNIT)
    assert y is not None
    assert hull_member(y, c).member
    assert all(yc >= lc for yc, lc in zip(y.coords, b.lower.coords))


# ---------------------------------------------------------------------------
# box separation
# ---------------------------------------------------------------------------


def test_separate_box_example():
    b = Box(lower=point("0.4", "0.4"), upper=point("0.6", "0.6"))
    c = polytope([("0.9", "0.9")])
    s = separate_box(b, c)
    assert s.anchor == point("0.6", "0.6")
    assert s.index == 0
    for g in c:
        assert semispace_contains(s, g)
    assert sector_contains_box(s, b.lower, b.upper)


def test_separate_box_degenerate_matches_point_separation(rng):
    for _ in range(80):
        p = random_point(rng, 2)
        c = random_polytope(rng, 2, 3)
        if hull_member(p, c).member:
            continue
        boxed = separate_box(Box(lower=p, upper=p), c)
        direct = separate_point(p, c)
        assert not isinstance(boxed, NonSeparable)
        # both answers are valid separators at p
        for s in (boxed, direct):
            assert all(semispace_contains(s, g) for g in c)
            assert sector_contains(s, p)


def test_separate_box_nonseparable_example():
    b = Box(lower=point("0", "0"), upper=point("1", "0.3"))
    c = polytope([("0.5", "0.6")])
    res = separate_box(b, c)
    assert isinstance(res, NonSeparable)
    assert res.witness == point("0.5", "0.6")


def test_separate_box_rejects_overlap():
    b = Box(lower=point("0.1", "0.1"), upper=point("0.9", "0.9"))
    with pytest.raises(PreconditionError):
        separate_box(b, polytope([("0.5", "0.5")]))


def every_grid_semispace_fails(b: Box, c: Polytope) -> bool:
    """Exhaustively confirm no semispace anchored on the coordinate grid
    holds the generators while its sector holds the box."""
    vals = sorted(
        set(c.coordinates())
        | set(b.lower.coords)
        | set(b.upper.coords)
        | {Fraction(0), Fraction(1)}
    )
    for coords in itertools.product(vals, repeat=b.lower.dim):
        anchor = Point(coords)
        for i in index_set(anchor):
            s = semispace(anchor, i)
            if all(semispace_contains(s, g) for g in c) and sector_contains_box(
                s, b.lower, b.upper
            ):
                return False
    return True


def test_nonseparable_verdicts_are_exhaustive(rng):
    checked = 0
    while checked < 5:
        lo = random_point(rng, 2, den=4)
        hi = lo.join(random_point(rng, 2, den=4))
        hi = Point((Fraction(1), hi[1]))  # force a top coordinate
        b = Box(lower=lo.meet(hi), upper=hi)
        c = random_polytope(rng, 2, 2, den=4)
        try:
            res = separate_box(b, c)
        except PreconditionError:
            continue
        if not isinstance(res, NonSeparable):
            continue
        checked += 1
        assert every_grid_semispace_fails(b, c)


def test_separable_verdicts_hold(rng):
    checked = 0
    while checked < 40:
        lo = random_point(rng, 2, den=4)
        hi = lo.join(random_point(rng, 2, den=4))
        b = Box(lower=lo, upper=hi)
        c = random_polytope(rng, 2, 3, den=4)
        try:
            res = separate_box(b, c)
        except PreconditionError:
            continue
        if isinstance(res, NonSeparable):
            continue
        checked += 1
        assert all(semispace_contains(res, g) for g in c)
        assert sector_contains_box(res, b.lower, b.upper)


# ---------------------------------------------------------------------------
# hyperplane separation
# ---------------------------------------------------------------------------


def test_separate_by_hyperplane_example():
    c = polytope([("0.2", "0.3")])
    h = separate_by_hyperplane(point("0.5", "0.5"), c)
    for g in c:
        assert hyperplane_contains(h, g)
    assert not hyperplane_contains(h, point("0.5", "0.5"))


def test_separate_by_hyperplane_multi_generator(rng):
    found = 0
    while found < 20:
        v = Fraction(rng.randrange(1, 8), 8)
        p = Point((v, v))
        c = random_polytope(rng, 2, 3)
        if hull_member(p, c).member:
            continue
        found += 1
        h = separate_by_hyperplane(p, c)
        assert all(hyperplane_contains(h, g) for g in c)
        assert not hyperplane_contains(h, p)


def test_separate_by_hyperplane_lowest_peak_at_hi():
    # every generator peaks at hi, so the anchor sits on the upper bound
    c = polytope([("1", "0.2"), ("0.3", "1")])
    p = point("0.5", "0.5")
    h = separate_by_hyperplane(p, c)
    assert all(hyperplane_contains(h, g) for g in c)
    assert not hyperplane_contains(h, p)
    assert hyperplane_contains(h, point("0", "1"))
    assert not hyperplane_contains(h, point("0.9", "0.9"))


def test_separate_by_hyperplane_coordinate_at_lo():
    # every generator has its first coordinate at lo: the set {x_1 = lo}
    c = polytope([("0", "0.2"), ("0", "0.9")])
    p = point("0.5", "0.5")
    h = separate_by_hyperplane(p, c)
    assert all(hyperplane_contains(h, g) for g in c)
    assert not hyperplane_contains(h, p)
    assert hyperplane_contains(h, point("0", "1"))
    assert not hyperplane_contains(h, point("0.1", "0"))


def test_separate_by_hyperplane_off_diagonal():
    with pytest.raises(NotOnDiagonal):
        separate_by_hyperplane(point("0.3", "0.6"), TWO_GEN)


def test_separate_by_hyperplane_in_hull():
    res = separate_by_hyperplane(point("0.8", "0.8"), TWO_GEN)
    assert isinstance(res, PointInHull)
