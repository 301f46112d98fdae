"""Separating points and boxes from hulls, condition checks, hyperplanes."""

import itertools
import random
from fractions import Fraction

import pytest

from maxminconv.cli import _blocked
from maxminconv.core import UNIT, PreconditionError, SemiringBounds
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
    sep_condition,
    separate_box,
    separate_by_hyperplane,
    separate_point,
)

from support import random_point, random_polytope

TWO_GEN = polytope([("0.2", "0.8"), ("0.8", "0.2")])
WIDE = SemiringBounds(Fraction(-1), Fraction(2))


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
    # u_1 = hi rules out index 0, l = (lo, lo) rules out indices 1 and 2
    assert separate_box(b, c).blockers == ((None, None),) * 3


def test_condition_rejects_overlap():
    b = Box(lower=point("0.1", "0.1"), upper=point("0.9", "0.9"))
    with pytest.raises(PreconditionError):
        sep_condition(b, polytope([("0.5", "0.5")]))


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
    assert res.blockers == ((None, None),) * 3


def test_separate_box_blockers_name_the_least_sectors():
    # u_1 = hi rules out index 0; generator 0 lies in {q_1 >= 3/8}, the
    # least sector of index 1, and in {q_2 >= 5/8}, that of index 2
    b = Box(lower=point("3/8", "5/8"), upper=point("1", "3/4"))
    c = polytope([("5/8", "7/8"), ("1/2", "1")])
    res = separate_box(b, c)
    assert isinstance(res, NonSeparable)
    assert res.blockers == (
        (None, None),
        (semispace(point("3/8", "5/8"), 1), 0),
        (semispace(point("5/8", "5/8"), 2), 0),
    )
    assert _blocked(b, c, res, UNIT)


def test_separate_box_rejects_overlap():
    b = Box(lower=point("0.1", "0.1"), upper=point("0.9", "0.9"))
    with pytest.raises(PreconditionError):
        separate_box(b, polytope([("0.5", "0.5")]))


def coordinate_grid(b: Box, c: Polytope, bounds=UNIT) -> list[Fraction]:
    coords = {v for g in c for v in g.coords}
    return sorted(coords | {*b.lower.coords, *b.upper.coords, bounds.lo, bounds.hi})


def inside_axes(b: Box, grid) -> list[list[Fraction]]:
    return [[v for v in grid if b.lower[i] <= v <= b.upper[i]] for i in range(b.dim)]


def first_grid_separator(b: Box, c: Polytope, anchors, bounds=UNIT):
    """Exhaustive reference: the first semispace, anchors from the
    per-coordinate value lists in lex order and then by index, that holds
    every generator while its sector holds the box; None if none does."""
    for coords in itertools.product(*anchors):
        anchor = Point(coords)
        for i in index_set(anchor, bounds):
            s = semispace(anchor, i, bounds)
            if all(semispace_contains(s, g) for g in c) and sector_contains_box(
                s, b.lower, b.upper
            ):
                return s
    return None


def first_hull_point_in_box(b: Box, c: Polytope, bounds=UNIT):
    """Scan reference: lex-first grid point of B in conv(C) by the sector test."""
    for coords in itertools.product(*inside_axes(b, coordinate_grid(b, c, bounds))):
        if hull_member(Point(coords), c, bounds).member:
            return Point(coords)
    return None


def test_nonseparable_verdicts_are_exhaustive():
    """Every NonSeparable box, d 1-3 with a top coordinate anywhere, has no
    separator on the whole coordinate grid, and its blockers pass the CLI
    re-check."""
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        bounds = rng.choice((UNIT, WIDE))
        d = rng.randint(1, 3)
        b, c = random_box_instance(rng, d, bounds, 4 if bounds == UNIT else 2)
        upper = list(b.upper.coords)
        upper[rng.randrange(d)] = bounds.hi
        b = Box(lower=b.lower, upper=Point(tuple(upper)))
        try:
            res = separate_box(b, c, bounds)
        except PreconditionError:
            continue
        if not isinstance(res, NonSeparable):
            continue
        checked += 1
        grid = coordinate_grid(b, c, bounds)
        assert first_grid_separator(b, c, [grid] * d, bounds) is None
        assert _blocked(b, c, res, bounds)


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


def test_separable_box_with_a_frontier_obstruction():
    # S_3(1/2, 1/4, 1/2) holds the generator and its sector holds the box,
    # although the generator dominates the box floor and exceeds its ceiling
    b = Box(lower=point("1/4", "0", "1/2"), upper=point("1", "1/4", "3/4"))
    c = polytope([("1/4", "3/4", "1")])
    s = semispace(point("1/2", "1/4", "1/2"), 3)
    assert all(semispace_contains(s, g) for g in c)
    assert sector_contains_box(s, b.lower, b.upper)
    assert sep_condition(b, c)
    assert separate_box(b, c) == semispace(point("1/2", "1/4", "1/2"), 3)


def random_box_instance(rng, d, bounds, den):
    """A random box, often degenerate or with a top coordinate, and a hull."""

    def value():
        return bounds.lo + Fraction(rng.randrange(int((bounds.hi - bounds.lo) * den) + 1), den)

    a, z = [value() for _ in range(d)], [value() for _ in range(d)]
    lower, upper = [min(p, q) for p, q in zip(a, z)], [max(p, q) for p, q in zip(a, z)]
    shape = rng.random()
    if shape < 0.35:
        upper[rng.randrange(d)] = bounds.hi
    elif shape < 0.5:
        upper = list(lower)
    elif shape < 0.6:
        lower[rng.randrange(d)] = bounds.lo
    gens = [Point(tuple(value() for _ in range(d))) for _ in range(rng.randint(1, 3))]
    return Box(lower=Point(tuple(lower)), upper=Point(tuple(upper))), Polytope(tuple(gens))


def test_box_questions_match_the_grid_scans():
    """Projections and the least sectors give the scans' answers: the
    lex-first meeting point, the lex-first separator inside B, and a
    negative exactly when no anchor of the whole grid separates."""
    rng = random.Random(4)
    seen = {"overlap": 0, "separable": 0, "non-separable": 0}
    while seen["separable"] + seen["non-separable"] < 300:
        bounds = WIDE if rng.random() < 1 / 3 else UNIT
        b, c = random_box_instance(rng, rng.randint(1, 3), bounds, 2 if bounds == WIDE else 4)
        common = first_hull_point_in_box(b, c, bounds)
        if common is not None:
            seen["overlap"] += 1
            message = "box meets conv(C) at %s; separation undefined" % (common,)
            for question in (separate_box, sep_condition):
                with pytest.raises(PreconditionError) as err:
                    question(b, c, bounds)
                assert str(err.value) == message
            continue
        grid = coordinate_grid(b, c, bounds)
        anywhere = first_grid_separator(b, c, [grid] * b.dim, bounds)
        assert sep_condition(b, c, bounds) == (anywhere is not None)
        assert anywhere is not None or max(b.upper.coords) == bounds.hi
        res = separate_box(b, c, bounds)
        if anywhere is not None:
            seen["separable"] += 1
            assert res == first_grid_separator(b, c, inside_axes(b, grid), bounds)
        else:
            seen["non-separable"] += 1
            assert isinstance(res, NonSeparable)
            assert _blocked(b, c, res, bounds)
    assert min(seen.values()) >= 10, seen


def test_box_questions_run_without_the_grid_scan(monkeypatch):
    """At d = 7 with 40-odd values per coordinate, no box question scans
    candidates with the sector-witness test."""
    from maxminconv import hull, separation

    def refuse(*args):
        raise AssertionError("a box question reached hull_member")

    monkeypatch.setattr(separation, "hull_member", refuse)
    monkeypatch.setattr(hull, "hull_member", refuse)
    rng = random.Random(7)
    d = 7

    def coordinate(low, high):
        return Fraction(rng.randrange(low, high + 1), 1000)

    # every generator starts below the box floor in coordinate 0: separable
    c = Polytope(tuple(
        Point((coordinate(0, 500),) + tuple(coordinate(0, 1000) for _ in range(d - 1)))
        for _ in range(8)
    ))
    b = Box(lower=point(["0.6"] + ["0.1"] * (d - 1)), upper=point(["1"] + ["0.9"] * (d - 1)))
    s = separate_box(b, c)
    assert all(semispace_contains(s, g) for g in c)
    assert sector_contains_box(s, b.lower, b.upper)
    assert sep_condition(b, c)

    # every generator sits above the box ceiling off coordinate 0: not separable
    c = Polytope(tuple(Point(tuple(coordinate(500, 1000) for _ in range(d))) for _ in range(8)))
    assert len({v for g in c for v in g.coords}) >= 40
    b = Box(lower=point(["0.1"] * d), upper=point(["1"] + ["0.3"] * (d - 1)))
    res = separate_box(b, c)
    assert isinstance(res, NonSeparable)
    assert res.blockers[0] == (None, None)
    for s, n in res.blockers[1:]:
        assert sector_contains(s, c.generators[n])
        assert sector_contains_box(s, b.lower, b.upper)
    assert not sep_condition(b, c)


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
