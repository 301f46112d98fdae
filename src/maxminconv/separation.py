"""Separating boxes and points from max-min hulls by semispaces.

Semispaces are max-min convex, so a semispace containing every generator
of C contains the whole hull; separating a set from conv(C) means
finding such a semispace whose complement sector holds the set.

Separation of a box B is not always possible even when B and conv(C)
are disjoint.  The obstruction is exactly the following condition on
the descending order x_(1) >= ... >= x_(d) of the box's upper corner:
with t(B) the largest k such that x_(k) dominates the first k lower
coordinates in the same order, separation can fail only when
x_(1) = hi and some hull point y >= lower corner exceeds the upper
corner in one of the first t(B) sorted coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import PreconditionError, SemiringBounds, UNIT, value_grid
from .geometry import Point, _check_bounds, _check_same_dim
from .hull import HullMembership, Polytope, hull_member
from .semispaces import (
    Hyperplane,
    NotOnDiagonal,
    SemispaceId,
    _diagonal_hyperplane,
    index_set,
    sector_contains_box,
    semispace,
    semispace_contains,
)


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper], possibly degenerate."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        _check_same_dim(self.lower, self.upper)
        if not self.lower.leq(self.upper):
            raise PreconditionError("box needs lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.dim

    def contains(self, q: Point) -> bool:
        return self.lower.leq(q) and q.leq(self.upper)

    def coordinates(self) -> tuple[Fraction, ...]:
        return tuple(self.lower.coords) + tuple(self.upper.coords)

    def corners(self) -> tuple[Point, ...]:
        """All 2^d corner points (with repeats collapsed when degenerate)."""
        axes = [
            (lo,) if lo == hi else (lo, hi)
            for lo, hi in zip(self.lower.coords, self.upper.coords)
        ]
        return tuple(Point(c) for c in itertools.product(*axes))


@dataclass(frozen=True)
class PointInHull:
    """Separation is impossible: the point lies in the hull."""

    membership: HullMembership


@dataclass(frozen=True)
class NonSeparable:
    """No semispace separates the box from the hull.

    ``witness`` is a hull point realizing the obstruction from the
    separation condition.
    """

    reason: str
    witness: Point | None = None


def separate_point(p: Point, c: Polytope, bounds: SemiringBounds = UNIT) -> SemispaceId | PointInHull:
    """Semispace containing conv(C) but not p, when p is outside.

    The separating index is the first sector of p with no generator,
    handed over by the membership test.
    """
    res = hull_member(p, c, bounds)
    if res.member:
        return PointInHull(res)
    assert res.separating_index is not None
    s = semispace(p, res.separating_index, bounds)
    for g in c:
        if not semispace_contains(s, g):
            raise AssertionError("separating semispace misses a generator; this is a bug")
    return s


def _sorted_upper_order(b: Box) -> tuple[list[int], int]:
    """Descending stable order of the upper corner and the frontier t(B)."""
    d = b.dim
    order = sorted(range(d), key=lambda i: (-b.upper[i], i))
    t = 0
    for k in range(1, d + 1):
        top = b.upper[order[k - 1]]
        if all(top >= b.lower[order[i]] for i in range(k)):
            t = k
        else:
            break
    return order, t


def condition_violation(b: Box, c: Polytope, bounds: SemiringBounds) -> Point | None:
    """Hull point y >= lower with y exceeding the upper corner on the frontier.

    Exact for the min t-norm: rounding a hull point up to the coordinate
    grid keeps it in the hull, keeps y >= lower and keeps any strict
    excess strict, so scanning the grid decides existence.
    """
    order, t = _sorted_upper_order(b)
    if b.upper[order[0]] < bounds.hi:
        return None
    frontier = order[:t]
    grid = value_grid(list(c.coordinates()) + list(b.coordinates()), bounds)
    for combo in itertools.product(grid, repeat=b.dim):
        q = Point(combo)
        if (
            b.lower.leq(q)
            and any(q[i] > b.upper[i] for i in frontier)
            and hull_member(q, c, bounds).member
        ):
            return q
    return None


def sep_condition(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> bool:
    """The exact separability criterion for a box against conv(C).

    True means a separating semispace exists (granted B and conv(C) are
    disjoint); false means every semispace fails.  Always true when the
    largest upper coordinate stays below hi, and always true for a
    degenerate box disjoint from the hull.
    """
    if b.dim != c.dim:
        raise PreconditionError("box and polytope dimensions differ")
    _check_bounds(b.lower, bounds)
    _check_bounds(b.upper, bounds)
    common = _hull_point_in_box(b, c, bounds)
    if common is not None:
        raise PreconditionError("box meets conv(C) at %s; separation undefined" % (common,))
    return condition_violation(b, c, bounds) is None


def _hull_point_in_box(b: Box, c: Polytope, bounds: SemiringBounds) -> Point | None:
    """Grid-exact emptiness test for B intersect conv(C)."""
    grid = value_grid(list(c.coordinates()) + list(b.coordinates()), bounds)
    axes = [[v for v in grid if b.lower[i] <= v <= b.upper[i]] for i in range(b.dim)]
    for combo in itertools.product(*axes):
        q = Point(combo)
        if hull_member(q, c, bounds).member:
            return q
    return None


def _anchor_scan(
    axes: list[list[Fraction]],
    b: Box,
    c: Polytope,
    bounds: SemiringBounds,
) -> SemispaceId | None:
    for combo in itertools.product(*axes):
        a = Point(combo)
        for i in index_set(a, bounds):
            s = semispace(a, i, bounds)
            if sector_contains_box(s, b.lower, b.upper) and all(
                semispace_contains(s, g) for g in c
            ):
                return s
    return None


def separate_box(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> SemispaceId | NonSeparable:
    """Semispace containing conv(C) with the box in its sector.

    Requires B and conv(C) disjoint.  When the separation condition
    fails, returns NonSeparable with the obstructing hull point.  The
    anchor search runs over grid points inside B (corners included),
    falling back to the full grid; for a degenerate box this agrees with
    separate_point.
    """
    if b.dim != c.dim:
        raise PreconditionError("box and polytope dimensions differ")
    _check_bounds(b.lower, bounds)
    _check_bounds(b.upper, bounds)
    common = _hull_point_in_box(b, c, bounds)
    if common is not None:
        raise PreconditionError("box meets conv(C) at %s; separation undefined" % (common,))
    violation = condition_violation(b, c, bounds)
    if violation is not None:
        return NonSeparable(
            reason="separation condition fails: hull point %s dominates the box floor "
            "and exceeds its ceiling on the frontier" % (violation,),
            witness=violation,
        )
    grid = value_grid(list(c.coordinates()) + list(b.coordinates()), bounds)
    inside = [[v for v in grid if b.lower[i] <= v <= b.upper[i]] for i in range(b.dim)]
    found = _anchor_scan(inside, b, c, bounds)
    if found is None:
        # guaranteed to exist once the condition holds; widen the anchor
        # search to the whole grid before conceding
        found = _anchor_scan([list(grid)] * b.dim, b, c, bounds)
    if found is None:
        raise AssertionError(
            "separation condition holds but no grid anchor separates; this is a bug"
        )
    return found


def separate_by_hyperplane(
    p: Point, c: Polytope, bounds: SemiringBounds = UNIT
) -> Hyperplane | PointInHull:
    """Max-min hyperplane containing conv(C) with the diagonal point p off it.

    Only diagonal points are supported (raises NotOnDiagonal otherwise).
    The hyperplane is the closure of a diagonal semispace anchored at the
    extremal generator value in the separating direction, which keeps
    every generator on the hyperplane while p stays off it.  When that
    value is a bound the semispace itself is not valid, but the same
    coefficients still give a hyperplane: { max_i x_i = hi } or
    { x_c = lo }.
    """
    if len(set(p.coords)) != 1:
        raise NotOnDiagonal("separate_by_hyperplane needs a diagonal point, got %s" % (p,))
    res = hull_member(p, c, bounds)
    if res.member:
        return PointInHull(res)
    assert res.separating_index is not None
    i0 = res.separating_index
    v = p[0]
    if i0 == 0:
        # every generator pokes above v somewhere; anchor at the lowest peak
        w = min(max(g.coords) for g in c)
        assert w > v
    else:
        c0 = i0 - 1
        w = max(g[c0] for g in c)
        assert w < v
    return _diagonal_hyperplane(w, i0, p.dim, bounds)
