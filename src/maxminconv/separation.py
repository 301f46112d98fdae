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

The box [l, u] is the max-min hull of l and the d points raising l_j to
u_j, so "does B meet conv(C)?" and "is there a hull point y >= l with
y_i > u_i?" go to the shared min search of ``maxt`` (cyclic projections).
The separating semispace of a box has a closed form; nothing scans a grid.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import PreconditionError, SemiringBounds, UNIT, value_grid
from .geometry import Point, _check_bounds, _check_same_dim
from .hull import HullMembership, Polytope, _find_meeting_point, hull_member
from .semispaces import (
    Hyperplane,
    NotOnDiagonal,
    SemispaceId,
    _diagonal_hyperplane,
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

    def polytope(self) -> Polytope:
        """Generators of the box as a max-min hull: l, and l with l_j raised to u_j."""
        lo = self.lower.coords
        raised = (Point(lo[:j] + (u,) + lo[j + 1:]) for j, u in enumerate(self.upper.coords))
        return Polytope((self.lower, *raised))


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
    """Lex-first grid hull point y >= lower exceeding the upper corner on the frontier.

    On the grid G of the input coordinates and the bounds, y_i > u_i means
    y_i >= u_i^+, the next value of G above u_i.  So each frontier
    coordinate i with u_i < hi asks whether conv(C) meets the box from l
    with l_i raised to u_i^+ up to (hi, ..., hi); the answer is the
    lex-smallest meeting point.  Exact for the min t-norm: rounding a hull
    point down to G keeps it in both hulls.
    """
    order, t = _sorted_upper_order(b)
    if b.upper[order[0]] < bounds.hi:
        return None
    grid = value_grid(list(c.coordinates()) + list(b.coordinates()), bounds)
    top, lo = Point((bounds.hi,) * b.dim), b.lower.coords
    hits = []
    for i in order[:t]:
        if b.upper[i] < bounds.hi:
            floor = Point(lo[:i] + (grid[bisect_right(grid, b.upper[i])],) + lo[i + 1:])
            q = _find_meeting_point(c, Box(lower=floor, upper=top).polytope(), bounds)
            if q is not None:
                hits.append(q)
    return min(hits, key=lambda q: q.coords, default=None)


def _check_disjoint(b: Box, c: Polytope, bounds: SemiringBounds) -> None:
    """Preconditions of the box questions: dimensions, bounds, B and conv(C) disjoint."""
    if b.dim != c.dim:
        raise PreconditionError("box and polytope dimensions differ")
    _check_bounds(b.lower, bounds)
    _check_bounds(b.upper, bounds)
    common = _find_meeting_point(c, b.polytope(), bounds)
    if common is not None:
        raise PreconditionError("box meets conv(C) at %s; separation undefined" % (common,))


def sep_condition(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> bool:
    """The exact separability criterion for a box against conv(C).

    True means a separating semispace exists (granted B and conv(C) are
    disjoint); false means every semispace fails.  Always true when the
    largest upper coordinate stays below hi, and always true for a
    degenerate box disjoint from the hull.
    """
    _check_disjoint(b, c, bounds)
    return condition_violation(b, c, bounds) is None


def _box_anchor(b: Box, c: Polytope, bounds: SemiringBounds) -> SemispaceId | None:
    """First separating (anchor, index) pair, anchors inside B in lex order.

    A sector holding B pins the anchor.  Index 0 needs the anchor u.
    Index k+1 needs a_k = l_k, a_m = u_m on the tail T = {m : u_m < l_k}
    and a_m >= l_k elsewhere, least at max(l_m, l_k); which generators the
    semispace holds does not depend on those.  Anchors outside B add
    nothing: there a_k <= l_k, and raising a_k to l_k only adds generators.
    """
    lo, up = b.lower.coords, b.upper.coords
    found = []
    if all(v < bounds.hi for v in up) and all(any(x > y for x, y in zip(g, up)) for g in c):
        found.append((up, 0))
    for k, lk in enumerate(lo):
        tail = [m for m in range(b.dim) if up[m] < lk]
        if lk > bounds.lo and all(g[k] < lk or any(g[m] > up[m] for m in tail) for g in c):
            anchor = tuple(up[m] if m in tail else max(lo[m], lk) for m in range(b.dim))
            found.append((anchor, k + 1))
    best = min(found, default=None)
    return None if best is None else semispace(Point(best[0]), best[1], bounds)


def separate_box(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> SemispaceId | NonSeparable:
    """Semispace containing conv(C) with the box in its sector.

    Requires B and conv(C) disjoint.  When the separation condition
    fails, returns NonSeparable with the obstructing hull point; else the
    first separating anchor inside B in lex order (``_box_anchor``),
    re-checked against the generators and the box.
    """
    _check_disjoint(b, c, bounds)
    violation = condition_violation(b, c, bounds)
    if violation is not None:
        return NonSeparable(
            reason="separation condition fails: hull point %s dominates the box floor "
            "and exceeds its ceiling on the frontier" % (violation,),
            witness=violation,
        )
    s = _box_anchor(b, c, bounds)
    if s is None or not (
        all(semispace_contains(s, g) for g in c) and sector_contains_box(s, b.lower, b.upper)
    ):
        raise AssertionError("separation condition holds but no anchor separates; this is a bug")
    return s


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
