"""Separating boxes and points from max-min hulls by semispaces.

Semispaces are max-min convex, so a semispace containing every generator
of C contains the whole hull; separating a set from conv(C) means
finding such a semispace whose complement sector holds the set.

Separation of a box B = [l, u] is not always possible even when B and
conv(C) are disjoint.  The sectors of one index that hold B have a least
member, the sector of a canonical anchor inside B (``_least_sectors``),
and an index is invalid for every anchor whose sector holds B when u
reaches hi (index 0) or l_k = lo (index k+1).  So B is separable
exactly when some valid index has a least sector missing every
generator.  Otherwise each index is blocked, by its invalidity or by a
generator in its least sector, and these blockers certify that no
semispace separates.

The box is the max-min hull of l and the d points raising l_j to u_j,
so "does B meet conv(C)?" goes to the shared min search of ``maxt``
(cyclic projections).  Nothing scans a grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import PreconditionError, SemiringBounds, UNIT
from .geometry import Point, _check_bounds, _check_same_dim
from .hull import HullMembership, Polytope, _find_meeting_point, _first_in_sector, hull_member
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

    ``blockers`` has one entry per index 0..d: the least semispace of that
    index whose sector holds the box, with the first generator inside that
    sector, or (None, None) when the index is invalid for every anchor
    whose sector holds the box.
    """

    reason: str
    blockers: tuple[tuple[SemispaceId | None, int | None], ...]


def separate_point(p: Point, c: Polytope, bounds: SemiringBounds = UNIT) -> SemispaceId | PointInHull:
    """Semispace containing conv(C) but not p, when p is outside.

    The separating index is the first sector of p with no generator,
    handed over by the membership test.
    """
    res = hull_member(p, c, bounds)
    if res.member:
        return PointInHull(res)
    assert res.separating_index is not None
    s = SemispaceId(p, res.separating_index)
    for g in c:
        if not semispace_contains(s, g):
            raise AssertionError("separating semispace misses a generator; this is a bug")
    return s


def _least_sectors(
    b: Box, c: Polytope, bounds: SemiringBounds
) -> list[tuple[tuple[Fraction, ...], int | None] | None]:
    """Per index 0..d, the anchor of the least sector holding B and the first
    generator inside that sector (None if it misses them all); None in place
    of the pair when the index is invalid for every anchor whose sector
    holds B.

    A sector of index 0 holds B when u <= a, least at a = u, valid when
    u < hi.  One of index k+1 holds B when a_k <= l_k and a_m >= u_m on its
    tail {m : a_m < a_k}, valid when a_k > lo.  The anchor a_k = l_k,
    a_m = u_m on T = {m : u_m < l_k} and max(l_m, l_k) elsewhere gives
    {q : q_k >= l_k, q_m <= u_m on T}, which lies inside every other such
    sector (any tail coordinate m has u_m <= a_m < a_k <= l_k).  It is the
    lex-first anchor inside B with that sector.
    """
    lo, up = b.lower.coords, b.upper.coords
    out = [
        (up, _first_in_sector(SemispaceId(b.upper, 0), c))
        if all(v < bounds.hi for v in up) else None
    ]
    for k, lk in enumerate(lo):
        anchor = tuple(um if um < lk else max(lm, lk) for lm, um in zip(lo, up))
        out.append(
            (anchor, _first_in_sector(SemispaceId(Point(anchor), k + 1), c))
            if lk > bounds.lo else None
        )
    return out


def separate_box(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> SemispaceId | NonSeparable:
    """Semispace containing conv(C) with the box in its sector.

    Requires B and conv(C) disjoint.  Decides on the least sector of each
    index that holds B (``_least_sectors``).  Returns the lex-first
    (anchor, index) whose least sector misses every generator, which is
    the first separating anchor inside B in lex order, re-checked against
    the generators and the box.  When there is none, returns NonSeparable
    with one blocker per index.
    """
    if b.dim != c.dim:
        raise PreconditionError("box and polytope dimensions differ")
    _check_bounds(b.lower, bounds)
    _check_bounds(b.upper, bounds)
    common = _find_meeting_point(c, b.polytope(), bounds)
    if common is not None:
        raise PreconditionError("box meets conv(C) at %s; separation undefined" % (common,))
    least = _least_sectors(b, c, bounds)
    found = [(e[0], i) for i, e in enumerate(least) if e is not None and e[1] is None]
    if found:
        anchor, index = min(found)
        s = semispace(Point(anchor), index, bounds)
        if not (
            all(semispace_contains(s, g) for g in c) and sector_contains_box(s, b.lower, b.upper)
        ):
            raise AssertionError("separating semispace fails its re-check; this is a bug")
        return s
    blockers = tuple(
        (None, None) if e is None else (semispace(Point(e[0]), i, bounds), e[1])
        for i, e in enumerate(least)
    )
    return NonSeparable(
        reason="no semispace separates the box from conv(C): each index is invalid "
        "or has a generator in its least sector holding the box",
        blockers=blockers,
    )


def sep_condition(b: Box, c: Polytope, bounds: SemiringBounds = UNIT) -> bool:
    """The exact separability criterion for a box against conv(C).

    True means a separating semispace exists (granted B and conv(C) are
    disjoint); false means every semispace fails, as the blockers of
    ``separate_box`` certify.  Always true when the largest upper
    coordinate stays below hi, and always true for a degenerate box
    disjoint from the hull.
    """
    return not isinstance(separate_box(b, c, bounds), NonSeparable)


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
