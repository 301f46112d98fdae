"""Max-min convex hulls: membership, Caratheodory reduction, colorful points.

A point p belongs to the hull of generators X exactly when every sector
of p with a valid index contains a generator.  This gives a certificate
in both directions: a witness generator per sector when p is inside, and
a separating semispace index when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import PreconditionError, SemiringBounds, TNorm, MIN, UNIT, tnorm_apply
from .geometry import Point, _check_bounds, _check_same_dim
from .koenig import internal_separation
from .semispaces import SemispaceId, _index_set, sector_test, semispace


@dataclass(frozen=True)
class Polytope:
    """Finitely generated max-min convex set, kept as its generators.

    Duplicate generators are dropped on construction (first occurrence
    wins), so generator indices are stable and canonical.
    """

    generators: tuple[Point, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise PreconditionError("polytope needs at least one generator")
        d = gens[0].dim
        if any(g.dim != d for g in gens):
            raise PreconditionError("generators have mixed dimensions")
        unique = {}
        for g in gens:
            unique.setdefault(g.coords, g)
        object.__setattr__(self, "generators", tuple(unique.values()))

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def polytope(rows: Iterable[Sequence]) -> Polytope:
    from .geometry import parse_points

    return Polytope(parse_points(rows))


def combination(x: Sequence[Point], lam: Sequence[Fraction], tnorm: TNorm = MIN) -> Point:
    """Evaluate the combination max_i T(lam_i, x_i) componentwise."""
    if len(x) != len(lam):
        raise PreconditionError("need one coefficient per point")
    d = x[0].dim
    out = []
    for j in range(d):
        out.append(max(tnorm_apply(tnorm, l, p[j]) for l, p in zip(lam, x)))
    return Point(tuple(out))


@dataclass(frozen=True)
class HullMembership:
    """Outcome of a hull membership test.

    ``witnesses`` maps each valid sector index to the smallest generator
    index inside that sector (members only); ``separating_index`` is the
    smallest valid index whose sector misses all generators (non-members
    only), so S_separating_index(p) contains every generator.
    """

    member: bool
    witnesses: dict[int, int] | None = None
    separating_index: int | None = None


def _first_in_sector(s: SemispaceId, x: Polytope) -> int | None:
    """Index of the first generator of x inside the sector of s, None if none is."""
    _check_same_dim(s.anchor, x.generators[0])
    inside = sector_test(s)
    return next((k for k, g in enumerate(x) if inside(g)), None)


def hull_member(p: Point, x: Polytope, bounds: SemiringBounds = UNIT) -> HullMembership:
    """Exact membership of p in the max-min hull of x.

    Checks each sector of p for a generator; by the multiorder principle
    p is in the hull exactly when all checks succeed.
    """
    if p.dim != x.dim:
        raise PreconditionError("point and polytope dimensions differ")
    _check_bounds(p, bounds)
    for g in x:
        _check_bounds(g, bounds)
    witnesses: dict[int, int] = {}
    for i in _index_set(p, bounds):
        hit = _first_in_sector(SemispaceId(p, i), x)
        if hit is None:
            return HullMembership(member=False, separating_index=i)
        witnesses[i] = hit
    return HullMembership(member=True, witnesses=witnesses)


def caratheodory_reduce(p: Point, x: Polytope, bounds: SemiringBounds = UNIT) -> tuple[Polytope, tuple[int, ...]]:
    """Sub-polytope of at most d + 1 generators still containing p.

    Takes one witness generator per sector of p and re-verifies.  The
    returned indices refer to the canonical generator order of ``x``.
    """
    result = hull_member(p, x, bounds)
    if not result.member:
        raise PreconditionError("point %s is outside the hull, nothing to reduce" % (p,))
    assert result.witnesses is not None
    indices = tuple(sorted(set(result.witnesses.values())))
    reduced = Polytope(tuple(x.generators[k] for k in indices))
    check = hull_member(p, reduced, bounds)
    if not check.member:
        raise AssertionError("caratheodory reduction lost the point; this is a bug")
    return reduced, indices


def colorful_weak(p: Point, colors: Sequence[Polytope], bounds: SemiringBounds = UNIT) -> dict[int, int]:
    """Colorful choice for a point in every color class hull.

    Given d + 1 color classes whose hulls all contain p, selects one
    generator per used color so that p lies in the hull of the selection.
    Color i serves sector i; colors with an invalid index are unused.
    Returns {color index: generator index}.
    """
    d = p.dim
    if len(colors) != d + 1:
        raise PreconditionError("need exactly d + 1 = %d color classes" % (d + 1))
    choice: dict[int, int] = {}
    for i, cls in enumerate(colors):
        if cls.dim != d:
            raise PreconditionError("color %d has wrong dimension" % i)
        membership = hull_member(p, cls, bounds)
        if not membership.member:
            raise PreconditionError("p is outside the hull of color %d" % i)
        # the first generator of color i in sector i of p, when i is valid
        if i in membership.witnesses:
            choice[i] = membership.witnesses[i]
    selection = Polytope(tuple(colors[i].generators[k] for i, k in sorted(choice.items())))
    if not hull_member(p, selection, bounds).member:
        raise AssertionError("colorful selection lost the point; this is a bug")
    return choice


@dataclass(frozen=True)
class ColorfulStrongResult:
    """Certificate for the strong colorful theorem.

    ``witness`` lies in conv(C) and in the hull of one generator per
    color (``choice`` maps color -> generator index).  ``meeting_points``
    are the hull intersection points the construction went through, and
    ``assignment`` maps color -> sector index used for the selection.
    ``extended`` records whether the internal separation step ran in the
    widened bounds because a meeting point touched the original ones.
    """

    witness: Point
    choice: dict[int, int]
    meeting_points: tuple[Point, ...]
    assignment: dict[int, int]
    extended: bool


def _find_meeting_point(c: Polytope, cls: Polytope, bounds: SemiringBounds) -> Point | None:
    """Lexicographically smallest grid point in conv(C) and conv(cls).

    The search grid (all input coordinates plus the bounds) is exact for
    the min t-norm: hull membership only depends on how a point's
    coordinates interleave with the generator coordinates, so rounding a
    common point down to the grid keeps it in both hulls.  The search is
    the shared min witness search of ``maxt`` on these bounds: one
    search context over the generators of both, whose two groups are
    the index ranges of C and of cls, and cyclic projections onto the
    two homogenized hulls.
    """
    from .maxt import _common_point, _search

    search = _search(c.generators + cls.generators, TNorm("min", bounds), None)
    n = len(c)
    hit = _common_point(search, (range(n), range(n, n + len(cls))))
    return None if hit is None else hit.point


def colorful_strong(
    c: Polytope,
    colors: Sequence[Polytope],
    bounds: SemiringBounds = UNIT,
) -> ColorfulStrongResult:
    """Common point of conv(C) and a colorful hull.

    Requires every color class hull to meet conv(C).  The construction
    picks a meeting point per color, separates them internally and uses
    the resulting sectors to select one generator per color.  When a
    meeting point touches the bounds the separation runs in the widened
    bounds, which leaves all hulls unchanged.
    """
    d = c.dim
    if len(colors) != d + 1:
        raise PreconditionError("need exactly d + 1 = %d color classes" % (d + 1))
    pts: list[Point] = []
    for i, cls in enumerate(colors):
        q = _find_meeting_point(c, cls, bounds)
        if q is None:
            raise PreconditionError("conv(C) does not meet the hull of color %d" % i)
        pts.append(q)

    extended = not all(bounds.interior(v) for q in pts for v in q.coords)
    work_bounds = bounds.extended() if extended else bounds
    witness, assignment = internal_separation(pts, work_bounds)

    choice: dict[int, int] = {}
    for i in range(d + 1):
        sector_idx = assignment[i]
        hit = _first_in_sector(semispace(witness, sector_idx, work_bounds), colors[i])
        # the meeting point of color i sits in this sector, and a full
        # semispace cannot swallow a hull while missing every generator
        if hit is None:
            raise AssertionError("sector %d misses color %d; this is a bug" % (sector_idx, i))
        choice[i] = hit

    selection = Polytope(tuple(colors[i].generators[k] for i, k in sorted(choice.items())))
    if not hull_member(witness, selection, bounds).member:
        raise AssertionError("strong colorful selection lost the witness; this is a bug")
    if not hull_member(witness, c, bounds).member:
        raise AssertionError("strong colorful witness escaped conv(C); this is a bug")
    return ColorfulStrongResult(
        witness=witness,
        choice=choice,
        meeting_points=tuple(pts),
        assignment=assignment,
        extended=extended,
    )
