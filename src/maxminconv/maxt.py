"""Hulls under generalized t-norms and combinatorial witness searches.

Membership for a max-T hull is decided by residuation and is exact for
every built-in t-norm.  The Radon, Helly, centerpoint and Tverberg
procedures look for the lex-first witness on a finite coordinate grid,
by one search for every norm: floored cyclic projections onto the
homogenized hulls give their greatest common grid point (Gaubert &
Sergeev, "Cyclic projectors and separation theorems in idempotent
convex geometry", 2008), each projection being the principal solution
of Butkovic, "Max-linear Systems" (2010), and a binary search on
coordinate caps turns it into the lex-first grid point.  With the min
t-norm the grid built from the input coordinates is exact: rounding any
witness down to the grid keeps it in every hull at once, so a grid miss
is a genuine miss, and the projections never leave the grid.  So a min
search ignores any grid step: a refined grid holds the exact one, and
its lex-first common point rounds down to an exact-grid common point
that is no lex-greater, hence is that point itself.  The product and
Lukasiewicz norms generate values off that grid; their searches floor
each projection onto a grid refined by a uniform rational step (default
1/100) and report a miss as ResolutionExhausted, naming that grid,
instead of claiming emptiness.  Each question is encoded once: one
search context holds every value of its points, the grid's included,
as an integer numerator over the grid's common denominator, for every
norm, and the groups it searches are tuples of point indices.  The grid
itself is built as those integers (``core.grid_levels``), the multiples
of a step as one integer range.

A centerpoint must lie in the hull of every m0-subset of the n points,
but the subsets are never listed.  The principal coefficient of a
generator does not depend on the subset it is in, so the least of the
subsets' projections is one rank-q projection onto all n points, taking
the q-th largest term with q = n - m0 + 1: a max-min Tukey depth (Tukey,
"Mathematics and the picturing of data", 1975).  One search with that
projection gives the same lex-first witness as the search over every
subset, in time polynomial in n.

Positive results never rely on the search alone.  Every question is
one or more ``_common_point`` calls, and each certifies its witness
once, on the search's integers: the principal coefficients of the grid
point over every part or member must fill each attainment set, with at
least q points for a centerpoint and one otherwise.  The projections
and this certification take each norm's arithmetic from the same two
helpers, ``_principal_levels`` and ``_terms``.  The coefficients travel
with the witness, as Fractions, so a caller can re-check them by forward
evaluation without running residuation again; the CLI does so under
every norm, min included.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import (
    LUKASIEWICZ_TAG,
    MIN,
    MIN_TAG,
    PRODUCT_TAG,
    PreconditionError,
    ResolutionExhausted,
    TNorm,
    grid_levels,
)
from .geometry import Point, _check_bounds, _check_same_dim
from .hull import Polytope

DEFAULT_STEP = Fraction(1, 100)
Encoded = tuple[int, ...]  # a homogenized point as numerators over the grid's denominator
Coefficients = tuple[Fraction, ...]  # one coefficient per generator of a hull


def _validate(pts: Sequence[Point], tnorm: TNorm) -> None:
    if not pts:
        raise PreconditionError("need at least one point")
    for p in pts[1:]:
        _check_same_dim(pts[0], p)
    for p in pts:
        _check_bounds(p, tnorm.bounds)


class NotFound(Exception):
    """Exhaustive search finished without a witness.

    Only raised where existence is an open question; where a theorem
    guarantees a witness, exhaustion trips an AssertionError instead.
    ``grid_step`` (None for the exact min grid) and ``grid_size``, the
    number of values per coordinate, name the grid that was searched.
    """

    def __init__(
        self, message: str, grid_step: Fraction | None = None, grid_size: int | None = None
    ):
        super().__init__(message)
        self.grid_step = grid_step
        self.grid_size = grid_size


@dataclass(frozen=True)
class MaxTMembership:
    member: bool
    coefficients: tuple[Fraction, ...]
    combination: Point

    def __bool__(self) -> bool:
        return self.member


@dataclass(frozen=True)
class TverbergPartition:
    """r parts whose hulls share ``witness``, with its principal
    coefficients over each part."""

    parts: tuple[tuple[int, ...], ...]
    witness: Point
    coefficients: tuple[Coefficients, ...]


@dataclass(frozen=True)
class CommonWitness:
    """A point of every member's hull, with its principal coefficients
    over each member."""

    point: Point
    coefficients: tuple[Coefficients, ...]


@dataclass(frozen=True)
class CounterexampleSubfamily:
    """Members sharing no grid point; ``grid_step`` and ``grid_size``
    name the searched grid as in NotFound."""

    indices: tuple[int, ...]
    grid_step: Fraction | None
    grid_size: int


def _principal(p: Point, generators: Sequence[Point], tnorm: TNorm):
    """Largest coefficient vector keeping the combination below p.

    Precondition: every coordinate of p and of the generators lies inside
    ``tnorm.bounds``.  Each caller has run ``_validate`` on its points, and
    a search witness is a point of the search grid, so the arithmetic is
    the unchecked ``TNorm.residual`` and ``TNorm.apply``.
    """
    lams = tuple(
        min(tnorm.residual(g[j], p[j]) for j in range(p.dim)) for g in generators
    )
    combo = Point(
        tuple(
            max(tnorm.apply(lam, g[j]) for lam, g in zip(lams, generators))
            for j in range(p.dim)
        )
    )
    return lams, combo


def _member_exact(p: Point, generators: Sequence[Point], tnorm: TNorm) -> bool:
    lams, combo = _principal(p, generators, tnorm)
    return combo == p and max(lams) == tnorm.bounds.hi


def hull_member_maxt(p: Point, x: Polytope, tnorm: TNorm = MIN) -> MaxTMembership:
    """Exact hull membership under any built-in t-norm, by residuation.

    Computes the principal coefficients lam*_i = min_j residual(T,
    x_ij, p_j), the largest coefficients whose combination stays at or
    below p in every coordinate.  Any feasible certificate is dominated
    by them: raising a coefficient past lam*_i pushes some coordinate of
    the combination strictly above p.  So p lies in the hull exactly
    when the principal combination reproduces p and the coefficients
    include the unit (the normalization max_i lam_i = hi).
    """
    _validate([p] + list(x.generators), tnorm)
    lams, combo = _principal(p, x.generators, tnorm)
    member = combo == p and max(lams) == tnorm.bounds.hi
    return MaxTMembership(member=member, coefficients=lams, combination=combo)


@dataclass(frozen=True)
class _Search:
    """One witness question over some points, encoded once.

    The grid holds the point coordinates and both bounds, refined by
    ``step`` (None for the exact min grid).  Every value is kept as its
    numerator over ``denom``, the common denominator of the grid:
    ``levels`` for the grid, as ``core.grid_levels`` builds it, ``top``
    for hi, and ``gens[i]`` for point i homogenized to (top, x).
    Groups of generators are tuples of point indices.
    """

    tnorm: TNorm
    step: Fraction | None
    levels: tuple[int, ...]
    denom: int
    top: int
    gens: tuple[Encoded, ...]


def _search(points: Sequence[Point], tnorm: TNorm, grid_step: Fraction | None) -> _Search:
    """The search context of one question; a min search never refines its grid.

    ``grid_levels`` gives the grid's integer levels and denominator
    directly; only the point coordinates and hi are encoded here.
    """
    step = None if tnorm.is_min else (DEFAULT_STEP if grid_step is None else grid_step)
    levels, denom = grid_levels([c for p in points for c in p.coords], tnorm.bounds, step)

    def level(v: Fraction) -> int:
        return v.numerator * (denom // v.denominator)

    top = level(tnorm.bounds.hi)
    gens = tuple((top, *map(level, p.coords)) for p in points)
    return _Search(tnorm, step, levels, denom, top, gens)


def _principal_levels(y: Encoded, gens: Sequence[Encoded], top: int, tag: str) -> list:
    """Principal coefficients lam_i = min_j res(v_ij, y_j), on numerators.

    The residual is taken on numerators over the grid's common
    denominator (top is the numerator of hi): res(a, b) = top if a <= b,
    else b under min and top - a + b under Lukasiewicz, so lam_i is an
    integer numerator.  Under product res(a, b) = b / a, and lam_i is
    kept exact as the ratio (b, a) of two numerators, (1, 1) for hi,
    compared by cross-multiplication.
    """
    if tag == MIN_TAG:
        return [min(top if a <= b else b for a, b in zip(v, y)) for v in gens]
    if tag == LUKASIEWICZ_TAG:
        return [min(top if a <= b else top - a + b for a, b in zip(v, y)) for v in gens]
    ratios = []
    for v in gens:
        num, den = 1, 1
        for a, b in zip(v, y):
            if a > b and b * den < num * a:
                num, den = b, a
        ratios.append((num, den))
    return ratios


def _terms(lams: Sequence, col: Sequence[int], top: int, tag: str) -> list[int]:
    """The terms T(lam_i, v_ij) of one coordinate j, on numerators.

    ``lams`` are the principal coefficients of ``_principal_levels`` and
    ``col`` the j-th numerators of the generators.  Under min and
    Lukasiewicz the terms are exact integers; under product each is
    rounded down.
    """
    if tag == MIN_TAG:
        return [lam if lam < a else a for lam, a in zip(lams, col)]
    if tag == LUKASIEWICZ_TAG:
        return [t - top if (t := lam + a) > top else 0 for lam, a in zip(lams, col)]
    return [num * a // den for (num, den), a in zip(lams, col)]


def _project(
    y: Encoded, gens: Sequence[Encoded], top: int, tag: str, floor: Callable, rank: int = 1
) -> Encoded:
    """Rank-r projection of y onto the semimodule spanned by gens, floored.

    The principal solution (``_principal_levels``), then the r-th largest
    of the terms T(lam_i, v_ij) over i (``_terms``).  Rank 1 is
    max_i T(lam_i, v_ij), the greatest point of the semimodule below y.
    Rank r is the least of those greatest points over every subset of
    len(gens) - r + 1 generators: a subset's max misses at most the
    r - 1 largest terms.  Under min the result is on the grid already;
    under Lukasiewicz and product it is floored onto the grid.
    """
    pick = max if rank == 1 else (lambda terms: sorted(terms, reverse=True)[rank - 1])
    lams = _principal_levels(y, gens, top, tag)
    if tag == MIN_TAG:
        return tuple(pick(_terms(lams, col, top, tag)) for col in zip(*gens))
    return tuple(floor(pick(_terms(lams, col, top, tag))) for col in zip(*gens))


def _attainment(
    search: _Search, gens: Sequence[Encoded], y: Encoded
) -> tuple[Coefficients, tuple[int, ...]]:
    """Principal coefficients of grid point y over gens, and its attainment counts.

    y is a homogenized grid point (top, p).  The counts are the sizes of
    A_0 = {i : lam_i = hi} and A_j = {i : T(lam_i, x_ij) = p_j}, counted
    among the terms of ``_terms``; as T(lam_i, hi) = lam_i, A_0 is the
    attainment set of coordinate 0.  Every term is at most y_j by the
    principal solution, so a product term rounded down equals the
    integer y_j exactly when the term itself does, and the counts are
    exact under every norm.  So p lies in the hull of gens exactly when
    every count is at least 1, and in the hull of every subset that
    leaves out fewer than k of them when every count is at least k.
    The coefficients are returned as the Fractions ``hull_member_maxt``
    computes for p.
    """
    top, tag = search.top, search.tnorm.tag
    lams = _principal_levels(y, gens, top, tag)
    counts = tuple(_terms(lams, col, top, tag).count(b) for col, b in zip(zip(*gens), y))
    if tag == PRODUCT_TAG:
        coefficients = tuple(Fraction(num, den) for num, den in lams)
    else:
        coefficients = tuple(Fraction(lam, search.denom) for lam in lams)
    return coefficients, counts


def _lex_first(
    search: _Search, groups: Sequence[Sequence[Encoded]], rank: int = 1
) -> Encoded | None:
    """Lex-first grid point in every hull, homogenized, by floored cyclic projections.

    Generator x is encoded as (top, x).  ``greatest(y)`` is the greatest
    homogenized grid point below y in every group's semimodule, or None:
    it cycles the floored projections from y until a whole round leaves
    y fixed (Gaubert & Sergeev's cyclic projectors).  A common grid
    point q below y stays below every iterate, as q = P(q) <= P(y) and q
    is on the grid; the iterates only decrease on a finite grid, so the
    loop ends, and at the end P(y) = y for every group.  A floored
    projection need not be idempotent, so a change restarts the round
    count from 0.  It returns None as soon as coordinate 0 drops below
    top: no homogenized hull point lies below y then.

    The hulls share a grid point iff ``greatest`` of the top vector has
    coordinate 0 at top.  Coordinate by coordinate, a binary search
    finds the smallest cap x_j <= v that keeps a common grid point; the
    greatest point under the final caps is the caps themselves, the
    lex-first witness.  Each run starts from the last greatest point
    with the cap applied: the iterates only decrease, so the cap holds
    throughout and the run ends at the greatest point under the new
    caps.  That takes O(d log k) runs.  With rank r each projection is
    the rank-r one, and the hulls are those of every subset of
    len(group) - r + 1 members of a group.
    """
    levels, top, tag = search.levels, search.top, search.tnorm.tag

    def floor(x: int) -> int:
        return levels[bisect_right(levels, x) - 1]

    def greatest(y: Encoded) -> Encoded | None:
        unchanged = i = 0
        while unchanged < len(groups):
            z = _project(y, groups[i], top, tag, floor, rank)
            if z[0] != top:
                return None
            unchanged = unchanged + 1 if z == y else 0
            y = z
            i = (i + 1) % len(groups)
        return y

    d = len(groups[0][0]) - 1
    y = greatest((top,) * (d + 1))
    if y is None:
        return None
    for j in range(1, d + 1):
        lo, hi = 0, bisect_left(levels, y[j])
        while lo < hi:
            mid = (lo + hi) // 2
            z = greatest(y[:j] + (levels[mid],) + y[j + 1:])
            if z is None:
                lo = mid + 1
            else:
                hi, y = bisect_left(levels, z[j]), z
    return y


def _boxes_apart(groups: Sequence[Sequence[Encoded]]) -> bool:
    """Whether, in some coordinate, the groups' [min, max] ranges share no value."""
    columns = [list(zip(*g)) for g in groups]
    return any(max(map(min, c)) > min(map(max, c)) for c in zip(*columns))


def _common_point(
    search: _Search, groups: Sequence[Sequence[int]], rank: int = 1
) -> CommonWitness | None:
    """Lex-first grid point lying in the hull of every group, or None.

    Each group is a tuple of point indices.  One search for every norm:
    floored cyclic projections onto the homogenized hulls
    (``_lex_first``).  With rank r the hulls are those of every subset
    of len(group) - r + 1 members of a group.  A hit is certified on the
    search's integers before it is returned: over each group every
    attainment count of its principal coefficients must be at least r
    (``_attainment``); with r = 1 they reproduce it with a unit
    coefficient.  They are returned with it, one tuple per group.

    With three or more groups a box test comes first.  A max-T
    combination with a unit coefficient lies in the coordinatewise
    [min, max] box of its generators, as T(hi, x) = x and T(lam, x) <= x.
    So when, in some coordinate, the largest group minimum exceeds the
    smallest group maximum, the hulls share no point at all and the
    search would miss: None is returned without it.  Two groups skip the
    test: their alternating projections already end a box-disjoint
    search within three projections, so it would only add work.
    """
    gens = [[search.gens[i] for i in g] for g in groups]
    if len(gens) > 2 and _boxes_apart(gens):
        return None
    y = _lex_first(search, gens, rank)
    if y is None:
        return None
    coefficients = []
    for g in gens:
        lams, counts = _attainment(search, g, y)
        if min(counts) < rank:
            raise AssertionError("search witness failed exact re-verification")
        coefficients.append(lams)
    point = Point(tuple(Fraction(e, search.denom) for e in y[1:]))
    return CommonWitness(point=point, coefficients=tuple(coefficients))


def _grid_text(search: _Search) -> str:
    text = "%d values per coordinate" % len(search.levels)
    return text if search.step is None else text + ", step %s" % search.step


def _miss(search: _Search, what: str) -> Exception:
    if search.tnorm.is_min:
        return AssertionError(
            "soundness alarm: no %s on the exact grid (%s), "
            "contradicting the existence guarantee" % (what, _grid_text(search))
        )
    return ResolutionExhausted(
        "no %s on the search grid (%s); retry with a finer grid_step"
        % (what, _grid_text(search)),
        grid_step=search.step,
        grid_size=len(search.levels),
    )


def radon_partition(
    points: Sequence[Point],
    tnorm: TNorm = MIN,
    grid_step: Fraction | None = None,
) -> TverbergPartition:
    """Split d+2 points into two parts whose hulls share a point.

    Partitions are tried in ascending bitmask order with index 0 pinned
    to the first part, and for each one the grid is searched for a
    common witness.  Existence holds for every built-in t-norm, so with
    min arithmetic a full miss is an internal error; for the other
    norms it surfaces as ResolutionExhausted.  The answer is the
    two-part Tverberg partition, which ``tverberg_search`` returns at r = 2.
    """
    pts = list(points)
    _validate(pts, tnorm)
    d = pts[0].dim
    n = len(pts)
    if n != d + 2:
        raise PreconditionError("need %d points in dimension %d, got %d" % (d + 2, d, n))
    search = _search(pts, tnorm, grid_step)
    for mask in range(1, 1 << (n - 1)):
        part2 = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        part1 = tuple(i for i in range(n) if i not in part2)
        hit = _common_point(search, (part1, part2))
        if hit is not None:
            return TverbergPartition((part1, part2), hit.point, hit.coefficients)
    raise _miss(search, "Radon witness")


def helly_check(
    family: Sequence[Polytope],
    tnorm: TNorm = MIN,
    grid_step: Fraction | None = None,
) -> CommonWitness | CounterexampleSubfamily:
    """Common point of the family, or the first (d+1)-subfamily without one.

    The whole family is searched first.  All searches of one question run
    on the same grid, so a family-wide hit is a common grid point of every
    subfamily as well, and it is the witness a subfamily-first order would
    return.  Only on a miss are the subfamilies of size min(d+1,
    len(family)) searched, in ``itertools.combinations`` order; the first
    one without a common grid point is the counterexample to the d+1
    intersection hypothesis.  When all of them meet, the grid is too
    coarse for the family (``_miss``).
    """
    polys = list(family)
    if not polys:
        raise PreconditionError("empty family")
    all_points = [p for poly in polys for p in poly.generators]
    _validate(all_points, tnorm)
    d = all_points[0].dim
    search = _search(all_points, tnorm, grid_step)
    ends = itertools.accumulate(len(poly) for poly in polys)
    members = [range(end - len(poly), end) for poly, end in zip(polys, ends)]
    witness = _common_point(search, members)
    if witness is not None:
        return witness
    k = min(d + 1, len(polys))
    for subset in itertools.combinations(range(len(polys)), k):
        # with k == len(polys) the one subset is the family just searched
        if k == len(polys) or _common_point(search, [members[i] for i in subset]) is None:
            return CounterexampleSubfamily(
                indices=subset, grid_step=search.step, grid_size=len(search.levels)
            )
    raise _miss(search, "family-wide witness")


def attainment_counts(p: Point, points: Sequence[Point], tnorm: TNorm = MIN) -> tuple[int, ...]:
    """Sizes of the attainment sets A_0, A_1, ..., A_d of p over points.

    With the principal coefficients lam_i of p (see ``hull_member_maxt``),
    A_0 = {i : lam_i = hi} and A_j = {i : T(lam_i, x_ij) = p_j}.  A subset
    S of the points holds p in its hull exactly when S meets every A_j, so
    p lies in the hull of every m-subset exactly when each count is at
    least len(points) - m + 1.  Exact rational arithmetic throughout.
    """
    _validate([p] + list(points), tnorm)
    hi = tnorm.bounds.hi
    lams = [min(tnorm.residual(x[j], p[j]) for j in range(p.dim)) for x in points]
    return (sum(lam == hi for lam in lams),) + tuple(
        sum(tnorm.apply(lam, x[j]) == p[j] for lam, x in zip(lams, points))
        for j in range(p.dim)
    )


def centerpoint(
    points: Sequence[Point],
    tnorm: TNorm = MIN,
    grid_step: Fraction | None = None,
) -> CommonWitness:
    """Point lying in the hull of every subset larger than dn/(d+1).

    Equivalently, a common point of the hulls of all subsets of size
    m0 = floor(dn/(d+1)) + 1: a point of max-T Tukey depth at least
    q = n - m0 + 1.  The principal coefficients of a point do not depend
    on the subset, so the least projection onto those hulls is one
    rank-q projection onto all n points, and one search with rank q
    gives the lex-first grid point in every m0-subset hull
    (``_common_point`` with rank q and the one group of all n points).
    The witness is certified by its attainment counts over all n points,
    on the search's integers: each must be at least q.  It is returned
    as that search's hit: one group, so one coefficient tuple over all n
    points.
    """
    pts = list(points)
    _validate(pts, tnorm)
    d = pts[0].dim
    n = len(pts)
    q = n - (d * n) // (d + 1)
    search = _search(pts, tnorm, grid_step)
    hit = _common_point(search, [range(n)], q)
    if hit is None:
        raise _miss(search, "centerpoint")
    return hit


def _is_prime_power(r: int) -> bool:
    p = 2
    while p * p <= r:
        if r % p == 0:
            while r % p == 0:
                r //= p
            return r == 1
        p += 1
    return r > 1


def _partitions_into(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Partitions of range(n) into exactly r blocks, as growth strings.

    A growth string assigns each index the number of its block, where a
    new block may only open once all earlier ones have; enumeration is
    lexicographic, so block 0 always contains index 0.
    """
    a = [0] * n

    def rec(i: int, m: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if m == r - 1:
                yield tuple(a)
            return
        if m + (n - i) < r - 1:
            return
        for v in range(min(m + 1, r - 1) + 1):
            a[i] = v
            yield from rec(i + 1, max(m, v))

    yield from rec(1, 0)


def tverberg_search(
    points: Sequence[Point],
    r: int,
    tnorm: TNorm = MIN,
    grid_step: Fraction | None = None,
) -> TverbergPartition:
    """Search for r disjoint parts of (d+1)(r-1)+1 points with a common hull point.

    Exhausts partitions into exactly r blocks in lexicographic growth
    string order.  For prime-power r existence is guaranteed, so an
    exact-grid miss with the min t-norm is an internal error; for other
    r the question is open and the miss is reported as NotFound.
    """
    if r < 2:
        raise PreconditionError("need r >= 2")
    pts = list(points)
    _validate(pts, tnorm)
    d = pts[0].dim
    n = len(pts)
    if n != (d + 1) * (r - 1) + 1:
        raise PreconditionError(
            "need %d points for r=%d in dimension %d, got %d"
            % ((d + 1) * (r - 1) + 1, r, d, n)
        )
    if r == 2:
        return radon_partition(pts, tnorm, grid_step)
    search = _search(pts, tnorm, grid_step)
    for labels in _partitions_into(n, r):
        parts = tuple(
            tuple(i for i in range(n) if labels[i] == b) for b in range(r)
        )
        hit = _common_point(search, parts)
        if hit is not None:
            return TverbergPartition(parts, hit.point, hit.coefficients)
    if not tnorm.is_min or _is_prime_power(r):
        raise _miss(search, "Tverberg witness")
    raise NotFound(
        "no partition into %d parts shares a hull point on the exact grid (%s); "
        "existence for this r is an open question" % (r, _grid_text(search)),
        grid_step=search.step,
        grid_size=len(search.levels),
    )
