"""Shared helpers for the test suite: random rational instances.

Random coordinates are drawn from small fixed-denominator grids so
every value stays an exact Fraction and oracle grids stay small.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from maxminconv import Point, Polytope
from maxminconv.core import (
    MAX_STEP_VALUES,
    DomainError,
    PreconditionError,
    as_value,
    common_denominator,
    tnorm_apply,
)
from maxminconv.maxt import DEFAULT_STEP, _common_point, _member_exact, _search


def rational(rng: random.Random, den: int = 8) -> Fraction:
    return Fraction(rng.randrange(0, den + 1), den)


def interior_rational(rng: random.Random, den: int = 8) -> Fraction:
    """A value strictly between the unit bounds."""
    return Fraction(rng.randrange(1, den), den)


def random_point(rng: random.Random, d: int, den: int = 8) -> Point:
    return Point(tuple(rational(rng, den) for _ in range(d)))


def random_interior_point(rng: random.Random, d: int, den: int = 8) -> Point:
    return Point(tuple(interior_rational(rng, den) for _ in range(d)))


def random_polytope(rng: random.Random, d: int, n: int, den: int = 8) -> Polytope:
    return Polytope(tuple(random_point(rng, d, den) for _ in range(n)))


def comparable_pair(rng: random.Random, d: int, den: int = 8) -> tuple[Point, Point]:
    """A pair x <= y, componentwise."""
    a = random_point(rng, d, den)
    b = random_point(rng, d, den)
    return a.meet(b), a.join(b)


def planted_join_instance(rng: random.Random, d: int, den: int = 10) -> list[Point]:
    """d+2 points containing the join of the others at a random slot.

    Product witnesses can need denominators the default search grid does
    not reach, so random product/Lukasiewicz Radon instances are seeded
    with their own join: the split {join} vs rest always admits the join
    itself as a common point, and joins of grid coordinates stay on the
    grid.
    """
    base = [random_point(rng, d, den=den) for _ in range(d + 1)]
    joined = base[0]
    for q in base[1:]:
        joined = joined.join(q)
    pts = base + [joined]
    rng.shuffle(pts)
    return pts


def search_common_point(groups, tnorm, grid_step=None):
    """``maxt._common_point`` on groups of points, and the grid it searched.

    Builds one search over the points of every group, as the witness
    searches do, and passes each group as the tuple of its indices.  The
    grid is read back from the search's levels over its denominator.
    """
    search = _search([q for g in groups for q in g], tnorm, grid_step)
    ends = itertools.accumulate(len(g) for g in groups)
    indices = [tuple(range(end - len(g), end)) for g, end in zip(groups, ends)]
    grid = tuple(Fraction(level, search.denom) for level in search.levels)
    return _common_point(search, indices), grid


def common_point_exact(groups, tnorm, grid):
    """Lex-first grid point in the hull of every group, by a Fraction scan.

    The reference for ``maxt._common_point``: every point of the k^d
    grid in lex order, each tested by exact residuation.
    """
    d = groups[0][0].dim
    for combo in itertools.product(grid, repeat=d):
        q = Point(combo)
        if all(_member_exact(q, g, tnorm) for g in groups):
            return q
    return None


def brute_hull_member_loop(p, generators, grid, tnorm):
    """Hull membership by a plain Fraction loop over coefficient tuples.

    The reference for ``oracle.brute_hull_members``: every tuple of grid
    coefficients whose maximum is hi, each combination evaluated with the
    checked ``tnorm_apply``.
    """
    values = grid.axis_values()
    hi = grid.bounds.hi
    for lam in itertools.product(values, repeat=len(generators)):
        if max(lam) != hi:
            continue
        if all(
            max(tnorm_apply(tnorm, l, g[j]) for l, g in zip(lam, generators)) == p[j]
            for j in range(p.dim)
        ):
            return True
    return False


def value_grid_loop(values, bounds, step=None):
    """The search grid as sorted Fractions, each step multiple by addition.

    The reference for ``core.grid_levels``: the bounds, every value and
    every multiple of step inside the bounds, gathered as Fractions in a
    set, with the same three refusals in the same order.
    """
    grid = {bounds.lo, bounds.hi}
    for v in values:
        if not bounds.contains(v):
            raise DomainError("grid value %s outside bounds %s" % (v, bounds))
        grid.add(v)
    if step is not None:
        step = as_value(step)
        if step <= 0:
            raise ValueError("grid step must be positive")
        k = -(-bounds.lo // step)  # ceil division
        count = bounds.hi // step - k + 1
        if count > MAX_STEP_VALUES:
            raise PreconditionError(
                "grid step %s puts %d values in %s, more than the %d a search accepts"
                % (step, count, bounds, MAX_STEP_VALUES)
            )
        v = k * step
        while v <= bounds.hi:
            grid.add(v)
            v += step
    return tuple(sorted(grid))


def search_encoding_loop(points, tnorm, grid_step):
    """``(levels, denom, top, gens)`` of a search, from ``value_grid_loop``.

    The reference for ``maxt._search``: the Fraction grid first, then
    every value, the grid's included, as its numerator over the grid's
    common denominator.
    """
    step = None if tnorm.is_min else (DEFAULT_STEP if grid_step is None else grid_step)
    grid = value_grid_loop([c for p in points for c in p.coords], tnorm.bounds, step)
    denom = common_denominator(grid)

    def level(v):
        return v.numerator * (denom // v.denominator)

    top = level(tnorm.bounds.hi)
    gens = tuple((top, *map(level, p.coords)) for p in points)
    return tuple(map(level, grid)), denom, top, gens
