"""Shared helpers for the test suite: random rational instances.

Random coordinates are drawn from small fixed-denominator grids so
every value stays an exact Fraction and oracle grids stay small.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Any, Mapping, Sequence

from maxminconv import Point, Polytope
from maxminconv.core import (
    MAX_STEP_VALUES,
    UNIT,
    DomainError,
    PreconditionError,
    SemiringBounds,
    TNorm,
    as_value,
    common_denominator,
    tnorm_apply,
)
from maxminconv.instance import (
    _SECTIONS,
    SCHEMA_VERSION,
    Instance,
    _check_dim,
    _fail,
    _named,
)
from maxminconv.koenig import Matrix
from maxminconv.semispaces import Hyperplane
from maxminconv.separation import Box
from maxminconv.maxt import (
    DEFAULT_STEP,
    CounterexampleSubfamily,
    _common_point,
    _lex_first,
    _member_exact,
    _miss,
    _search,
    _validate,
)


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


def search_groups(groups, tnorm, grid_step=None):
    """One search over the points of every group, and each group's indices.

    The search is built as the witness searches build theirs, and each
    group becomes the tuple of its points' indices in it.
    """
    search = _search([q for g in groups for q in g], tnorm, grid_step)
    ends = itertools.accumulate(len(g) for g in groups)
    return search, [tuple(range(end - len(g), end)) for g, end in zip(groups, ends)]


def search_common_point(groups, tnorm, grid_step=None):
    """``maxt._common_point`` on groups of points, and the grid it searched.

    The grid is read back from the search's levels over its denominator.
    """
    search, indices = search_groups(groups, tnorm, grid_step)
    grid = tuple(Fraction(level, search.denom) for level in search.levels)
    hit = _common_point(search, indices)
    return None if hit is None else hit.point, grid


def common_point_unfiltered(groups, tnorm):
    """The point of ``maxt._common_point`` on groups of points, without its box test.

    The reference for the box test: every set of groups, box-disjoint or
    not, is searched by ``_lex_first``, and a hit is re-verified by
    Fraction residuation.
    """
    search, indices = search_groups(groups, tnorm)
    y = _lex_first(search, [[search.gens[i] for i in g] for g in indices])
    if y is None:
        return None
    q = Point(tuple(Fraction(e, search.denom) for e in y[1:]))
    for g in groups:
        if not _member_exact(q, g, tnorm):
            raise AssertionError("search witness failed exact re-verification")
    return q


def boxes_apart(groups):
    """Whether, in some coordinate, the groups of points have disjoint [min, max] ranges.

    Decided on the Fraction coordinates: the largest group minimum
    exceeds the smallest group maximum.
    """
    return any(
        max(min(p[j] for p in g) for g in groups) > min(max(p[j] for p in g) for g in groups)
        for j in range(groups[0][0].dim)
    )


def helly_check_subfamilies_first(family, tnorm, grid_step=None):
    """``maxt.helly_check`` in the subfamily-first order.

    The reference for the family-wide search first: every subfamily of
    size min(d+1, len(family)) is searched before the whole family, and
    the first one without a common grid point is the counterexample.
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
    k = min(d + 1, len(polys))
    for subset in itertools.combinations(range(len(polys)), k):
        if _common_point(search, [members[i] for i in subset]) is None:
            return CounterexampleSubfamily(
                indices=subset, grid_step=search.step, grid_size=len(search.levels)
            )
    witness = _common_point(search, members)
    if witness is None:
        raise _miss(search, "family-wide witness")
    return witness


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


def _value_loop(raw, path):
    try:
        return as_value(raw)
    except (ValueError, TypeError) as exc:
        raise _fail(path, str(exc)) from None


def _values_loop(raw, path):
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise _fail(path, "expected a list of numerals")
    return tuple(_value_loop(v, "%s[%d]" % (path, i)) for i, v in enumerate(raw))


def instance_from_dict_loop(doc):
    """``instance.instance_from_dict`` with one conversion per coordinate.

    The reference for the numeral table of ``instance_from_dict``: every
    coordinate is converted, path-named and checked against the bounds
    where it stands, with the same errors in the same order.
    """
    for key in doc:
        if key not in _SECTIONS:
            raise _fail(key, "unknown section (known: %s)" % (", ".join(_SECTIONS)))
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise _fail("schema", "expected %d, got %r" % (SCHEMA_VERSION, schema))

    raw_bounds = doc.get("bounds")
    if raw_bounds is None:
        bounds = UNIT
    else:
        pair = _values_loop(raw_bounds, "bounds")
        if len(pair) != 2:
            raise _fail("bounds", "expected [lo, hi]")
        bounds = SemiringBounds(pair[0], pair[1])

    tag = doc.get("tnorm", "min")
    try:
        tnorm = TNorm(tag, bounds)
    except ValueError as exc:
        raise _fail("tnorm", str(exc)) from None

    dimension = doc.get("dimension")
    if dimension is not None and (
        isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1
    ):
        raise _fail("dimension", "expected a positive integer, got %r" % (dimension,))
    dim = dimension

    grid_step = None
    if doc.get("grid_step") is not None:
        grid_step = _value_loop(doc["grid_step"], "grid_step")
        if grid_step <= 0:
            raise _fail("grid_step", "must be positive")

    def in_bounds(values: tuple[Fraction, ...], path: str) -> tuple[Fraction, ...]:
        for v in values:
            if not bounds.contains(v):
                raise _fail(path, "value %s outside bounds %s" % (v, bounds))
        return values

    def parse_point(raw: Any, path: str) -> Point:
        nonlocal dim
        coords = _values_loop(raw, path)
        if not coords:
            raise _fail(path, "empty point")
        dim = _check_dim(dim, len(coords), path)
        return Point(in_bounds(coords, path))

    def parse_point_list(raw: Any, path: str) -> tuple[Point, ...]:
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise _fail(path, "expected a list of points")
        return tuple(
            parse_point(row, "%s[%d]" % (path, i)) for i, row in enumerate(raw)
        )

    points = {
        name: parse_point(raw, "points.%s" % name)
        for name, raw in _named(doc.get("points"), "points").items()
    }
    pointsets = {
        name: parse_point_list(raw, "pointsets.%s" % name)
        for name, raw in _named(doc.get("pointsets"), "pointsets").items()
    }
    polytopes = {}
    for name, raw in _named(doc.get("polytopes"), "polytopes").items():
        path = "polytopes.%s" % name
        rows = parse_point_list(raw, path)
        if not rows:
            raise _fail(path, "a polytope needs at least one generator")
        polytopes[name] = Polytope(rows)

    boxes = {}
    for name, raw in _named(doc.get("boxes"), "boxes").items():
        path = "boxes.%s" % name
        if not isinstance(raw, Mapping) or set(raw) != {"lower", "upper"}:
            raise _fail(path, 'expected {"lower": [...], "upper": [...]}')
        lower = parse_point(raw["lower"], path + ".lower")
        upper = parse_point(raw["upper"], path + ".upper")
        try:
            boxes[name] = Box(lower, upper)
        except ValueError as exc:
            raise _fail(path, str(exc)) from None

    matrices = {}
    for name, raw in _named(doc.get("matrices"), "matrices").items():
        path = "matrices.%s" % name
        if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
            raise _fail(path, "expected a non-empty list of rows")
        rows = [
            in_bounds(_values_loop(row, "%s[%d]" % (path, i)), "%s[%d]" % (path, i))
            for i, row in enumerate(raw)
        ]
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise _fail(path, "ragged rows")
        dim = _check_dim(dim, ncols, path)
        try:
            matrices[name] = Matrix(tuple(rows))
        except ValueError as exc:
            raise _fail(path, str(exc)) from None

    hyperplanes = {}
    for name, raw in _named(doc.get("hyperplanes"), "hyperplanes").items():
        path = "hyperplanes.%s" % name
        if not isinstance(raw, Mapping) or set(raw) != {"a", "b"}:
            raise _fail(path, 'expected {"a": [...], "b": [...]}')
        a = in_bounds(_values_loop(raw["a"], path + ".a"), path + ".a")
        b = in_bounds(_values_loop(raw["b"], path + ".b"), path + ".b")
        try:
            h = Hyperplane(a, b)
        except ValueError as exc:
            raise _fail(path, str(exc)) from None
        dim = _check_dim(dim, h.dim, path)
        hyperplanes[name] = h

    families = {}
    for name, raw in _named(doc.get("families"), "families").items():
        path = "families.%s" % name
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise _fail(path, "expected a list of polytope names")
        for i, member in enumerate(raw):
            if not isinstance(member, str) or member not in polytopes:
                raise _fail(
                    "%s[%d]" % (path, i),
                    "unknown polytope %r; available: %s" % (member, sorted(polytopes)),
                )
        families[name] = tuple(raw)

    colorings = {}
    for name, raw in _named(doc.get("colorings"), "colorings").items():
        path = "colorings.%s" % name
        if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
            raise _fail(path, "expected a non-empty list of color classes")
        classes = []
        for i, cls in enumerate(raw):
            rows = parse_point_list(cls, "%s[%d]" % (path, i))
            if not rows:
                raise _fail("%s[%d]" % (path, i), "empty color class")
            classes.append(Polytope(rows))
        colorings[name] = tuple(classes)

    return Instance(
        tnorm=tnorm,
        bounds=bounds,
        dimension=dimension,
        grid_step=grid_step,
        points=points,
        pointsets=pointsets,
        polytopes=polytopes,
        boxes=boxes,
        matrices=matrices,
        hyperplanes=hyperplanes,
        families=families,
        colorings=colorings,
    )
