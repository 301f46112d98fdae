"""Brute-force oracles and the integer kernels."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxminconv import _kernels
from maxminconv.core import (
    LUKASIEWICZ,
    MIN,
    PRODUCT,
    UNIT,
    PreconditionError,
    SemiringBounds,
    TNorm,
    common_denominator,
)
from maxminconv.geometry import Point, point, segment_contains, segment_point
from maxminconv.hull import hull_member, polytope
from maxminconv.koenig import Matrix, bottleneck_threshold
from maxminconv.oracle import (
    MAX_GENERATORS,
    MAX_GRID,
    GridSpec,
    brute_bottleneck,
    brute_hull_member,
    brute_hull_members,
    brute_segment,
)

from support import (
    brute_hull_member_loop,
    common_point_exact,
    random_point,
    random_polytope,
    search_common_point,
)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_grid_from_inputs_collects_coordinates():
    grid = GridSpec.from_inputs([point("0.2", "0.5"), point("0.6", "0.9")])
    assert grid.axis_values() == (
        Fraction(0),
        Fraction(1, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(9, 10),
        Fraction(1),
    )


def test_grid_step_fills_uniformly():
    grid = GridSpec(base=(), step=Fraction(1, 4))
    assert grid.axis_values() == (
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
    )


def test_grid_respects_custom_bounds():
    wide = SemiringBounds(Fraction(-1), Fraction(2))
    grid = GridSpec(base=(Fraction(3, 2),), bounds=wide)
    assert grid.axis_values() == (Fraction(-1), Fraction(3, 2), Fraction(2))


def test_grid_size_guard():
    grid = GridSpec(base=(), step=Fraction(1, 100))
    with pytest.raises(PreconditionError, match="oracle guard"):
        grid.axis_values()
    assert len(GridSpec(base=(), step=Fraction(1, 50)).axis_values()) <= MAX_GRID


def test_grid_value_outside_bounds():
    grid = GridSpec(base=(Fraction(3, 2),))
    with pytest.raises(PreconditionError, match="outside bounds"):
        grid.axis_values()


def test_grid_rejects_a_step_that_is_not_positive():
    for step in (Fraction(-1, 4), Fraction(0)):
        with pytest.raises(ValueError, match="grid step must be positive"):
            GridSpec(base=(), step=step).axis_values()


def test_generator_count_guard():
    gens = [point("0.1")] * (MAX_GENERATORS + 1)
    grid = GridSpec.from_inputs(gens)
    with pytest.raises(PreconditionError, match="generators"):
        brute_hull_member(point("0.1"), gens, grid)


def test_dimension_guard():
    p = Point((Fraction(1, 2),) * 6)
    grid = GridSpec(base=())
    with pytest.raises(PreconditionError, match="dimension"):
        brute_hull_member(p, [p], grid)


def test_non_min_oracle_needs_unit_bounds():
    wide = SemiringBounds(Fraction(-1), Fraction(2))
    grid = GridSpec(base=(), bounds=wide)
    p = point("0.5")
    with pytest.raises(PreconditionError, match="bounds"):
        brute_hull_member(p, [p], grid, tnorm=PRODUCT)


def test_non_min_oracle_denominator_guard():
    grid = GridSpec(base=(Fraction(1, 1000003),))
    p = point("0")
    with pytest.raises(PreconditionError, match="denominator"):
        brute_hull_member(p, [p], grid, tnorm=PRODUCT)


# ---------------------------------------------------------------------------
# oracle vs exact library
# ---------------------------------------------------------------------------


def test_brute_agrees_with_hull_member(rng):
    for _ in range(80):
        p = random_point(rng, 2, den=6)
        x = random_polytope(rng, 2, 3, den=6)
        grid = GridSpec.from_inputs([p] + list(x.generators))
        assert brute_hull_member(p, x.generators, grid) == hull_member(p, x).member


def test_brute_batch_matches_singles(rng):
    x = random_polytope(rng, 2, 3)
    candidates = [random_point(rng, 2) for _ in range(12)]
    grid = GridSpec.from_inputs(candidates + list(x.generators))
    batch = brute_hull_members(candidates, x.generators, grid)
    singles = [brute_hull_member(q, x.generators, grid) for q in candidates]
    assert batch == singles


@st.composite
def _hull_instances(draw):
    """Generators, a grid, candidates and the position of a planted hit among them."""
    tnorm = draw(st.sampled_from([MIN, PRODUCT, LUKASIEWICZ]))
    d = draw(st.integers(1, 3))
    den = draw(st.integers(2, 4))
    value = st.integers(0, den).map(lambda k: Fraction(k, den))
    pt = st.tuples(*[value] * d).map(Point)
    gens = draw(st.lists(pt, min_size=1, max_size=4))
    step = draw(st.sampled_from([None, Fraction(1, 2), Fraction(1, 3)]))
    grid = GridSpec.from_inputs(gens, step=step)
    values = grid.axis_values()
    lam = draw(st.lists(st.sampled_from(values), min_size=len(gens), max_size=len(gens)))
    lam[draw(st.integers(0, len(gens) - 1))] = grid.bounds.hi
    hit = Point(tuple(
        max(tnorm.apply(l, g[j]) for l, g in zip(lam, gens)) for j in range(d)
    ))
    candidates = draw(st.lists(pt, min_size=1, max_size=4))
    pos = draw(st.integers(0, len(candidates)))
    return tnorm, gens, grid, candidates[:pos] + [hit] + candidates[pos:], pos


def test_brute_accel_flag_equivalence():
    """The integer kernel and the plain Fraction loop of tests/support.py
    agree, on hits and misses.

    Several candidates share one enumeration, so the kernel's ceiling is
    the join of all of them, not of the candidate it decides.
    """
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_hull_instances())
    def check(instance):
        tnorm, gens, grid, candidates, pos = instance
        fast = brute_hull_members(candidates, gens, grid, tnorm=tnorm)
        slow = [brute_hull_member_loop(q, gens, grid, tnorm) for q in candidates]
        assert fast == slow
        assert fast[pos]
        seen.update(fast)

    check()
    assert seen == {True, False}


def test_brute_product_example():
    gens = polytope([("0.9", "0.4"), ("0.3", "0.8")]).generators
    grid = GridSpec(base=tuple(c for g in gens for c in g.coords), step=Fraction(1, 10))
    assert brute_hull_member(point("0.9", "0.8"), gens, grid, tnorm=PRODUCT)
    assert not brute_hull_member(point("0.95", "0.8"), gens, grid, tnorm=PRODUCT)


def test_brute_segment_endpoints_and_membership(rng):
    for _ in range(25):
        x = random_point(rng, 2, den=5)
        y = random_point(rng, 2, den=5)
        grid = GridSpec.from_inputs([x, y], step=Fraction(1, 5))
        pts = brute_segment(x, y, grid)
        assert x in pts and y in pts
        for z in pts:
            assert segment_contains(x, y, z)


def test_brute_segment_matches_parametrization():
    x = point("0.2", "0.5")
    y = point("0.6", "0.9")
    grid = GridSpec.from_inputs([x, y], step=Fraction(1, 10))
    expected = {segment_point(x, y, b) for b in grid.axis_values()}
    expected |= {segment_point(y.meet(x).join(x), y, b) for b in grid.axis_values()}
    assert brute_segment(x, y, grid) >= frozenset(expected)


def test_brute_bottleneck_example():
    rows = [["0.9", "0.1"], ["0.8", "0.3"], ["0.5", "0.4"]]
    assert brute_bottleneck(rows) == Fraction(2, 5)


def test_brute_bottleneck_matches_fast(rng):
    for _ in range(40):
        d = rng.randrange(1, 4)
        rows = [
            [Fraction(rng.randrange(0, 9), 8) for _ in range(d)] for _ in range(d + 1)
        ]
        assert brute_bottleneck(rows) == bottleneck_threshold(Matrix(tuple(map(tuple, rows))))


def test_brute_bottleneck_row_count():
    with pytest.raises(PreconditionError):
        brute_bottleneck([["0.1", "0.2"], ["0.3", "0.4"]])


# ---------------------------------------------------------------------------
# kernel backends
# ---------------------------------------------------------------------------


def test_backend_reports_a_known_name():
    assert _kernels.backend_name() == "numpy"


def _random_groups(rng, d, bounds, den, max_points):
    lo, hi = int(bounds.lo * den), int(bounds.hi * den)
    return [
        [
            Point(tuple(Fraction(rng.randint(lo, hi), den) for _ in range(d)))
            for _ in range(rng.randint(1, max_points))
        ]
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize(
    "tnorm, den, step, max_d, max_points",
    [
        (MIN, 8, None, 4, 4),
        (TNorm("min", UNIT.extended()), 4, None, 4, 4),
        (MIN, 4, Fraction(1, 3), 4, 4),
        (PRODUCT, 4, Fraction(1, 4), 3, 3),
        (LUKASIEWICZ, 4, Fraction(1, 4), 3, 3),
    ],
    ids=["min-unit", "min-extended", "min-step", "product", "lukasiewicz"],
)
def test_scan_kernel_matches_exact_common_point(rng, tnorm, den, step, max_d, max_points):
    """The projection search finds the Fraction scan's lex-first point."""
    outcomes = set()
    for _ in range(40):
        d = rng.randint(1, max_d)
        groups = _random_groups(rng, d, tnorm.bounds, den, max_points)
        found, grid = search_common_point(groups, tnorm, step)
        if len(grid) ** d > 20000:
            continue  # keeps the Fraction reference scan fast
        expected = common_point_exact(groups, tnorm, grid)
        assert found == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def _kernel_scan(groups, tnorm, grid):
    """Lex-first common grid point by the numpy scan kernel, or None."""
    coords = {c for g in groups for q in g for c in q.coords}
    denom = common_denominator(coords.union(grid))
    rows = [[int(c * denom) for c in q.coords] for g in groups for q in g]
    offs = np.cumsum([0] + [len(g) for g in groups])
    tag = {"product": _kernels.TAG_PRODUCT, "lukasiewicz": _kernels.TAG_LUKASIEWICZ}
    d = groups[0][0].dim
    flat = _kernels.scan_common(
        tag[tnorm.tag], denom, np.array([int(v * denom) for v in grid]), d, np.array(rows), offs
    )
    if flat < 0:
        return None
    digits = []
    for _ in range(d):
        flat, digit = divmod(flat, len(grid))
        digits.append(grid[digit])
    return Point(tuple(reversed(digits)))


@st.composite
def _grid_searches(draw):
    tnorm = draw(st.sampled_from([PRODUCT, LUKASIEWICZ]))
    d = draw(st.integers(1, 3))
    den = draw(st.sampled_from([4, 5, 6, 8, 10]))
    value = st.integers(0, den).map(lambda k: Fraction(k, den))
    pt = st.tuples(*[value] * d).map(Point)
    groups = draw(st.lists(st.lists(pt, min_size=1, max_size=3), min_size=1, max_size=3))
    return tnorm, groups, Fraction(1, draw(st.integers(4, 20)))


@settings(max_examples=300, deadline=None)
@given(_grid_searches())
def test_projection_search_matches_the_kernel_scan(search):
    """Floored projections find the scan kernel's lex-first point, or miss with it."""
    tnorm, groups, step = search
    found, grid = search_common_point(groups, tnorm, step)
    assert found == _kernel_scan(groups, tnorm, grid)
