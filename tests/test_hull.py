"""Hull membership, Caratheodory reduction, colorful selections."""

import random
from fractions import Fraction

import pytest

from maxminconv.core import UNIT, PreconditionError
from maxminconv.geometry import Point, point
from maxminconv.hull import (
    Polytope,
    caratheodory_reduce,
    colorful_strong,
    colorful_weak,
    combination,
    hull_member,
    polytope,
)
from maxminconv.semispaces import index_set, sector_contains, semispace, semispace_family

from support import random_point, random_polytope

TWO_GEN = polytope([("0.2", "0.8"), ("0.8", "0.2")])


# ---------------------------------------------------------------------------
# polytope plumbing
# ---------------------------------------------------------------------------


def test_polytope_dedups_in_order():
    p = polytope([("0.1", "0.2"), ("0.3", "0.4"), ("0.1", "0.2")])
    assert p.generators == (point("0.1", "0.2"), point("0.3", "0.4"))


def test_polytope_rejects_empty_and_ragged():
    with pytest.raises(PreconditionError):
        Polytope(())
    with pytest.raises(PreconditionError):
        polytope([("0.1",), ("0.1", "0.2")])


def test_combination_is_join_of_scaled_generators():
    gens = [point("0.2", "0.8"), point("0.8", "0.2")]
    lam = [Fraction(1), Fraction(1)]
    assert combination(gens, lam) == point("0.8", "0.8")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_member_join_of_generators():
    m = hull_member(point("0.8", "0.8"), TWO_GEN)
    assert m.member
    assert m.witnesses == {0: 0, 1: 1, 2: 0}


def test_non_member_reports_separating_index():
    m = hull_member(point("0.5", "0.5"), TWO_GEN)
    assert not m.member
    assert m.separating_index == 0


def test_generators_are_members():
    for g in TWO_GEN:
        assert hull_member(g, TWO_GEN).member


def test_witnesses_cover_the_index_set(rng):
    for _ in range(100):
        p = random_point(rng, 3)
        x = random_polytope(rng, 3, 4)
        m = hull_member(p, x)
        if m.member:
            assert set(m.witnesses) == set(index_set(p))
            for i, k in m.witnesses.items():
                assert sector_contains(semispace(p, i), x.generators[k])
        else:
            s = semispace(p, m.separating_index)
            for g in x:
                assert not sector_contains(s, g)


def test_member_dimension_mismatch():
    with pytest.raises(PreconditionError):
        hull_member(point("0.5"), TWO_GEN)


def test_membership_stable_under_extended_bounds(rng):
    """Widening the ambient bounds never changes hull membership."""
    wide = UNIT.extended()
    for _ in range(150):
        p = random_point(rng, 2, den=4)
        x = random_polytope(rng, 2, 3, den=4)
        assert hull_member(p, x).member == hull_member(p, x, wide).member


def test_sector_refinement(rng):
    """A sector of q that holds p swallows a whole sector of p.

    This is what lets an internal separation at a deeper point serve the
    sectors of a shallower one.
    """
    grid = [Fraction(k, 4) for k in range(5)]
    pts = [Point((a, b)) for a in grid for b in grid]
    for _ in range(40):
        p = random_point(rng, 2, den=4)
        q = random_point(rng, 2, den=4)
        for i in index_set(q):
            sq = semispace(q, i)
            if not sector_contains(sq, p):
                continue
            found = False
            for j in index_set(p):
                sp = semispace(p, j)
                if all(
                    sector_contains(sq, z) for z in pts if sector_contains(sp, z)
                ):
                    found = True
                    break
            assert found, (p, q, i)


# ---------------------------------------------------------------------------
# caratheodory
# ---------------------------------------------------------------------------


def test_caratheodory_two_generator_instance():
    reduced, idx = caratheodory_reduce(point("0.8", "0.8"), TWO_GEN)
    assert idx == (0, 1)
    assert reduced.generators == TWO_GEN.generators


def test_caratheodory_singleton():
    x = polytope([("0.4", "0.7")])
    reduced, idx = caratheodory_reduce(point("0.4", "0.7"), x)
    assert idx == (0,)
    assert reduced.generators == x.generators


def test_caratheodory_keeps_leading_generator():
    p = point("0.3", "0.6")
    x = polytope([("0.3", "0.6"), ("0.9", "0.1"), ("0.2", "0.2")])
    reduced, idx = caratheodory_reduce(p, x)
    assert idx == (0,)
    assert reduced.generators == (p,)


def test_caratheodory_bound_and_reverification(rng):
    hits = 0
    while hits < 60:
        p = random_point(rng, 2)
        x = random_polytope(rng, 2, 5)
        if not hull_member(p, x).member:
            continue
        hits += 1
        reduced, idx = caratheodory_reduce(p, x)
        assert len(reduced.generators) <= p.dim + 1
        assert len(idx) == len(reduced.generators)
        assert hull_member(p, reduced).member


def test_caratheodory_rejects_outsiders():
    with pytest.raises(PreconditionError):
        caratheodory_reduce(point("0.5", "0.5"), TWO_GEN)


# ---------------------------------------------------------------------------
# colorful selections
# ---------------------------------------------------------------------------


def test_colorful_weak_one_dimensional():
    choice = colorful_weak(
        point("0.5"),
        [polytope([("0.3",), ("0.8",)]), polytope([("0.1",), ("0.6",)])],
    )
    assert choice == {0: 0, 1: 1}
    picked = polytope([("0.3",), ("0.6",)])
    assert hull_member(point("0.5"), picked).member


def test_colorful_weak_equal_colors_mirror_caratheodory(rng):
    hits = 0
    while hits < 30:
        p = random_point(rng, 2)
        x = random_polytope(rng, 2, 4)
        m = hull_member(p, x)
        if not m.member:
            continue
        hits += 1
        choice = colorful_weak(p, [x, x, x])
        assert choice == {i: m.witnesses[i] for i in choice}


def test_colorful_weak_boundary_point():
    # anchor on the lower boundary; its index set is {0, 2} and both
    # sectors live on the x = 0 edge
    p = point("0", "0.6")
    colors = [
        polytope([("0", "0.2"), ("0", "0.9")]),
        polytope([("0", "0.6"), ("0.7", "0.3")]),
        polytope([("0", "0"), ("0", "1")]),
    ]
    choice = colorful_weak(p, colors)
    assert choice == {0: 0, 2: 1}
    picked = Polytope(tuple(colors[i].generators[k] for i, k in sorted(choice.items())))
    assert hull_member(p, picked).member


def test_colorful_weak_counts_and_failures():
    with pytest.raises(PreconditionError):
        colorful_weak(point("0.5", "0.5"), [TWO_GEN, TWO_GEN])
    with pytest.raises(PreconditionError, match="color 1"):
        colorful_weak(
            point("0.4", "0.4"),
            [
                polytope([("0.4", "0.4")]),
                polytope([("0.9", "0.9")]),
                polytope([("0.4", "0.4")]),
            ],
        )


def test_colorful_strong_degenerate():
    shared = polytope([("0.3", "0.7"), ("0.8", "0.2"), ("0.5", "0.5")])
    res = colorful_strong(polytope([("0.5", "0.5")]), [shared, shared, shared])
    assert res.witness == point("0.5", "0.5")
    assert not res.extended
    assert hull_member(res.witness, shared).member


def test_colorful_strong_boundary_runs_extended():
    c = polytope([("0", "0")])
    colors = [
        polytope([("0", "0"), ("1", "0")]),
        polytope([("0", "0"), ("0", "1")]),
        polytope([("0", "0")]),
    ]
    res = colorful_strong(c, colors)
    assert res.extended
    assert res.witness == point("0", "0")


def test_colorful_strong_random_with_known_common_point(rng):
    for _ in range(25):
        q = random_point(rng, 2)
        c = Polytope((q,) + tuple(random_point(rng, 2) for _ in range(2)))
        colors = [
            Polytope((q,) + tuple(random_point(rng, 2) for _ in range(2)))
            for _ in range(3)
        ]
        res = colorful_strong(c, colors)
        picked = Polytope(
            tuple(colors[i].generators[k] for i, k in sorted(res.choice.items()))
        )
        assert hull_member(res.witness, picked).member
        assert hull_member(res.witness, c).member
        assert sorted(res.assignment) == [0, 1, 2]


def test_colorful_strong_disjoint_color_detected():
    c = polytope([("0.1", "0.1")])
    colors = [
        polytope([("0.1", "0.1")]),
        polytope([("0.9", "0.9")]),
        polytope([("0.1", "0.1")]),
    ]
    with pytest.raises(PreconditionError, match="color 1"):
        colorful_strong(c, colors)


# ---------------------------------------------------------------------------
# interior points pin every sector
# ---------------------------------------------------------------------------


def test_interior_point_internally_separates():
    """An interior hull point with distinct coordinates matches the
    generators to its sectors one to one."""
    x = polytope([("0", "0"), ("1", "0.2"), ("0.2", "1")])
    p = point("0.4", "0.3")
    # p is interior at desk scale: a small grid square around it stays in
    eps = Fraction(1, 20)
    for dx in (-eps, Fraction(0), eps):
        for dy in (-eps, Fraction(0), eps):
            assert hull_member(Point((p[0] + dx, p[1] + dy)), x).member
    fam = semispace_family(p)
    assert len(fam) == 3
    import itertools

    gens = x.generators
    matched = any(
        all(sector_contains(fam[i], gens[perm[i]]) for i in range(3))
        for perm in itertools.permutations(range(3))
    )
    assert matched
