"""Semispace family of an anchor point, sectors, closures, hyperplanes."""

import itertools
from fractions import Fraction

import pytest

from maxminconv.core import UNIT, PreconditionError, SemiringBounds
from maxminconv.geometry import Point, point, segment_decompose
from maxminconv.semispaces import (
    Hyperplane,
    NotOnDiagonal,
    diagonal_closure_hyperplane,
    hyperplane_contains,
    hyperplane_eval,
    index_set,
    sector_contains,
    sector_contains_box,
    sector_test,
    semispace,
    semispace_closure_contains,
    semispace_contains,
    semispace_family,
)

from support import random_point


def grid2(den=4):
    vals = [Fraction(k, den) for k in range(den + 1)]
    return [Point((a, b)) for a in vals for b in vals]


# ---------------------------------------------------------------------------
# index sets and family shape
# ---------------------------------------------------------------------------


def test_index_set_examples():
    assert index_set(point("0.5", "0.2")) == (0, 1, 2)
    assert index_set(point("0.5", "0")) == (0, 1)
    assert index_set(point("1", "1")) == (1, 2)


def test_index_set_bottom_corner():
    # only the upper semispace exists at the zero of the semiring
    assert index_set(point("0", "0")) == (0,)


def test_family_counts():
    assert len(semispace_family(point("0.5", "0.2"))) == 3
    assert len(semispace_family(point("0.5", "0"))) == 2
    assert len(semispace_family(point("1", "1"))) == 2


def test_family_size_between_one_and_d_plus_one(rng):
    for _ in range(100):
        p = random_point(rng, rng.randrange(1, 5))
        fam = semispace_family(p)
        assert 1 <= len(fam) <= p.dim + 1


def test_invalid_index_rejected():
    with pytest.raises(PreconditionError):
        semispace(point("0.5", "0"), 2)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_contains_examples():
    s0 = semispace(point("0.5", "0.5"), 0)
    assert semispace_contains(s0, point("0.6", "0.1"))
    assert not semispace_contains(s0, point("0.5", "0.5"))
    assert not semispace_contains(s0, point("0.4", "0.5"))


def test_sector_examples():
    s0 = semispace(point("0.5", "0.5"), 0)
    assert sector_contains(s0, point("0.4", "0.3"))
    assert sector_contains(s0, point("0.5", "0.5"))
    assert not sector_contains(s0, point("0.6", "0.3"))


def test_sector_is_complement(rng):
    for _ in range(50):
        p = random_point(rng, 3)
        q = random_point(rng, 3)
        for s in semispace_family(p):
            assert sector_contains(s, q) != semispace_contains(s, q)


def test_sector_test_is_sector_contains(rng):
    """The per-sector predicate agrees with sector_contains, ties included."""
    for _ in range(200):
        d = rng.randint(1, 4)
        p = random_point(rng, d, den=4)
        inside = {s: sector_test(s) for s in semispace_family(p)}
        for q in [random_point(rng, d, den=4) for _ in range(10)] + [p]:
            for s, test in inside.items():
                assert test(q) == sector_contains(s, q)


def test_anchor_avoided_by_every_semispace(rng):
    for _ in range(50):
        p = random_point(rng, rng.randrange(1, 4))
        for s in semispace_family(p):
            assert not semispace_contains(s, p)
            assert sector_contains(s, p)


def test_closure_examples():
    s0 = semispace(point("0.5", "0.5"), 0)
    assert semispace_closure_contains(s0, point("0.5", "0.5"))
    assert semispace_closure_contains(s0, point("0.6", "0.1"))
    assert not semispace_closure_contains(s0, point("0.2", "0.2"))


def test_closure_contains_semispace(rng):
    for _ in range(40):
        p = random_point(rng, 2, den=4)
        for s in semispace_family(p):
            for q in grid2():
                if semispace_contains(s, q):
                    assert semispace_closure_contains(s, q)


def test_dimension_mismatch():
    s0 = semispace(point("0.5", "0.5"), 0)
    with pytest.raises(PreconditionError):
        semispace_contains(s0, point("0.5"))


# ---------------------------------------------------------------------------
# structural theorems at desk scale
# ---------------------------------------------------------------------------


def test_semispaces_are_convex(rng):
    """Both endpoints in S force the whole segment into S."""
    for _ in range(30):
        p = random_point(rng, 2, den=4)
        for s in semispace_family(p):
            inside = [q for q in grid2() if semispace_contains(s, q)]
            rng.shuffle(inside)
            for u, v in zip(inside[:8], inside[8:16]):
                for q in segment_decompose(u, v).corner_chain():
                    assert semispace_contains(s, q)


def test_sectors_cover_everything_at_finite_anchors(rng):
    """At an anchor strictly inside the bounds the sectors tile the cube.

    Coverage genuinely fails at non-finite anchors: at p = (1, 1) the
    index set is {1, 2}, both sectors pin a coordinate to 1, and a point
    like (1/2, 1/2) lies in neither.
    """
    from support import random_interior_point

    for _ in range(30):
        p = random_interior_point(rng, 2, den=4)
        fam = semispace_family(p)
        for q in grid2():
            assert any(sector_contains(s, q) for s in fam)


def test_sectors_do_not_cover_at_top_corner():
    fam = semispace_family(point("1", "1"))
    q = point("0.5", "0.5")
    assert not any(sector_contains(s, q) for s in fam)


def test_semispace_maximality_desk_scale(rng):
    """Adding any outside point to a semispace pulls the anchor into the hull."""
    from maxminconv.hull import Polytope, hull_member

    for _ in range(10):
        p = random_point(rng, 2, den=2)
        for s in semispace_family(p):
            inside = [q for q in grid2(den=2) if semispace_contains(s, q)]
            if not inside:
                continue
            for q in grid2(den=2):
                if semispace_contains(s, q) or q == p:
                    continue
                enlarged = Polytope(tuple(inside) + (q,))
                assert hull_member(p, enlarged).member


def test_sector_contains_box():
    s0 = semispace(point("0.5", "0.5"), 0)
    assert sector_contains_box(s0, point("0.1", "0.1"), point("0.5", "0.5"))
    assert not sector_contains_box(s0, point("0.1", "0.1"), point("0.6", "0.5"))


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------


H = Hyperplane(
    a=(Fraction(6, 10), Fraction(0), Fraction(2, 10)),
    b=(Fraction(0), Fraction(6, 10), Fraction(2, 10)),
)


def test_hyperplane_eval_examples():
    assert hyperplane_eval(H, point("0.4", "0.4")) == (Fraction(2, 5), Fraction(2, 5))
    assert hyperplane_contains(H, point("0.4", "0.4"))
    assert hyperplane_eval(H, point("0.5", "0.3")) == (Fraction(1, 2), Fraction(3, 10))
    assert not hyperplane_contains(H, point("0.5", "0.3"))


def test_hyperplane_equal_sides_contain_everything():
    same = Hyperplane(a=H.a, b=H.a)
    for q in grid2():
        assert hyperplane_contains(same, q)


def test_hyperplane_dimension_mismatch():
    with pytest.raises(PreconditionError):
        hyperplane_eval(H, point("0.4"))


# ---------------------------------------------------------------------------
# diagonal closures
# ---------------------------------------------------------------------------


def closure_set(p, index, pts):
    s = semispace(p, index)
    return {q for q in pts if semispace_closure_contains(s, q)}


def hyperplane_set(h, pts):
    return {q for q in pts if hyperplane_contains(h, q)}


def test_diagonal_closure_upper_semispace():
    p = point("0.5", "0.5")
    h = diagonal_closure_hyperplane(p, 0)
    pts = grid2(den=8)
    assert hyperplane_set(h, pts) == {
        q for q in pts if max(q.coords) >= Fraction(1, 2)
    }
    assert hyperplane_set(h, pts) == closure_set(p, 0, pts)


@pytest.mark.parametrize("a", ["0.25", "0.5", "0.75", "1"])
def test_diagonal_closure_matches_grid(a):
    p = point(a, a)
    pts = grid2(den=8)
    for i in index_set(p):
        h = diagonal_closure_hyperplane(p, i)
        assert hyperplane_set(h, pts) == closure_set(p, i, pts)


def test_diagonal_closure_three_dimensional():
    p = point("0.5", "0.5", "0.5")
    vals = [Fraction(k, 4) for k in range(5)]
    pts = [Point(t) for t in itertools.product(vals, repeat=3)]
    for i in index_set(p):
        h = diagonal_closure_hyperplane(p, i)
        assert hyperplane_set(h, pts) == closure_set(p, i, pts)


def test_diagonal_closure_degenerate_anchor():
    h = diagonal_closure_hyperplane(point("0", "0"), 0)
    for q in grid2():
        assert hyperplane_contains(h, q)


def test_off_diagonal_rejected():
    with pytest.raises(NotOnDiagonal):
        diagonal_closure_hyperplane(point("0.3", "0.5"), 0)


def test_diagonal_closure_invalid_index():
    with pytest.raises(PreconditionError):
        diagonal_closure_hyperplane(point("0", "0"), 1)


def test_diagonal_closure_respects_custom_bounds():
    wide = SemiringBounds(Fraction(-1), Fraction(2))
    p = point("0.5", "0.5")
    h = diagonal_closure_hyperplane(p, 0, wide)
    vals = [Fraction(k, 4) for k in range(-4, 9)]
    pts = [Point((x, y)) for x in vals for y in vals]
    s = semispace(p, 0, wide)
    assert {q for q in pts if hyperplane_contains(h, q)} == {
        q for q in pts if semispace_closure_contains(s, q)
    }
