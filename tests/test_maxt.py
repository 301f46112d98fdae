"""Residuated hull membership and the classical theorems under general t-norms."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxminconv.core import (
    LUKASIEWICZ,
    MIN,
    PRODUCT,
    PreconditionError,
    ResolutionExhausted,
    SemiringBounds,
    common_denominator,
    tnorm_apply,
)
from maxminconv.geometry import Point, point
from maxminconv.hull import Polytope, hull_member, polytope
from maxminconv.maxt import (
    CommonWitness,
    CounterexampleSubfamily,
    TverbergPartition,
    _attainment,
    _common_point,
    _is_prime_power,
    _lex_first,
    _member_exact,
    _search,
    attainment_counts,
    centerpoint,
    helly_check,
    hull_member_maxt,
    radon_partition,
    tverberg_search,
)

from support import (
    boxes_apart,
    common_point_exact,
    common_point_unfiltered,
    helly_check_subfamilies_first,
    planted_join_instance,
    random_point,
    random_polytope,
    search_common_point,
    search_encoding_loop,
    search_groups,
)

ALL_TNORMS = (MIN, PRODUCT, LUKASIEWICZ)


def brute_member(p, gens, tnorm, steps=50):
    """Definition-level check over a uniform coefficient grid."""
    lam_values = [Fraction(k, steps) for k in range(steps + 1)]
    for lam in itertools.product(lam_values, repeat=len(gens)):
        if max(lam) != 1:
            continue
        combo = tuple(
            max(tnorm_apply(tnorm, lam[i], g[j]) for i, g in enumerate(gens))
            for j in range(p.dim)
        )
        if combo == p.coords:
            return True
    return False


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_generators_are_members_for_every_tnorm(rng):
    for t in ALL_TNORMS:
        for _ in range(20):
            x = random_polytope(rng, 2, 3)
            for g in x:
                assert hull_member_maxt(g, x, t)


def test_lukasiewicz_example():
    x = polytope([("0.9", "0.4"), ("0.3", "0.8")])
    res = hull_member_maxt(point("0.9", "0.8"), x, LUKASIEWICZ)
    assert res.member
    assert res.coefficients == (Fraction(1), Fraction(1))
    assert res.combination == point("0.9", "0.8")


def test_lukasiewicz_non_member():
    x = polytope([("0.9", "0.4"), ("0.3", "0.8")])
    res = hull_member_maxt(point("0.95", "0.8"), x, LUKASIEWICZ)
    assert not res.member
    assert res.combination == point("0.9", "0.8")


def test_min_agrees_with_sector_membership(rng):
    for _ in range(200):
        p = random_point(rng, 2)
        x = random_polytope(rng, 2, 3)
        assert hull_member_maxt(p, x, MIN).member == hull_member(p, x).member


def test_membership_agrees_with_brute_grid(rng):
    """Residuation against the raw coefficient sweep, all three t-norms.

    Coefficients live on denominator-50 grids, so drawing coordinates
    from denominator 5 keeps every certificate on the sweep grid and the
    comparison exact in both directions.
    """
    for t in ALL_TNORMS:
        for _ in range(40):
            p = random_point(rng, 2, den=5)
            x = random_polytope(rng, 2, 2, den=5)
            expected = brute_member(p, x.generators, t)
            assert hull_member_maxt(p, x, t).member == expected


def test_membership_certificate_reproduces_the_point(rng):
    for t in ALL_TNORMS:
        for _ in range(60):
            p = random_point(rng, 2)
            x = random_polytope(rng, 2, 3)
            res = hull_member_maxt(p, x, t)
            if res.member:
                combo = tuple(
                    max(
                        tnorm_apply(t, res.coefficients[i], g[j])
                        for i, g in enumerate(x.generators)
                    )
                    for j in range(p.dim)
                )
                assert combo == p.coords
                assert max(res.coefficients) == 1


def test_non_min_rejects_out_of_unit_coordinates():
    p = Point((Fraction(3, 2),))
    with pytest.raises(PreconditionError):
        hull_member_maxt(p, Polytope((p,)), PRODUCT)


@pytest.mark.parametrize("t", (PRODUCT, LUKASIEWICZ), ids=lambda t: t.tag)
def test_witness_searches_reject_out_of_unit_coordinates(t):
    """Each search checks its points at entry, as hull_member_maxt does."""
    bad = point("3/2")
    with pytest.raises(PreconditionError, match="outside bounds"):
        radon_partition([point("0.2"), point("0.5"), bad], t)
    with pytest.raises(PreconditionError, match="outside bounds"):
        helly_check([polytope([["0.2"]]), polytope([["0.5"], ["3/2"]])], t)
    with pytest.raises(PreconditionError, match="outside bounds"):
        centerpoint([point("0.2"), bad, point("0.5")], t)
    with pytest.raises(PreconditionError, match="outside bounds"):
        tverberg_search([point("0.1"), point("0.3"), point("0.5"), point("0.7"), bad], 3, t)


def test_witness_searches_check_no_bounds_below_entry(monkeypatch):
    """Bounds are checked where values enter: no search calls SemiringBounds.check."""
    calls = []
    check = SemiringBounds.check

    def counting(self, v):
        calls.append(v)
        return check(self, v)

    pts = [point("0.2", "0.7"), point("0.5", "0.1"), point("0.9", "0.6"), point("0.4", "0.4")]
    family = [
        polytope([["0.5", "0.5"], ["0.1", "0.9"]]),
        polytope([["0.5", "0.5"], ["0.8", "0.3"]]),
        polytope([["0.5", "0.5"], ["0.2", "0.2"]]),
    ]
    monkeypatch.setattr(SemiringBounds, "check", counting)
    for t in ALL_TNORMS:
        radon_partition(pts, t)
        centerpoint(pts, t)
        assert isinstance(helly_check(family, t), CommonWitness)
    assert calls == []


# ---------------------------------------------------------------------------
# radon
# ---------------------------------------------------------------------------


def test_radon_interval_example():
    rp = radon_partition([point("0.2"), point("0.5"), point("0.9")])
    assert rp.parts == ((0, 2), (1,))
    assert rp.witness == point("0.5")


def test_radon_product_example():
    rp = radon_partition([point("0.3"), point("0.5"), point("0.7")], PRODUCT)
    assert rp.parts == ((0, 2), (1,))
    assert rp.witness == point("0.5")


def test_radon_duplicated_points():
    dup = point("0.4", "0.6")
    rp = radon_partition([dup, dup, point("0.1", "0.1"), point("0.9", "0.9")])
    assert rp.witness == dup
    assert 0 in rp.parts[0] and 1 in rp.parts[1]


def test_radon_random_instances_verified(rng):
    for t in ALL_TNORMS:
        for _ in range(25):
            if t is MIN:
                pts = [random_point(rng, 2, den=8) for _ in range(4)]
            else:
                pts = planted_join_instance(rng, 2)
            rp = radon_partition(pts, t)
            assert not set(rp.parts[0]) & set(rp.parts[1])
            assert sorted(rp.parts[0] + rp.parts[1]) == [0, 1, 2, 3]
            for part in rp.parts:
                sub = Polytope(tuple(pts[i] for i in part))
                assert hull_member_maxt(rp.witness, sub, t)


def test_radon_interval_instances_any_tnorm(rng):
    """In one dimension the middle input is always a valid witness."""
    for t in (PRODUCT, LUKASIEWICZ):
        for _ in range(25):
            pts = [random_point(rng, 1, den=10) for _ in range(3)]
            rp = radon_partition(pts, t)
            for part in rp.parts:
                sub = Polytope(tuple(pts[i] for i in part))
                assert hull_member_maxt(rp.witness, sub, t)


def test_radon_wrong_cardinality():
    with pytest.raises(PreconditionError):
        radon_partition([point("0.2"), point("0.5")])


def test_radon_resolution_exhausted_and_recovery():
    """A product instance whose witnesses live off the coarse grid."""
    pts = [
        point("5/9", "2/3"),
        point("1/9", "8/9"),
        point("4/9", "1/9"),
        point("1/3", "2/9"),
    ]
    with pytest.raises(ResolutionExhausted):
        radon_partition(pts, PRODUCT, grid_step=Fraction(1))
    rp = radon_partition(pts, PRODUCT, grid_step=Fraction(1, 90))
    assert rp.witness == point("4/9", "8/15")
    assert rp.parts == ((0, 3), (1, 2))


# ---------------------------------------------------------------------------
# helly
# ---------------------------------------------------------------------------


def test_helly_intervals():
    fam = [
        polytope([("0.1",), ("0.5",)]),
        polytope([("0.3",), ("0.8",)]),
        polytope([("0.4",), ("0.9",)]),
    ]
    res = helly_check(fam)
    assert isinstance(res, CommonWitness)
    assert res.point == point("0.4")


def test_helly_counterexample():
    fam = [
        polytope([("0.1",), ("0.2",)]),
        polytope([("0.8",), ("0.9",)]),
        polytope([("0.3",), ("0.6",)]),
    ]
    res = helly_check(fam)
    assert isinstance(res, CounterexampleSubfamily)
    assert res.indices == (0, 1)


def test_helly_planar_family_with_common_core(rng):
    for _ in range(20):
        core = random_point(rng, 2)
        fam = [
            Polytope((core,) + tuple(random_point(rng, 2) for _ in range(2)))
            for _ in range(5)
        ]
        res = helly_check(fam)
        assert isinstance(res, CommonWitness)
        for member in fam:
            assert hull_member(res.point, member).member


def test_helly_singleton_family():
    fam = [polytope([("0.3", "0.4")])]
    res = helly_check(fam)
    assert res.point == point("0.3", "0.4")


@st.composite
def _helly_families(draw):
    """A norm, a step and a family of d = 1-4 with 1 to d + 3 members.

    Planted positives share a core point.  Negatives keep two members
    apart in coordinate 0, one below 1/2 and one above it, and give every
    other member a point of each side, so exactly the subfamilies that
    hold both fail.  Random families mix the two outcomes.
    """
    tnorm = draw(st.sampled_from(ALL_TNORMS))
    step = draw(st.sampled_from([None, Fraction(1, 20)]))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, d + 3))
    q = draw(st.sampled_from([4, 7, 8]))

    def value(lo=0, hi=q):
        return Fraction(draw(st.integers(lo, hi)), q)

    def pt(first=None):
        rest = tuple(value() for _ in range(d - 1))
        return Point((value() if first is None else first,) + rest)

    def extra():
        return [pt() for _ in range(draw(st.integers(0, 2)))]

    kind = draw(st.sampled_from(["planted", "random"] + ["negative"] * (m > 1)))
    if kind == "planted":
        core = pt()
        return tnorm, step, [Polytope(tuple([core] + extra())) for _ in range(m)]
    if kind == "random":
        return tnorm, step, [Polytope(tuple([pt()] + extra())) for _ in range(m)]
    half = q // 2

    def low():
        return pt(value(0, half - 1))

    def high():
        return pt(value(half + 1, q))

    family = [Polytope(tuple([low(), high()] + extra())) for _ in range(m)]
    apart = draw(st.permutations(range(m)))[:2]
    family[apart[0]] = Polytope((low(), low()))
    family[apart[1]] = Polytope((high(),))
    return tnorm, step, family


@settings(max_examples=200, deadline=None)
@given(_helly_families())
def test_helly_family_first_matches_the_subfamilies_first_order(instance):
    """Searching the whole family first changes no answer and no error text."""
    tnorm, step, family = instance

    def outcome(check):
        try:
            return check(family, tnorm, step)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(helly_check) == outcome(helly_check_subfamilies_first)


# ---------------------------------------------------------------------------
# centerpoints
# ---------------------------------------------------------------------------


def test_centerpoint_equal_points():
    pts = [point("0.4", "0.7")] * 3
    assert centerpoint(pts).point == point("0.4", "0.7")


def test_centerpoint_interval_example():
    cp = centerpoint([point("0.1"), point("0.2"), point("0.8"), point("0.9")]).point
    assert cp == point("0.2")
    assert Fraction(1, 5) <= cp[0] <= Fraction(4, 5)


def test_centerpoint_subset_guarantee(rng):
    for _ in range(10):
        n = rng.randrange(3, 7)
        pts = [random_point(rng, 2, den=4) for _ in range(n)]
        cp = centerpoint(pts).point
        m0 = (2 * n) // 3 + 1
        for subset in itertools.combinations(range(n), m0):
            sub = Polytope(tuple(pts[i] for i in subset))
            assert hull_member(cp, sub).member


def _rational_points(d, max_n, min_n=1):
    den = st.sampled_from([4, 7, 8])
    return den.flatmap(
        lambda q: st.lists(
            st.tuples(*[st.integers(0, q).map(lambda k: Fraction(k, q))] * d).map(Point),
            min_size=min_n,
            max_size=max_n,
        )
    )


@st.composite
def _point_sets(draw, max_n):
    tnorm = draw(st.sampled_from(ALL_TNORMS))
    return tnorm, draw(_rational_points(draw(st.integers(1, 3)), max_n))


@settings(max_examples=150, deadline=None)
@given(_point_sets(max_n=8))
def test_depth_search_matches_the_subset_search(instance):
    """One rank-q search finds what the search over every m0-subset finds."""
    tnorm, pts = instance
    d, n = pts[0].dim, len(pts)
    m0 = (d * n) // (d + 1) + 1
    subsets = [[pts[i] for i in sub] for sub in itertools.combinations(range(n), m0)]
    expected, _ = search_common_point(subsets, tnorm)
    if expected is None:
        assert not tnorm.is_min
        with pytest.raises(ResolutionExhausted):
            centerpoint(pts, tnorm)
    else:
        assert centerpoint(pts, tnorm).point == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), k=st.integers(2, 10**8))
def test_min_searches_ignore_the_grid_step(data, d, k):
    """The min grid is exact, so a step of 1/k changes no min answer."""
    step = Fraction(1, k)

    def points(n):
        return data.draw(_rational_points(d, n, min_n=n))

    pts = points(d + 2)
    assert radon_partition(pts, MIN, step) == radon_partition(pts, MIN)
    family = [Polytope(tuple(points(data.draw(st.integers(1, 3)))))
              for _ in range(data.draw(st.integers(2, 4)))]
    assert helly_check(family, MIN, step) == helly_check(family, MIN)
    pts = points(data.draw(st.integers(1, 8)))
    assert centerpoint(pts, MIN, step) == centerpoint(pts, MIN)
    if d <= 2:
        pts = points(2 * (d + 1) + 1)
        assert tverberg_search(pts, 3, MIN, step) == tverberg_search(pts, 3, MIN)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    tnorm=st.sampled_from([PRODUCT, LUKASIEWICZ]),
    d=st.integers(1, 3),
    step=st.sampled_from([None, Fraction(1, 20), Fraction(1, 30), Fraction(1, 50),
                          Fraction(2, 15), Fraction(3, 7), Fraction(1, 1)]),
)
def test_search_encoding_matches_the_fraction_grid(data, tnorm, d, step):
    """The integer grid builder encodes a search as the Fraction grid did."""
    pts = data.draw(_rational_points(d, 8))
    search = _search(pts, tnorm, step)
    assert (search.levels, search.denom, search.top, search.gens) == search_encoding_loop(
        pts, tnorm, step
    )


@st.composite
def _depth_questions(draw):
    """A point set and a point: a combination of the set, or any grid point."""
    tnorm, pts = draw(_point_sets(max_n=6))
    d = pts[0].dim
    lam = draw(st.lists(st.sampled_from([c for q in pts for c in q.coords]),
                        min_size=len(pts), max_size=len(pts)))
    lam[draw(st.integers(0, len(pts) - 1))] = Fraction(1)
    combo = Point(tuple(
        max(tnorm.apply(l, q[j]) for l, q in zip(lam, pts)) for j in range(d)
    ))
    other = draw(_rational_points(d, 1))[0]
    return tnorm, pts, draw(st.sampled_from([combo, other]))


def test_attainment_counts_match_subset_enumeration():
    """min(counts) >= n - m + 1 exactly when p is in every m-subset hull, for every m."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_depth_questions())
    def check(question):
        tnorm, pts, p = question
        n = len(pts)
        counts = attainment_counts(p, pts, tnorm)
        assert len(counts) == p.dim + 1
        for m in range(1, n + 1):
            inside = all(
                _member_exact(p, [pts[i] for i in sub], tnorm)
                for sub in itertools.combinations(range(n), m)
            )
            assert inside == (min(counts) >= n - m + 1)
            seen.add(inside)

    check()
    assert seen == {True, False}


@st.composite
def _certificate_questions(draw):
    """A norm, 1-4 distinct generators on 1/8, and a point.

    The point is one of their combinations, with coefficients on 1/8 and
    one of them hi, or any point on 1/8.
    """
    tnorm = draw(st.sampled_from(ALL_TNORMS))
    d = draw(st.integers(1, 3))
    eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))
    points = st.tuples(*[eighths] * d).map(Point)
    gens = draw(st.lists(points, min_size=1, max_size=4, unique=True))
    lam = draw(st.lists(eighths, min_size=len(gens), max_size=len(gens)))
    lam[draw(st.integers(0, len(gens) - 1))] = Fraction(1)
    combo = Point(tuple(
        max(tnorm.apply(l, g[j]) for l, g in zip(lam, gens)) for j in range(d)
    ))
    return tnorm, gens, draw(st.sampled_from([combo, draw(points)]))


@settings(max_examples=300, deadline=None)
@given(question=_certificate_questions(), data=st.data())
def test_grid_point_certificate_matches_residuation(question, data):
    """A grid point's integer certificate is the residuation one, and checks forward.

    The coefficients that ``_attainment`` computes on the search's
    integers are those of ``hull_member_maxt``, and so are its counts
    and verdict.  The CLI's forward check of them accepts exactly the
    members, and certifies p in the hull of every subset that leaves out
    fewer than k generators exactly when every count is at least k.  It
    refuses the certificate once one coefficient is raised past its
    residual, or leaves the bounds; under Lukasiewicz a coefficient below
    lo would reproduce the same terms, max(0, lam + a - 1).
    """
    from maxminconv.cli import _certified

    tnorm, gens, p = question
    search = _search([p, *gens], tnorm, None)
    lams, counts = _attainment(search, search.gens[1:], search.gens[0])
    exact = hull_member_maxt(p, Polytope(tuple(gens)), tnorm)
    assert lams == exact.coefficients
    assert counts == attainment_counts(p, gens, tnorm)
    assert (min(counts) >= 1) == exact.member
    for depth in range(1, len(gens) + 1):
        assert _certified(p, gens, lams, tnorm, depth) == (min(counts) >= depth)

    i = data.draw(st.integers(0, len(gens) - 1))
    hi = tnorm.bounds.hi

    def replaced(v):
        return lams[:i] + (v,) + lams[i + 1:]

    if lams[i] < hi:
        raised = lams[i] + (hi - lams[i]) * Fraction(data.draw(st.integers(1, 8)), 8)
        assert not _certified(p, gens, replaced(raised), tnorm)
    outside = data.draw(st.sampled_from([Fraction(-1, 8), Fraction(9, 8)]))
    assert not _certified(p, gens, replaced(outside), tnorm)


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.tag)
def test_centerpoint_is_polynomial_in_n(rng, tnorm):
    """C(40, 31) and C(60, 51) subsets; one rank-q search answers in well under 1 s."""
    for d, n in ((3, 40), (5, 60)):
        pts = [random_point(rng, d) for _ in range(n)]
        start = time.perf_counter()
        cp = centerpoint(pts, tnorm).point
        assert time.perf_counter() - start < 1.0
        assert min(attainment_counts(cp, pts, tnorm)) >= n - (d * n) // (d + 1)


# ---------------------------------------------------------------------------
# tverberg
# ---------------------------------------------------------------------------


def test_tverberg_r2_delegates_to_radon():
    pts = [point("0.2"), point("0.5"), point("0.9")]
    tv = tverberg_search(pts, 2)
    rp = radon_partition(pts)
    assert tv.parts == rp.parts
    assert tv.witness == rp.witness


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.tag)
def test_two_result_types_answer_the_four_questions(rng, tnorm):
    """Radon is Tverberg with r = 2, and a centerpoint is a one-group common point."""
    pts = planted_join_instance(rng, 2)
    rp = radon_partition(pts, tnorm)
    assert isinstance(rp, TverbergPartition) and len(rp.parts) == 2
    assert tverberg_search(pts, 2, tnorm) == rp
    cp = centerpoint([point("0.1"), point("0.2"), point("0.8"), point("0.9")], tnorm)
    assert isinstance(cp, CommonWitness)
    assert cp.point == point("0.2") and len(cp.coefficients) == 1
    assert len(cp.coefficients[0]) == 4


def test_tverberg_interval_example():
    pts = [point("0.1"), point("0.3"), point("0.5"), point("0.7"), point("0.9")]
    tv = tverberg_search(pts, 3)
    assert tv.parts == ((0, 3), (1, 4), (2,))
    assert tv.witness == point("0.5")
    for part in tv.parts:
        sub = Polytope(tuple(pts[i] for i in part))
        assert hull_member(tv.witness, sub).member


def test_tverberg_planar_instances(rng):
    for _ in range(3):
        pts = [random_point(rng, 2, den=4) for _ in range(7)]
        tv = tverberg_search(pts, 3)
        assert sorted(i for part in tv.parts for i in part) == list(range(7))
        for part in tv.parts:
            sub = Polytope(tuple(pts[i] for i in part))
            assert hull_member(tv.witness, sub).member


def test_tverberg_wrong_cardinality():
    with pytest.raises(PreconditionError):
        tverberg_search([point("0.1"), point("0.5"), point("0.9")], 3)
    with pytest.raises(PreconditionError):
        tverberg_search([point("0.1")] * 5, 1)


def test_is_prime_power_matches_trial_factorisation():
    """r is a prime power exactly when trial division finds one prime factor."""
    for r in range(1, 201):
        factors = set()
        n, p = r, 2
        while n > 1:
            while n % p == 0:
                factors.add(p)
                n //= p
            p += 1
        assert _is_prime_power(r) == (len(factors) == 1), r


# ---------------------------------------------------------------------------
# the box test of _common_point
# ---------------------------------------------------------------------------


@st.composite
def _group_sets(draw):
    """A norm and 2-4 groups of 1-3 points of d = 1-3 on 1/8.

    Half the draws pull two groups apart in one coordinate j: one keeps
    coordinate j at most t/8, the other above it.
    """
    tnorm = draw(st.sampled_from(ALL_TNORMS))
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4))

    def value(lo=0, hi=8):
        return Fraction(draw(st.integers(lo, hi)), 8)

    groups = [
        [Point(tuple(value() for _ in range(d))) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(r)
    ]
    if draw(st.booleans()):
        j, t = draw(st.integers(0, d - 1)), draw(st.integers(0, 7))
        low, high = draw(st.permutations(range(r)))[:2]

        def put(p, v):
            return Point(p.coords[:j] + (v,) + p.coords[j + 1:])

        groups[low] = [put(p, value(0, t)) for p in groups[low]]
        groups[high] = [put(p, value(t + 1, 8)) for p in groups[high]]
    return tnorm, groups


@settings(max_examples=300, deadline=None)
@given(_group_sets())
def test_box_test_only_skips_searches_that_miss(instance):
    """The box test changes no answer, and every box-disjoint search misses."""
    tnorm, groups = instance
    search, indices = search_groups(groups, tnorm)
    assert search_common_point(groups, tnorm)[0] == common_point_unfiltered(groups, tnorm)
    if boxes_apart(groups):
        assert _lex_first(search, [[search.gens[i] for i in g] for g in indices]) is None


def test_box_test_runs_only_with_three_or_more_groups(rng, monkeypatch):
    """Tverberg with r = 3 skips searches; Radon and meeting points never do."""
    from maxminconv import maxt
    from maxminconv.hull import colorful_strong

    calls = {"common": 0, "lex": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(maxt, "_common_point", counted("common", maxt._common_point))
    monkeypatch.setattr(maxt, "_lex_first", counted("lex", maxt._lex_first))

    def asked(question):
        calls.update(common=0, lex=0)
        answer = question()
        return answer, calls["common"], calls["lex"]

    _, common, lex = asked(lambda: radon_partition([random_point(rng, 3) for _ in range(5)]))
    assert lex == common > 1
    q = random_point(rng, 2)
    c = Polytope((q, random_point(rng, 2)))
    colors = [Polytope((q, random_point(rng, 2))) for _ in range(3)]
    _, common, lex = asked(lambda: colorful_strong(c, colors))
    assert lex == common == 3

    pts = [point(*q) for q in [("0.1", "0.8"), ("0.3", "0.2"), ("0.5", "0.9"), ("0.7", "0.4"),
                               ("0.9", "0.6"), ("0.2", "0.5"), ("0.6", "0.1")]]
    tv, common, lex = asked(lambda: tverberg_search(pts, 3))
    assert lex < common
    # without the box test: the same partition, after one search per call
    monkeypatch.setattr(maxt, "_boxes_apart", lambda groups: False)
    assert asked(lambda: tverberg_search(pts, 3)) == (tv, common, common)


def test_witness_searches_run_without_the_grid_scan(rng, monkeypatch):
    """Every witness search, under every norm, runs on projections, never on the k^d scan."""
    from maxminconv import _kernels
    from maxminconv.hull import colorful_strong

    def refuse(*args):
        raise AssertionError("the k^d grid scan was reached")

    monkeypatch.setattr(_kernels, "scan_common", refuse)

    def inside(q, gens, tnorm=MIN):
        return hull_member_maxt(q, Polytope(tuple(gens)), tnorm).member

    pts = [random_point(rng, 6, den=1000) for _ in range(8)]
    # 40-odd grid values per coordinate: a scan would visit some 40^6 points
    assert len({c for p in pts for c in p.coords}) >= 40
    rp = radon_partition(pts)
    for part in rp.parts:
        assert inside(rp.witness, [pts[i] for i in part])

    core = random_point(rng, 4)
    family = [
        Polytope((core,) + tuple(random_point(rng, 4) for _ in range(3))) for _ in range(5)
    ]
    out = helly_check(family)
    assert isinstance(out, CommonWitness)
    assert all(inside(out.point, poly.generators) for poly in family)

    pts = [random_point(rng, 3) for _ in range(6)]
    cp = centerpoint(pts).point
    m0 = (3 * 6) // 4 + 1
    for sub in itertools.combinations(range(6), m0):
        assert inside(cp, [pts[i] for i in sub])

    q = random_point(rng, 3)
    c = Polytope((q,) + tuple(random_point(rng, 3) for _ in range(3)))
    colors = [Polytope((q,) + tuple(random_point(rng, 3) for _ in range(2))) for _ in range(4)]
    res = colorful_strong(c, colors)
    for i, meet in enumerate(res.meeting_points):
        assert inside(meet, c.generators) and inside(meet, colors[i].generators)
    picked = [colors[i].generators[k] for i, k in sorted(res.choice.items())]
    assert inside(res.witness, c.generators) and inside(res.witness, picked)

    for tnorm in (PRODUCT, LUKASIEWICZ):
        pts = planted_join_instance(rng, 2)
        rp = radon_partition(pts, tnorm)
        for part in rp.parts:
            assert inside(rp.witness, [pts[i] for i in part], tnorm)


@pytest.mark.parametrize(
    "tnorm, groups, step",
    [
        (PRODUCT, [[("0", "3/4"), ("3/4", "1/4")], [("0", "0"), ("1/4", "1")]], "1/8"),
        (LUKASIEWICZ, [[("0", "1/5"), ("4/5", "3/5")], [("4/5", "1"), ("3/5", "0")]], "1/4"),
    ],
    ids=["product", "lukasiewicz"],
)
def test_floored_fixed_point_reprojects_after_every_change(tnorm, groups, step):
    """A floored projection need not land in its semimodule.

    So a group that changed y must be projected again before y counts
    as fixed; counting it as done at once ends these searches at a grid
    point outside a hull.
    """
    groups = [[point(*q) for q in g] for g in groups]
    found, grid = search_common_point(groups, tnorm, step)
    assert found == common_point_exact(groups, tnorm, grid)


def test_large_denominator_searches_finish_within_budget():
    """Coordinates over 1009 and 1013 put the common denominator past 10^6.

    Every norm, min included, searches on integer numerators over that
    denominator, so such instances take the same projection search as
    any other: no Fraction scan of the 10^6-point grid.
    """
    a, b = 1009, 1013

    def pt(*nums):
        return Point(tuple(Fraction(n, den) for n, den in zip(nums, (a, b, a))))

    pts = [pt(100, 900, 500), pt(700, 200, 300), pt(400, 600, 900), pt(900, 100, 100)]
    joined = pts[0]
    for q in pts[1:]:
        joined = joined.join(q)
    pts.append(joined)
    assert common_denominator(c for q in pts for c in q.coords) > 10**6
    start = time.perf_counter()
    rp = radon_partition(pts, PRODUCT)
    for part in rp.parts:
        assert hull_member_maxt(rp.witness, Polytope(tuple(pts[i] for i in part)), PRODUCT)
    rp = radon_partition(pts, MIN)
    for part in rp.parts:
        assert hull_member(rp.witness, Polytope(tuple(pts[i] for i in part))).member

    core = pt(505, 506, 507)
    family = [
        Polytope((core, pt(100 * i, 900, 50 * i), pt(1000, 100 * i, 900))) for i in range(1, 6)
    ]
    out = helly_check(family, LUKASIEWICZ)
    assert isinstance(out, CommonWitness)
    assert all(hull_member_maxt(out.point, poly, LUKASIEWICZ) for poly in family)
    assert time.perf_counter() - start < 5.0


def test_every_witness_question_is_encoded_once(rng, monkeypatch):
    """One search context per question, however many groups it searches."""
    from maxminconv import maxt
    from maxminconv.hull import colorful_strong

    calls = {"search": 0, "common": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    monkeypatch.setattr(maxt, "_search", counted("search", maxt._search))
    monkeypatch.setattr(maxt, "_common_point", counted("common", maxt._common_point))

    def asked(question):
        calls.update(search=0, common=0)
        question()
        return calls["search"], calls["common"]

    # the first two splits miss: {0.5, 0.9} vs {0.2}, then {0.5, 0.2} vs {0.9}
    searches, common = asked(lambda: radon_partition([point("0.5"), point("0.2"), point("0.9")]))
    assert searches == 1 and common == 3
    pts = [point("0.1"), point("0.3"), point("0.5"), point("0.7"), point("0.9")]
    searches, common = asked(lambda: tverberg_search(pts, 3))
    assert searches == 1 and common > 1

    family = [polytope([("0", "0"), ("1", "1")]), polytope([("0", "1"), ("1", "0")])]
    assert asked(lambda: helly_check(family))[0] == 1
    # the family-wide search first: a planted positive with m = d + 2
    # members takes that one search, and a miss with m <= d + 1 is its
    # own counterexample
    core = point("0.5", "0.5")
    family = [Polytope((core, random_point(rng, 2))) for _ in range(4)]
    assert asked(lambda: helly_check(family)) == (1, 1)
    low, high = polytope([("0.1", "0.1")]), polytope([("0.9", "0.9")])
    assert asked(lambda: helly_check([low, high])) == (1, 1)
    assert helly_check([low, high]).indices == (0, 1)
    # m = 4 > d + 1 = 3 with low and high apart: the family, then each
    # subfamily up to the first that holds both
    both = polytope([("0.1", "0.1"), ("0.9", "0.9")])
    for family, first_miss in (([both, low, high, both], (0, 1, 2)),
                               ([both, low, both, high], (0, 1, 3))):
        tried = list(itertools.combinations(range(4), 3)).index(first_miss) + 1
        assert asked(lambda: helly_check(family)) == (1, 1 + tried)
        assert helly_check(family).indices == first_miss
    # the one search is a rank-q _common_point call
    assert asked(lambda: centerpoint([random_point(rng, 2) for _ in range(5)])) == (1, 1)

    q = random_point(rng, 2)
    c = Polytope((q, random_point(rng, 2)))
    colors = [Polytope((q, random_point(rng, 2))) for _ in range(3)]
    # one search, and one _common_point call, per meeting point: d + 1 = 3
    assert asked(lambda: colorful_strong(c, colors)) == (3, 3)
