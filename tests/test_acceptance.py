"""Acceptance suite: one test per advertised guarantee, with time budgets.

Each test is self-contained, seeds its own generator, checks the claimed
property exactly (no float tolerances anywhere) and finally asserts its
wall-clock budget.  Run with -v to get one pass/fail line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from maxminconv.core import (
    LUKASIEWICZ,
    MIN,
    PRODUCT,
    UNIT,
    residual,
    tnorm_apply,
)
from maxminconv.geometry import Point, segment_decompose
from maxminconv.hull import (
    Polytope,
    caratheodory_reduce,
    colorful_strong,
    colorful_weak,
    hull_member,
)
from maxminconv.koenig import (
    Matrix,
    bottleneck_threshold,
    improve_diagram,
    internal_separation,
    intsep_sorted,
    koenig_diagram,
    tight_diagram,
)
from maxminconv.maxt import (
    CommonWitness,
    centerpoint,
    helly_check,
    hull_member_maxt,
    radon_partition,
    tverberg_search,
)
from maxminconv.oracle import (
    GridSpec,
    brute_bottleneck,
    brute_hull_member,
    brute_hull_members,
    brute_segment,
)
from maxminconv.semispaces import (
    NotOnDiagonal,
    diagonal_closure_hyperplane,
    hyperplane_contains,
    index_set,
    sector_contains,
    sector_contains_box,
    semispace,
    semispace_closure_contains,
    semispace_contains,
)
from maxminconv.separation import (
    Box,
    NonSeparable,
    PointInHull,
    sep_condition,
    separate_box,
    separate_by_hyperplane,
    separate_point,
)

from support import planted_join_instance

GRID9 = tuple(Fraction(k, 8) for k in range(9))
GRID4 = tuple(Fraction(k, 3) for k in range(4))
GRID21 = tuple(Fraction(k, 20) for k in range(21))


def rand_point(rng, d, values=GRID9):
    return Point(tuple(rng.choice(values) for _ in range(d)))


def rand_interior_point(rng, d, den=8):
    return Point(tuple(Fraction(rng.randrange(1, den), den) for _ in range(d)))


def exhaustive_d2_instances():
    """All (p, X) with d <= 2, |X| <= 4, coordinates on the 4-value grid.

    The advertised d <= 3 enumeration would need ~4e7 oracle instances
    (about 7e5 generator sets times 64 candidates, each over up to 9^4
    coefficient tuples); the d <= 3 regime is covered by the random
    instances instead.
    """
    for d in (1, 2):
        space = [Point(c) for c in itertools.product(GRID4, repeat=d)]
        for size in range(1, 5):
            for gens in itertools.combinations(space, size):
                yield space, gens


def test_criterion_01_segment_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(101)
    step = Fraction(1, 8)
    for trial in range(600):
        d = 2 if trial < 500 else 3
        x = rand_point(rng, d)
        y = rand_point(rng, d)
        grid = GridSpec.from_inputs([x, y], step=step)
        axis = grid.axis_values()
        dec = segment_decompose(x, y)

        # sample every piece at the grid parameters it covers
        sampled = set()
        for piece in dec.pieces:
            for beta in axis:
                if piece.beta_lo <= beta <= piece.beta_hi:
                    sampled.add(
                        Point(
                            tuple(
                                beta if j in piece.m_indices else piece.start[j]
                                for j in range(d)
                            )
                        )
                    )
        assert sampled == set(brute_segment(x, y, grid))

        limit = 2 * d - 1 if dec.mode == "comparable" else 2 * d - 2
        assert len(dec.elementary()) <= limit
    elapsed = time.monotonic() - start
    assert elapsed < 10.0


def test_criterion_02_membership_matches_brute_force():
    start = time.monotonic()
    gspec = GridSpec(base=(), step=Fraction(1, 3))
    checked = 0
    for space, gens in exhaustive_d2_instances():
        flags = brute_hull_members(space, gens, gspec)
        poly = Polytope(gens)
        for p, ref in zip(space, flags):
            assert hull_member(p, poly).member == ref
            checked += 1
    assert checked > 40000

    rng = random.Random(102)
    for _ in range(1000):
        d = rng.choice([1, 2, 3])
        den = rng.choice([4, 6, 8])
        values = tuple(Fraction(k, den) for k in range(den + 1))
        p = rand_point(rng, d, values)
        gens = [rand_point(rng, d, values) for _ in range(rng.randrange(1, 5))]
        grid = GridSpec.from_inputs(gens + [p])
        assert (
            hull_member(p, Polytope(tuple(gens))).member
            == brute_hull_member(p, gens, grid)
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_03_caratheodory_on_positive_instances():
    start = time.monotonic()
    reduced_count = 0
    for space, gens in exhaustive_d2_instances():
        poly = Polytope(gens)
        for p in space:
            if not hull_member(p, poly).member:
                continue
            sub, indices = caratheodory_reduce(p, poly)
            assert len(indices) <= p.dim + 1
            assert len(sub.generators) == len(indices)
            assert hull_member(p, sub).member
            reduced_count += 1

    rng = random.Random(102)  # the same stream as criterion 2's randoms
    for _ in range(1000):
        d = rng.choice([1, 2, 3])
        den = rng.choice([4, 6, 8])
        values = tuple(Fraction(k, den) for k in range(den + 1))
        p = rand_point(rng, d, values)
        gens = [rand_point(rng, d, values) for _ in range(rng.randrange(1, 5))]
        poly = Polytope(tuple(gens))
        if hull_member(p, poly).member:
            sub, indices = caratheodory_reduce(p, poly)
            assert len(indices) <= d + 1
            assert hull_member(p, sub).member
            reduced_count += 1
    assert reduced_count > 5000
    elapsed = time.monotonic() - start
    assert elapsed < 30.0


def test_criterion_04_internal_separation():
    start = time.monotonic()
    rng = random.Random(104)
    for trial in range(500):
        d = rng.choice([2, 3, 4])
        pts = [rand_interior_point(rng, d) for _ in range(d + 1)]
        p, assignment = internal_separation(pts)
        assert sorted(assignment) == list(range(d + 1))
        assert sorted(assignment.values()) == list(range(d + 1))
        for i, idx in assignment.items():
            assert sector_contains(semispace(p, idx), pts[i])
        assert hull_member(p, Polytope(tuple(pts))).member

    for trial in range(120):
        d = rng.choice([2, 3, 4])
        pts = [
            Point(
                tuple(
                    sorted(
                        (Fraction(rng.randrange(1, 8), 8) for _ in range(d)),
                        reverse=True,
                    )
                )
            )
            for _ in range(d + 1)
        ]
        p, assignment = intsep_sorted(pts)
        assert sorted(assignment.values()) == list(range(d + 1))
        for i, idx in assignment.items():
            assert sector_contains(semispace(p, idx), pts[i])
        assert hull_member(p, Polytope(tuple(pts))).member
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_05_koenig_machinery():
    start = time.monotonic()
    rng = random.Random(105)
    for trial in range(1000):
        d = rng.randrange(1, 5)
        rows = tuple(
            tuple(rng.choice(GRID9) for _ in range(d)) for _ in range(d + 1)
        )
        a = Matrix(rows)
        t = bottleneck_threshold(a)
        assert t == brute_bottleneck(rows)

        diagram = koenig_diagram(a)
        diagram.validate()
        while not diagram.is_tight:
            improved = improve_diagram(diagram)
            improved.validate()
            assert improved.tightness > diagram.tightness
            diagram = improved

        final = tight_diagram(a)
        final.validate()
        assert final.is_tight
        assert final.t == t
    elapsed = time.monotonic() - start
    assert elapsed < 30.0


def test_criterion_06_colorful_caratheodory():
    start = time.monotonic()
    rng = random.Random(106)
    for trial in range(250):
        d = 2 if trial < 200 else 3
        boundary = trial % 10 == 0
        if boundary:
            # a meeting point on the carrier boundary forces the widened
            # working bounds
            q = Point((Fraction(0),) + tuple(rng.choice(GRID9) for _ in range(d - 1)))
        else:
            q = rand_interior_point(rng, d)
        c = Polytope((q,) + tuple(rand_point(rng, d) for _ in range(2)))
        colors = [
            Polytope((q,) + tuple(rand_point(rng, d) for _ in range(2)))
            for _ in range(d + 1)
        ]

        choice = colorful_weak(q, colors)
        weak_pick = [colors[i].generators[k] for i, k in sorted(choice.items())]
        assert sorted(choice) == sorted(index_set(q))
        assert hull_member(q, Polytope(tuple(weak_pick))).member

        res = colorful_strong(c, colors)
        # the separation widens the bounds exactly when a meeting point
        # touches them, which the common point q forces on the boundary
        touches = not all(UNIT.interior(v) for m in res.meeting_points for v in m.coords)
        assert res.extended == touches
        assert touches or not boundary
        picked = Polytope(
            tuple(colors[i].generators[k] for i, k in sorted(res.choice.items()))
        )
        assert hull_member(res.witness, picked).member
        assert hull_member(res.witness, c).member
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_07_separation():
    start = time.monotonic()
    # consistency with membership on the exhaustive suite
    for space, gens in exhaustive_d2_instances():
        poly = Polytope(gens)
        for p in space:
            out = separate_point(p, poly)
            member = hull_member(p, poly).member
            assert isinstance(out, PointInHull) == member
            if not member:
                assert all(semispace_contains(out, g) for g in poly)
                assert not semispace_contains(out, p)

    rng = random.Random(107)

    # box separation positives: generator containment and corner checks
    positives = 0
    while positives < 40:
        lo = rand_point(rng, 2, GRID4)
        hi = lo.join(rand_point(rng, 2, GRID4))
        b = Box(lower=lo, upper=hi)
        c = Polytope(tuple(rand_point(rng, 2, GRID4) for _ in range(3)))
        try:
            out = separate_box(b, c)
        except ValueError:
            continue
        if isinstance(out, NonSeparable):
            continue
        positives += 1
        assert all(semispace_contains(out, g) for g in c)
        assert sector_contains_box(out, b.lower, b.upper)
        for corner in b.corners():
            assert sector_contains(out, corner)

    # failed condition instances: confirm NonSeparable exhaustively
    confirmed = 0
    while confirmed < 8:
        lo = rand_point(rng, 2, GRID4)
        hi = Point((Fraction(1), lo.join(rand_point(rng, 2, GRID4))[1]))
        b = Box(lower=lo.meet(hi), upper=hi)
        c = Polytope(tuple(rand_point(rng, 2, GRID4) for _ in range(2)))
        try:
            if sep_condition(b, c):
                continue
        except ValueError:
            continue
        out = separate_box(b, c)
        assert isinstance(out, NonSeparable)
        confirmed += 1

        anchors = sorted(
            {v for g in c for v in g.coords}
            | set(b.lower.coords)
            | set(b.upper.coords)
            | {Fraction(0), Fraction(1)}
        )
        for coords in itertools.product(anchors, repeat=2):
            anchor = Point(coords)
            for i in index_set(anchor):
                s = semispace(anchor, i)
                assert not (
                    all(semispace_contains(s, g) for g in c)
                    and sector_contains_box(s, b.lower, b.upper)
                )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_08_diagonal_hyperplanes():
    start = time.monotonic()
    rng = random.Random(108)
    grid_pts = [Point(c) for c in itertools.product(GRID21, repeat=2)]
    anchors = [Fraction(k, 20) for k in rng.sample(range(21), 20)]
    for v in anchors:
        p = Point((v, v))
        for i in index_set(p):
            h = diagonal_closure_hyperplane(p, i)
            s = semispace(p, i)
            for q in grid_pts:
                assert hyperplane_contains(h, q) == semispace_closure_contains(s, q)

    for _ in range(20):
        p = rand_point(rng, 2)
        if p[0] == p[1]:
            continue
        c = Polytope((rand_point(rng, 2),))
        try:
            separate_by_hyperplane(p, c)
            raised = False
        except NotOnDiagonal:
            raised = True
        assert raised
    elapsed = time.monotonic() - start
    assert elapsed < 10.0


def test_criterion_09_maxt_theorems():
    start = time.monotonic()
    rng = random.Random(109)
    step = Fraction(1, 100)

    # 300 Radon instances: 200 exact min runs over d <= 3, then 50
    # product and 50 Lukasiewicz runs at the fixed grid step; a raised
    # ResolutionExhausted fails the test, there is no retry
    jobs = (
        [(MIN, 1, False)] * 50
        + [(MIN, 2, False)] * 100
        + [(MIN, 3, False)] * 50
        + [(PRODUCT, 1, False)] * 20
        + [(PRODUCT, 2, True)] * 30
        + [(LUKASIEWICZ, 1, False)] * 20
        + [(LUKASIEWICZ, 2, True)] * 30
    )
    for tnorm, d, planted in jobs:
        if planted:
            pts = planted_join_instance(rng, d)
        elif tnorm is MIN:
            pts = [rand_point(rng, d) for _ in range(d + 2)]
        else:
            pts = [rand_point(rng, d, tuple(Fraction(k, 10) for k in range(11)))
                   for _ in range(d + 2)]
        rp = radon_partition(pts, tnorm, grid_step=None if tnorm is MIN else step)
        assert sorted(rp.parts[0] + rp.parts[1]) == list(range(len(pts)))
        for part in rp.parts:
            sub = Polytope(tuple(pts[i] for i in part))
            assert hull_member_maxt(rp.witness, sub, tnorm).member

    # 100 families sharing a constructed core point
    for _ in range(100):
        core = rand_point(rng, 2)
        family = [
            Polytope((core,) + tuple(rand_point(rng, 2) for _ in range(2)))
            for _ in range(rng.randrange(3, 7))
        ]
        res = helly_check(family)
        assert isinstance(res, CommonWitness)
        for member in family:
            assert hull_member(res.point, member).member

    # centerpoints with exhaustive subset verification, n <= 7
    for n in range(3, 8):
        for _ in range(6):
            pts = [rand_point(rng, 2) for _ in range(n)]
            cp = centerpoint(pts).point
            m0 = (2 * n) // 3 + 1
            for subset in itertools.combinations(range(n), m0):
                sub = Polytope(tuple(pts[i] for i in subset))
                assert hull_member(cp, sub).member

    # Tverberg searches for r = 3
    for d, reps in ((1, 10), (2, 5)):
        n = 2 * (d + 1) + 1
        for _ in range(reps):
            pts = [rand_point(rng, d) for _ in range(n)]
            tv = tverberg_search(pts, 3)
            assert sorted(i for part in tv.parts for i in part) == list(range(n))
            for part in tv.parts:
                sub = Polytope(tuple(pts[i] for i in part))
                assert hull_member(tv.witness, sub).member
    elapsed = time.monotonic() - start
    assert elapsed < 300.0


def test_criterion_10_tnorm_axioms_and_galois():
    start = time.monotonic()
    one = Fraction(1)
    zero = Fraction(0)
    for t in (MIN, PRODUCT, LUKASIEWICZ):
        for a in GRID21:
            assert tnorm_apply(t, a, one) == a
            assert tnorm_apply(t, a, zero) == zero
            for b in GRID21:
                assert tnorm_apply(t, a, b) == tnorm_apply(t, b, a)
        for a, b, c in itertools.product(GRID21, repeat=3):
            assert tnorm_apply(t, a, tnorm_apply(t, b, c)) == tnorm_apply(
                t, tnorm_apply(t, a, b), c
            )
            if b <= c:
                assert tnorm_apply(t, a, b) <= tnorm_apply(t, a, c)
            assert (tnorm_apply(t, a, b) <= c) == (b <= residual(t, a, c))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
