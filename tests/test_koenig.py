"""Bottleneck thresholds, covering diagrams, and internal separation points."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from maxminconv.core import PreconditionError
from maxminconv.geometry import Point, point
from maxminconv.hull import Polytope, hull_member
from maxminconv.koenig import (
    InvalidDiagram,
    Matrix,
    bottleneck_threshold,
    improve_diagram,
    internal_separation,
    intsep_sorted,
    koenig_diagram,
    tight_diagram,
)
from maxminconv.oracle import brute_bottleneck
from maxminconv.semispaces import sector_contains, semispace

from support import random_interior_point

A_EXAMPLE = Matrix((
    (Fraction(9, 10), Fraction(1, 10)),
    (Fraction(8, 10), Fraction(3, 10)),
    (Fraction(5, 10), Fraction(4, 10)),
))


def random_matrix(rng: random.Random, d: int, den: int = 8) -> Matrix:
    return Matrix(
        tuple(
            tuple(Fraction(rng.randrange(0, den + 1), den) for _ in range(d))
            for _ in range(d + 1)
        )
    )


# ---------------------------------------------------------------------------
# matrices and thresholds
# ---------------------------------------------------------------------------


def test_matrix_shape_enforced():
    with pytest.raises(PreconditionError):
        Matrix(((Fraction(1, 2),), (Fraction(1, 2),), (Fraction(1, 2),)))
    with pytest.raises(PreconditionError):
        Matrix(((Fraction(1, 2), Fraction(1, 3)),))


def test_matrix_from_points():
    m = Matrix.from_points([point("0.9", "0.1"), point("0.8", "0.3"), point("0.5", "0.4")])
    assert m == A_EXAMPLE


def test_bottleneck_example():
    assert bottleneck_threshold(A_EXAMPLE) == Fraction(2, 5)


def test_bottleneck_constant_matrix():
    c = Fraction(3, 7)
    m = Matrix(((c, c), (c, c), (c, c)))
    assert bottleneck_threshold(m) == c


def test_bottleneck_one_dimensional():
    m = Matrix(((Fraction(3, 10),), (Fraction(7, 10),)))
    assert bottleneck_threshold(m) == Fraction(7, 10)


def test_bottleneck_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randrange(1, 5)
        m = random_matrix(rng, d)
        assert bottleneck_threshold(m) == brute_bottleneck(m.rows)


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def test_diagram_example_validates():
    kd = koenig_diagram(A_EXAMPLE)
    kd.validate()
    assert kd.t == Fraction(2, 5)
    assert kd.is_tight


def test_diagram_full_low_column():
    # second column sits entirely at or below the threshold
    m = Matrix((
        (Fraction(5, 10), Fraction(2, 10)),
        (Fraction(6, 10), Fraction(1, 10)),
        (Fraction(7, 10), Fraction(3, 10)),
    ))
    assert bottleneck_threshold(m) == Fraction(3, 10)
    kd = tight_diagram(m)
    kd.validate()
    assert kd.is_tight
    assert 1 in kd.n1_cols


def test_diagram_one_dimensional_is_tight():
    kd = koenig_diagram(Matrix(((Fraction(3, 10),), (Fraction(7, 10),))))
    kd.validate()
    assert kd.is_tight


def test_improvement_chain():
    m = Matrix((
        (Fraction(9, 10), Fraction(8, 10)),
        (Fraction(5, 10), Fraction(2, 10)),
        (Fraction(3, 10), Fraction(5, 10)),
    ))
    kd = koenig_diagram(m)
    assert not kd.is_tight
    better = improve_diagram(kd)
    better.validate()
    assert better.tightness > kd.tightness


def test_stuck_lifting_phase_recuts_the_diagram(monkeypatch):
    """A lifting phase with no row to add re-cuts N1 around its tree.

    Sinking from row 1 along its pi-column 1 reaches row 3, whose
    pi-column 0 lies in N2, so the trajectory turns to lifting.  No row
    of M1 has an entry above t in column 0, and the re-cut adds that
    column to N1 and keeps M1.
    """
    from maxminconv import koenig

    third = Fraction(1, 3)
    m = Matrix((
        (third, 2 * third, 2 * third),
        (third, 2 * third, third),
        (third, third, 2 * third),
        (Fraction(1), Fraction(1), 2 * third),
    ))
    kd = koenig.KoenigDiagram(
        matrix=m, t=2 * third, m1_rows=(0, 1, 2), n1_cols=(1, 2),
        pi=((1, 1), (2, 2), (3, 0)),
    )
    kd.validate()
    assert kd.tightness == -1

    changes = []
    raised = koenig._raised

    def spy(d, **kw):
        changes.append(kw)
        return raised(d, **kw)

    monkeypatch.setattr(koenig, "_raised", spy)
    better = improve_diagram(kd)
    better.validate()
    assert better.is_tight and better.tightness == 0
    assert (better.m1_rows, better.n1_cols, better.pi) == ((0, 1, 2), (0, 1, 2), kd.pi)
    assert [set(kw) for kw in changes] == [{"m1_rows", "n1_cols"}]
    assert set(better.n1_cols) > set(kd.n1_cols)
    assert set(better.m1_rows) <= set(kd.m1_rows)


def test_improve_rejects_tight_input():
    kd = tight_diagram(A_EXAMPLE)
    with pytest.raises(PreconditionError):
        improve_diagram(kd)


def test_tight_diagram_random_matrices():
    def check(kd, d):
        kd.validate()
        assert kd.m2_rows == tuple(r for r in range(d + 1) if r not in kd.m1_rows)
        assert kd.n2_cols == tuple(c for c in range(d) if c not in kd.n1_cols)
        assert [kd.free_row] == [r for r in range(d + 1) if r not in kd.pi_map]

    rng = random.Random(11)
    for _ in range(150):
        d = rng.randrange(1, 5)
        m = random_matrix(rng, d, den=4)
        kd = koenig_diagram(m)
        check(kd, d)
        while not kd.is_tight:
            nxt = improve_diagram(kd)
            check(nxt, d)
            assert nxt.tightness > kd.tightness
            kd = nxt
        final = tight_diagram(m)
        check(final, d)
        assert final.is_tight


def test_validate_catches_corruption():
    kd = koenig_diagram(A_EXAMPLE)
    assert kd.pi == ((1, 0), (2, 1)) and kd.t == Fraction(2, 5)
    # row 2 holds both columns, each at or above t
    with pytest.raises(InvalidDiagram, match="distinct rows"):
        replace(kd, pi=((2, 0), (2, 1))).validate()
    # entry (0, 1) is 1/10, below t
    with pytest.raises(InvalidDiagram, match="below t"):
        replace(kd, pi=((0, 1), (2, 0))).validate()


# ---------------------------------------------------------------------------
# internal separation
# ---------------------------------------------------------------------------


def separation_is_valid(points, p, assignment):
    assert sorted(assignment) == list(range(len(points)))
    assert sorted(assignment.values()) == sorted(set(assignment.values()))
    for row, sector_idx in assignment.items():
        s = semispace(p, sector_idx)
        assert sector_contains(s, points[row])
    assert hull_member(p, Polytope(tuple(points))).member


def test_intsep_base_case():
    p, assignment = internal_separation([point("0.3"), point("0.7")])
    assert p == point("0.7")
    separation_is_valid([point("0.3"), point("0.7")], p, assignment)


def test_intsep_sorted_example():
    rows = [point("0.9", "0.1"), point("0.8", "0.3"), point("0.5", "0.4")]
    p, assignment = intsep_sorted(rows)
    assert p == point("0.9", "0.4")
    separation_is_valid(rows, p, assignment)


def test_intsep_example_agrees_on_validity():
    rows = [point("0.9", "0.1"), point("0.8", "0.3"), point("0.5", "0.4")]
    p, assignment = internal_separation(rows)
    assert p == point("0.9", "0.4")
    separation_is_valid(rows, p, assignment)


def test_intsep_sorted_equal_rows():
    rows = [point("0.6", "0.4"), point("0.6", "0.4"), point("0.6", "0.4")]
    p, _ = intsep_sorted(rows)
    assert p == point("0.6", "0.4")


def test_intsep_sorted_rejects_unsorted_rows():
    with pytest.raises(PreconditionError):
        intsep_sorted([point("0.1", "0.9"), point("0.5", "0.4"), point("0.3", "0.2")])


def test_intsep_rejects_boundary_coordinates():
    with pytest.raises(PreconditionError):
        internal_separation([point("1", "0.5"), point("0.5", "0.5"), point("0.2", "0.2")])


def test_intsep_threshold_floor():
    """Every coordinate of the separator reaches the bottleneck threshold."""
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randrange(1, 4)
        rows = [random_interior_point(rng, d) for _ in range(d + 1)]
        t = bottleneck_threshold(Matrix.from_points(rows))
        p, assignment = internal_separation(rows)
        assert all(c >= t for c in p.coords)
        separation_is_valid(rows, p, assignment)


def test_intsep_random_instances():
    rng = random.Random(37)
    for _ in range(120):
        d = rng.randrange(1, 5)
        rows = [random_interior_point(rng, d) for _ in range(d + 1)]
        p, assignment = internal_separation(rows)
        separation_is_valid(rows, p, assignment)


def test_intsep_sorted_random_instances():
    rng = random.Random(41)
    for _ in range(80):
        d = rng.randrange(1, 5)
        rows = [
            Point(tuple(sorted((random_interior_point(rng, d)).coords, reverse=True)))
            for _ in range(d + 1)
        ]
        p, assignment = intsep_sorted(rows)
        separation_is_valid(rows, p, assignment)
