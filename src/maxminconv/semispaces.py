"""Semispaces: the maximal convex sets avoiding a point.

At an anchor p in [lo, hi]^d there are at most d + 1 semispaces, indexed
by 0..d.  Writing coordinates 1-based to match the index convention:

* S_0(p) = { q : q_m > p_m for some m }
* S_i(p) = { q : q_i < p_i }  union  { q : q_m > p_m for some m with p_m < p_i }

The "tail" of coordinate i is the set of coordinates with strictly
smaller anchor value; coordinates tied with p_i are not in the tail.
The complement of S_i(p) is the (closed) sector of p in direction i:

* sector 0:  q <= p componentwise
* sector i:  q_i >= p_i  and  q_m <= p_m for every tail coordinate m

The valid index set I(p) drops index i when p_i = lo (S_i would need
points below the floor) and drops 0 when some p_m = hi.  For anchors
strictly inside the bounds, I(p) = {0, 1, ..., d} and the sectors cover
the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import PreconditionError, SemiringBounds, UNIT, as_value
from .geometry import Point, _check_bounds, _check_same_dim


class NotOnDiagonal(PreconditionError):
    """Raised when a diagonal-anchored construction gets an off-diagonal point."""


def index_set(p: Point, bounds: SemiringBounds = UNIT) -> tuple[int, ...]:
    """Valid semispace indices I(p), ascending, 0 first when present."""
    _check_bounds(p, bounds)
    return _index_set(p, bounds)


def _index_set(p: Point, bounds: SemiringBounds) -> tuple[int, ...]:
    """``index_set`` for a point already inside the bounds."""
    out = []
    if all(c < bounds.hi for c in p.coords):
        out.append(0)
    for i, c in enumerate(p.coords, start=1):
        if c > bounds.lo:
            out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class SemispaceId:
    """A semispace S_index(anchor); index 0 is the upper semispace."""

    anchor: Point
    index: int

    @property
    def dim(self) -> int:
        return len(self.anchor)

    def tail(self) -> tuple[int, ...]:
        """0-based coordinates with anchor value strictly below coordinate index-1."""
        if self.index == 0:
            return ()
        c = self.index - 1
        return tuple(m for m in range(self.dim) if self.anchor[m] < self.anchor[c])

    def __str__(self) -> str:
        return "S_%d%s" % (self.index, self.anchor)


def semispace(p: Point, index: int, bounds: SemiringBounds = UNIT) -> SemispaceId:
    """The semispace of p with the given index; index must lie in I(p)."""
    valid = index_set(p, bounds)
    if index not in valid:
        raise PreconditionError(
            "index %d not valid for anchor %s; I(p) = %s" % (index, p, list(valid))
        )
    return SemispaceId(anchor=p, index=index)


def semispace_family(p: Point, bounds: SemiringBounds = UNIT) -> tuple[SemispaceId, ...]:
    """All semispaces at p, one per index in I(p)."""
    return tuple(SemispaceId(anchor=p, index=i) for i in index_set(p, bounds))


def semispace_contains(s: SemispaceId, q: Point) -> bool:
    """Strict membership q in S_index(anchor)."""
    p = s.anchor
    _check_same_dim(p, q)
    if s.index == 0:
        return any(qm > pm for qm, pm in zip(q, p))
    c = s.index - 1
    if q[c] < p[c]:
        return True
    return any(q[m] > p[m] for m in s.tail())


def sector_contains(s: SemispaceId, q: Point) -> bool:
    """Membership in the complement sector (closed by construction)."""
    return not semispace_contains(s, q)


def sector_test(s: SemispaceId) -> Callable[[Point], bool]:
    """``sector_contains(s, .)`` for many points of the anchor's dimension.

    The tail is computed once, here, instead of once per point, and the
    points' dimension is not checked again.
    """
    p = s.anchor
    if s.index == 0:
        return lambda q: all(qm <= pm for qm, pm in zip(q.coords, p.coords))
    c = s.index - 1
    pc = p[c]
    tail = [(m, p[m]) for m in s.tail()]
    return lambda q: q[c] >= pc and all(q[m] <= pm for m, pm in tail)


def semispace_closure_contains(s: SemispaceId, q: Point) -> bool:
    """Non-strict relaxation of the semispace condition."""
    p = s.anchor
    _check_same_dim(p, q)
    if s.index == 0:
        return any(qm >= pm for qm, pm in zip(q, p))
    c = s.index - 1
    if q[c] <= p[c]:
        return True
    return any(q[m] >= p[m] for m in s.tail())


def sector_contains_box(s: SemispaceId, lower: Point, upper: Point) -> bool:
    """Does the whole box [lower, upper] sit inside the sector?

    Sectors are intersections of per-coordinate halfspaces, so it is
    enough to test the adversarial corner for each constraint.
    """
    p = s.anchor
    _check_same_dim(p, lower)
    _check_same_dim(p, upper)
    if s.index == 0:
        return upper.leq(p)
    c = s.index - 1
    if lower[c] < p[c]:
        return False
    return all(upper[m] <= p[m] for m in s.tail())


@dataclass(frozen=True)
class Hyperplane:
    """Max-min hyperplane: solutions of lhs(x) = rhs(x) with

    lhs(x) = max(min(a_1, x_1), ..., min(a_d, x_d), a_{d+1})

    and the same shape for rhs with coefficients b.  Coefficient vectors
    have length d + 1; the last entry is the free term.
    """

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(as_value(v) for v in self.a))
        object.__setattr__(self, "b", tuple(as_value(v) for v in self.b))
        if len(self.a) != len(self.b):
            raise PreconditionError("coefficient vectors differ in length")
        if len(self.a) < 2:
            raise PreconditionError("need at least one coordinate plus a free term")

    @property
    def dim(self) -> int:
        return len(self.a) - 1


def _side_eval(coeffs: tuple[Fraction, ...], x: Point) -> Fraction:
    best = coeffs[-1]
    for c, xi in zip(coeffs[:-1], x):
        v = min(c, xi)
        if v > best:
            best = v
    return best


def hyperplane_eval(h: Hyperplane, x: Point) -> tuple[Fraction, Fraction]:
    """Both side values (lhs, rhs) at x."""
    if len(x) != h.dim:
        raise PreconditionError("point dimension %d != hyperplane dimension %d" % (len(x), h.dim))
    return _side_eval(h.a, x), _side_eval(h.b, x)


def hyperplane_contains(h: Hyperplane, x: Point) -> bool:
    lhs, rhs = hyperplane_eval(h, x)
    return lhs == rhs


def diagonal_closure_hyperplane(p: Point, index: int, bounds: SemiringBounds = UNIT) -> Hyperplane:
    """Hyperplane whose solution set is the closure of S_index(p) for a
    diagonal anchor p = (v, ..., v).

    index 0 gives { x : max_i x_i >= v }; index i >= 1 gives { x : x_i <= v }.
    Off-diagonal anchors are refused: their semispace closures need the
    full block structure and are not single hyperplanes of this form.
    """
    _check_bounds(p, bounds)
    vals = set(p.coords)
    if len(vals) != 1:
        raise NotOnDiagonal("anchor %s is not on the diagonal" % (p,))
    if index not in index_set(p, bounds):
        raise PreconditionError(
            "index %d not valid for anchor %s; I(p) = %s"
            % (index, p, list(index_set(p, bounds)))
        )
    return _diagonal_hyperplane(p[0], index, len(p), bounds)


def _diagonal_hyperplane(v: Fraction, index: int, d: int, bounds: SemiringBounds) -> Hyperplane:
    """Coefficients of { x : max_i x_i >= v } (index 0) or { x : x_index <= v }.

    No index-set check: at v = hi or v = lo these are still hyperplanes
    ({ max_i x_i = hi } and { x_index = lo }) even though the semispace
    they close is not valid there.
    """
    lo = bounds.lo
    if index == 0:
        a = tuple([v] * d + [lo])
        b = tuple([lo] * d + [v])
    else:
        c = index - 1
        a = tuple(v if j == c else lo for j in range(d)) + (lo,)
        b = tuple(bounds.hi if j == c else lo for j in range(d)) + (lo,)
    return Hyperplane(a=a, b=b)
