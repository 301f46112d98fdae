"""Points, max-min segments and their piecewise-linear structure.

A max-min segment between x and y is the set of combinations
(alpha ^ x) v (beta ^ y) with alpha v beta = hi, where v is the
componentwise max and ^ clips from above.  For comparable endpoints
x <= y the segment is a monotone staircase parametrized by

    z(beta)_i = max(x_i, min(beta, y_i)),

which is linear between consecutive breakpoints (the multiset of all 2d
endpoint coordinates).  On a piece, each coordinate either moves with
beta (the M set), is locked at x_i from below (L) or at y_i from above
(H).  Incomparable endpoints split at the corner m = x v y into two
comparable halves [x, m] and [y, m], the second traversed backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    PreconditionError,
    RationalLike,
    SemiringBounds,
    UNIT,
    as_value,
)


@dataclass(frozen=True)
class Point:
    """An exact point; coordinates are Fractions."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # a tuple of Fractions (every point the package builds, instance
        # files included) is kept as it is; anything else is coerced
        coords = self.coords
        if type(coords) is not tuple or not all(type(c) is Fraction for c in coords):
            object.__setattr__(self, "coords", tuple(as_value(c) for c in coords))
        if not self.coords:
            raise ValueError("points need at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def leq(self, other: "Point") -> bool:
        """Componentwise order."""
        _check_same_dim(self, other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def join(self, other: "Point") -> "Point":
        """Componentwise max."""
        _check_same_dim(self, other)
        return Point(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def meet(self, other: "Point") -> "Point":
        _check_same_dim(self, other)
        return Point(tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point(*coords: RationalLike) -> Point:
    """Convenience constructor: point('0.2', '1/2') or point(seq)."""
    if len(coords) == 1 and not isinstance(coords[0], (str, int, Fraction)):
        coords = tuple(coords[0])  # type: ignore[assignment]
    return Point(tuple(as_value(c) for c in coords))


def _check_same_dim(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise PreconditionError(
            "dimension mismatch: %d vs %d" % (len(a), len(b))
        )


def _check_bounds(p: Point, bounds: SemiringBounds) -> None:
    for c in p.coords:
        if not bounds.contains(c):
            raise PreconditionError(
                "coordinate %s of %s outside bounds %s" % (c, p, bounds)
            )


def segment_point(x: Point, y: Point, beta: RationalLike, bounds: SemiringBounds = UNIT) -> Point:
    """Parametrized point z(beta) on the segment from x up to y.

    Requires x <= y componentwise.  z(lo) = x and z(hi) = y; in between
    every coordinate follows beta while it is inside [x_i, y_i].
    """
    _check_same_dim(x, y)
    _check_bounds(x, bounds)
    _check_bounds(y, bounds)
    b = bounds.check(beta)
    if not x.leq(y):
        raise PreconditionError(
            "segment_point requires x <= y componentwise; "
            "use segment_decompose for arbitrary endpoints"
        )
    return Point(tuple(max(xi, min(b, yi)) for xi, yi in zip(x, y)))


@dataclass(frozen=True)
class SegmentPiece:
    """One parameter interval [beta_lo, beta_hi] of a comparable segment.

    ``m_indices`` move with the parameter, ``l_indices`` sit at the lower
    endpoint's value, ``h_indices`` at the upper one's.  A piece with an
    empty M set, or with beta_lo == beta_hi, is a single point.
    Coordinates are 0-indexed.
    """

    beta_lo: Fraction
    beta_hi: Fraction
    start: Point
    end: Point
    m_indices: frozenset[int]
    l_indices: frozenset[int]
    h_indices: frozenset[int]

    @property
    def moving(self) -> bool:
        return bool(self.m_indices) and self.beta_lo < self.beta_hi


COMPARABLE = "comparable"
CONCATENATED = "concatenated"


@dataclass(frozen=True)
class SegmentDecomposition:
    """Full piecewise description of the segment between x and y.

    For comparable endpoints, ``pieces`` covers the whole parameter range
    [lo, hi] (2d + 1 intervals including the stationary flanks before
    min(x) and after max(y)), ordered from x to y.  For incomparable
    endpoints ``corner`` is m = x v y, and ``pieces`` concatenates the
    halves [x, m] and [m, y], oriented from x to y.
    """

    x: Point
    y: Point
    pieces: tuple[SegmentPiece, ...]
    corner: Point | None = None

    @property
    def mode(self) -> str:
        return COMPARABLE if self.corner is None else CONCATENATED

    def elementary(self) -> tuple[tuple[Point, Point, frozenset[int]], ...]:
        """Maximal straight pieces as (start, end, moving-set) triples.

        Consecutive moving pieces with the same M set are merged; they are
        collinear splits caused by breakpoints of locked coordinates.
        """
        out: list[tuple[Point, Point, frozenset[int]]] = []
        for piece in self.pieces:
            if not piece.moving:
                continue
            if out and out[-1][2] == piece.m_indices and out[-1][1] == piece.start:
                out[-1] = (out[-1][0], piece.end, piece.m_indices)
            else:
                out.append((piece.start, piece.end, piece.m_indices))
        return tuple(out)

    def corner_chain(self) -> tuple[Point, ...]:
        """Vertices of the staircase from x to y, pauses skipped.

        The pieces chain from x to y without gaps and a pause starts where
        it ends, so each straight piece starts at the last one's end.
        """
        return (self.x, *(end for _, end, _ in self.elementary()))

    def length(self) -> RadicalSum:
        """Length of the staircase from x to y.

        Each maximal straight piece moves |M| coordinates in lockstep, so
        its Euclidean length is delta * sqrt(|M|).  The result is kept
        symbolic.
        """
        total = RadicalSum.zero()
        for start, end, m_set in self.elementary():
            i = next(iter(m_set))
            total = total + RadicalSum.term(abs(end[i] - start[i]), len(m_set))
        return total


def _ordered_pieces(lower: Point, upper: Point, bounds: SemiringBounds) -> tuple[SegmentPiece, ...]:
    """Pieces of the segment lower <= upper, from lower to upper.

    The cuts are the bounds and the 2d endpoint coordinates, so no
    endpoint coordinate lies strictly inside a cut interval [t0, t1]:
    coordinate i moves on it when lo_i <= t0 and t1 <= up_i, is low when
    t1 <= lo_i, and is high otherwise.  Each cut's point is built once,
    as ``segment_point`` would build it, and ends one piece and starts
    the next.
    """
    cuts = [bounds.lo, *sorted(lower.coords + upper.coords), bounds.hi]
    pairs = list(zip(lower.coords, upper.coords))
    ends = [Point(tuple(max(lo_i, min(t, up_i)) for lo_i, up_i in pairs)) for t in cuts]
    pieces = []
    for k, (t0, t1) in enumerate(zip(cuts, cuts[1:])):
        m_set, l_set, h_set = [], [], []
        for i, (lo_i, up_i) in enumerate(pairs):
            if lo_i <= t0 and t1 <= up_i:
                m_set.append(i)
            elif t1 <= lo_i:
                l_set.append(i)
            else:
                h_set.append(i)
        pieces.append(
            SegmentPiece(
                beta_lo=t0,
                beta_hi=t1,
                start=ends[k],
                end=ends[k + 1],
                m_indices=frozenset(m_set),
                l_indices=frozenset(l_set),
                h_indices=frozenset(h_set),
            )
        )
    return tuple(pieces)


def _backwards(pieces: tuple[SegmentPiece, ...]) -> tuple[SegmentPiece, ...]:
    """The same pieces traversed from the upper endpoint to the lower one."""
    return tuple(
        SegmentPiece(p.beta_lo, p.beta_hi, p.end, p.start, p.m_indices, p.l_indices, p.h_indices)
        for p in reversed(pieces)
    )


def segment_decompose(x: Point, y: Point, bounds: SemiringBounds = UNIT) -> SegmentDecomposition:
    """Decompose the segment from x to y, any relative order of endpoints."""
    _check_same_dim(x, y)
    _check_bounds(x, bounds)
    _check_bounds(y, bounds)
    corner = None
    if x.leq(y):
        pieces = _ordered_pieces(x, y, bounds)
    elif y.leq(x):
        pieces = _backwards(_ordered_pieces(y, x, bounds))
    else:
        corner = x.join(y)
        pieces = _ordered_pieces(x, corner, bounds) + _backwards(_ordered_pieces(y, corner, bounds))
    return SegmentDecomposition(x, y, pieces, corner)


def _beta_interval_for_ordered(lower: Point, upper: Point, z: Point,
                               bounds: SemiringBounds) -> bool:
    """Is z on the segment [lower, upper] (lower <= upper)?

    Intersects the per-coordinate constraints on the parameter beta:
    z_i outside [lower_i, upper_i] rules the point out; z_i at a strict
    lower (upper) endpoint forces beta <= lower_i (beta >= upper_i); a
    strictly interior z_i pins beta = z_i.
    """
    beta_min = bounds.lo
    beta_max = bounds.hi
    for i in range(len(z)):
        lo_i, hi_i, zi = lower[i], upper[i], z[i]
        if zi < lo_i or zi > hi_i:
            return False
        if lo_i == hi_i:
            continue
        if zi == lo_i:
            beta_max = min(beta_max, lo_i)
        elif zi == hi_i:
            beta_min = max(beta_min, hi_i)
        else:
            beta_min = max(beta_min, zi)
            beta_max = min(beta_max, zi)
        if beta_min > beta_max:
            return False
    return beta_min <= beta_max


def segment_contains(x: Point, y: Point, z: Point, bounds: SemiringBounds = UNIT) -> bool:
    """Exact membership of z in the segment from x to y."""
    _check_same_dim(x, y)
    _check_same_dim(x, z)
    _check_bounds(x, bounds)
    _check_bounds(y, bounds)
    _check_bounds(z, bounds)
    if x.leq(y):
        return _beta_interval_for_ordered(x, y, z, bounds)
    if y.leq(x):
        return _beta_interval_for_ordered(y, x, z, bounds)
    corner = x.join(y)
    return (
        _beta_interval_for_ordered(x, corner, z, bounds)
        or _beta_interval_for_ordered(y, corner, z, bounds)
    )


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * m with m squarefree; returns (s, m)."""
    s, m = 1, 1
    d = 2
    while d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        s *= d ** (exp // 2)
        if exp % 2:
            m *= d
        d += 1
    m *= n
    return s, m


@dataclass(frozen=True)
class RadicalSum:
    """Exact sum of terms coeff * sqrt(radicand), radicands squarefree.

    Closed under addition, which is all a staircase length needs: each
    straight piece contributes delta * sqrt(|M|).
    """

    terms: tuple[tuple[int, Fraction], ...] = field(default=())

    @staticmethod
    def zero() -> "RadicalSum":
        return RadicalSum(())

    @staticmethod
    def term(coeff: Fraction, radicand: int) -> "RadicalSum":
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        s, m = _squarefree_split(radicand)
        c = coeff * s
        if c == 0:
            return RadicalSum(())
        return RadicalSum(((m, c),))

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        acc: dict[int, Fraction] = {}
        for m, c in self.terms + other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return RadicalSum(tuple(sorted((m, c) for m, c in acc.items() if c != 0)))

    def to_float(self) -> float:
        return float(sum(float(c) * math.sqrt(m) for m, c in self.terms))

    def rational_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact rational interval containing the value."""
        precision = 10**12  # each square root within 1/precision
        lo = Fraction(0)
        hi = Fraction(0)
        for m, c in self.terms:
            r = math.isqrt(m * precision * precision)
            sq_lo = Fraction(r, precision)
            sq_hi = Fraction(r + 1, precision)
            if c >= 0:
                lo += c * sq_lo
                hi += c * sq_hi
            else:
                lo += c * sq_hi
                hi += c * sq_lo
        return lo, hi

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            if m == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append("sqrt(%d)" % m)
            else:
                parts.append("%s*sqrt(%d)" % (c, m))
        return " + ".join(parts)


def geodesic_distance(x: Point, y: Point, bounds: SemiringBounds = UNIT) -> RadicalSum:
    """Length of the staircase segment from x to y, kept symbolic."""
    return segment_decompose(x, y, bounds).length()


def parse_points(rows: Iterable[Sequence[RationalLike]]) -> tuple[Point, ...]:
    return tuple(Point(tuple(as_value(c) for c in row)) for row in rows)
