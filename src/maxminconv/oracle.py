"""Brute-force reference implementations for cross-validation.

Everything here recomputes results from definitions: hull membership by
enumerating coefficient tuples over a finite grid, segments by
enumerating two-point combinations, bottlenecks by trying every row
choice and bijection.  None of it calls the algorithms under test; hull
membership runs on the pure-Python enumeration kernel
``_kernels.bf_hull_eval``, which no algorithm under test uses, and is
tested against a plain Fraction loop kept with the tests.  Nothing here
imports numpy.

Deliberately small: guards refuse instances where enumeration would not
be exhaustive in reasonable time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .core import (
    MIN,
    DomainError,
    PreconditionError,
    SemiringBounds,
    TNorm,
    UNIT,
    as_value,
    common_denominator,
    value_grid,
)
from .geometry import Point

MAX_GRID = 51
MAX_GENERATORS = 5
MAX_DIM = 5

_TAGS = {"min": _kernels.TAG_MIN, "product": _kernels.TAG_PRODUCT, "lukasiewicz": _kernels.TAG_LUKASIEWICZ}


@dataclass(frozen=True)
class GridSpec:
    """Finite coefficient / coordinate grid for exhaustive enumeration."""

    base: tuple[Fraction, ...]
    bounds: SemiringBounds = UNIT
    step: Fraction | None = None

    def axis_values(self) -> tuple[Fraction, ...]:
        try:
            out = value_grid([as_value(v) for v in self.base], self.bounds, self.step)
        except DomainError as exc:
            raise PreconditionError(str(exc)) from None
        if len(out) > MAX_GRID:
            raise PreconditionError(
                "oracle guard: grid has %d values, max %d" % (len(out), MAX_GRID)
            )
        return out

    @staticmethod
    def from_inputs(points: Sequence[Point], bounds: SemiringBounds = UNIT,
                    step: Fraction | None = None) -> "GridSpec":
        base = tuple(c for p in points for c in p.coords)
        return GridSpec(base=base, bounds=bounds, step=step)


def _guards(points: Sequence[Point], p: Point | None = None) -> None:
    if len(points) > MAX_GENERATORS:
        raise PreconditionError(
            "oracle guard: %d generators, max %d" % (len(points), MAX_GENERATORS)
        )
    d = points[0].dim
    if d > MAX_DIM:
        raise PreconditionError("oracle guard: dimension %d, max %d" % (d, MAX_DIM))
    if p is not None and p.dim != d:
        raise PreconditionError("dimension mismatch")


def brute_hull_members(
    candidates: Sequence[Point],
    generators: Sequence[Point],
    grid: GridSpec,
    tnorm: TNorm = MIN,
) -> list[bool]:
    """Membership of each candidate by full coefficient-grid enumeration.

    A candidate is a hull point when some tuple of grid coefficients with
    maximum equal to hi combines the generators into it exactly.  Shares
    one coefficient enumeration across all candidates.
    """
    _guards(generators, candidates[0] if candidates else None)
    values = grid.axis_values()
    all_values = set(values)
    for q in list(candidates) + list(generators):
        all_values.update(q.coords)
    table = sorted(all_values)
    if tnorm.is_min:
        rank = {v: i for i, v in enumerate(table)}
        denom = 1
        top = rank[grid.bounds.hi]
        enc = lambda v: rank[v]
    else:
        if grid.bounds != UNIT:
            raise PreconditionError("product/lukasiewicz oracles need [0, 1] bounds")
        denom = common_denominator(table)
        if denom > 10**6:
            raise PreconditionError(
                "oracle guard: common denominator %d too large" % denom
            )
        top = denom
        enc = lambda v: int(v * denom)
    lam_vals = [enc(v) for v in values]
    x = [[enc(c) for c in g.coords] for g in generators]
    ps = [[enc(c) for c in q.coords] for q in candidates]
    return _kernels.bf_hull_eval(_TAGS[tnorm.tag], denom, lam_vals, x, ps, top)


def brute_hull_member(
    p: Point,
    generators: Sequence[Point],
    grid: GridSpec,
    tnorm: TNorm = MIN,
) -> bool:
    """Single-candidate version of ``brute_hull_members``."""
    return brute_hull_members([p], generators, grid, tnorm)[0]


def brute_segment(x: Point, y: Point, grid: GridSpec) -> frozenset[Point]:
    """All two-point max-min combinations with coefficients on the grid.

    Enumerates (alpha ^ x) v (beta ^ y) with alpha v beta = hi, which for
    grid coefficients means one of them is hi and the other runs over the
    grid.
    """
    values = grid.axis_values()
    hi = grid.bounds.hi
    out = set()
    for beta in values:
        out.add(Point(tuple(max(min(hi, a), min(beta, b)) for a, b in zip(x, y))))
        out.add(Point(tuple(max(min(beta, a), min(hi, b)) for a, b in zip(x, y))))
    return frozenset(out)


def brute_bottleneck(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Best over row subsets and bijections of the minimal matched entry."""
    rows = [tuple(as_value(v) for v in row) for row in rows]
    d = len(rows[0])
    if len(rows) != d + 1:
        raise PreconditionError("expected %d rows, got %d" % (d + 1, len(rows)))
    best: Fraction | None = None
    for drop in range(d + 1):
        chosen = [rows[i] for i in range(d + 1) if i != drop]
        for perm in itertools.permutations(range(d)):
            value = min(chosen[i][perm[i]] for i in range(d))
            if best is None or value > best:
                best = value
    assert best is not None
    return best
