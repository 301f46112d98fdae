"""Bottleneck thresholds, covering diagrams and internal separation.

Input is a matrix A of d + 1 points in [lo, hi]^d (rows are points).
The bottleneck threshold t is the best value such that some d rows can
be matched bijectively to the d columns with all matched entries >= t.
Everything else in this module is bookkeeping around the bipartite
structure of the entries above t:

* a covering diagram splits rows into (M1, M2) and columns into (N1, N2)
  so that the block M1 x N1 has all entries <= t, together with a
  permutation pi at level t covering the columns and leaving one row free;
* the tightness of a diagram is m1 + n1 - d - 1 - r with r the number of
  pi-pairs inside M1 x N1; it always satisfies
  tightness = -(s + [free row in M2]) <= 0, where s counts pi-pairs in
  M2 x N2, so a diagram is tight exactly when s = 0 and the free row is
  in M1;
* improve_diagram raises the tightness strictly, by rerouting pi along
  an alternating trajectory or by re-cutting the diagram when the
  trajectory gets stuck;
* a tight diagram drives the recursive construction of a point p in the
  hull of the rows, certified by a bijection row -> sector.

Row and column indices are 0-based throughout; sector indices follow the
semispace convention (0 = upper, i >= 1 anchors coordinate i - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .core import PreconditionError, SemiringBounds, UNIT, as_value
from .geometry import Point
from .semispaces import semispace, sector_contains


class InvalidDiagram(ValueError):
    """A diagram failed one of its structural invariants."""


@dataclass(frozen=True)
class Matrix:
    """A (d+1) x d matrix of exact values; rows are points of [lo,hi]^d."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_value(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise PreconditionError("matrix needs at least one row")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise PreconditionError("ragged matrix")
        if len(rows) != d + 1:
            raise PreconditionError(
                "expected %d rows for %d columns, got %d" % (d + 1, d, len(rows))
            )

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Matrix":
        return Matrix(tuple(tuple(p.coords) for p in points))

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entries(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.rows for v in row)


def _max_matching(adj: Sequence[Sequence[int]]) -> dict[int, int]:
    """Deterministic Kuhn matching; returns row -> column map.

    Rows are processed in ascending order and adjacency lists must be
    ascending, which pins the result down uniquely.
    """
    col_match: dict[int, int] = {}

    def try_row(r: int, seen: set[int]) -> bool:
        for c in adj[r]:
            if c in seen:
                continue
            seen.add(c)
            if c not in col_match or try_row(col_match[c], seen):
                col_match[c] = r
                return True
        return False

    for r in range(len(adj)):
        try_row(r, set())
    return {r: c for c, r in col_match.items()}


def _level_adjacency(a: Matrix, level: Fraction, strict: bool) -> list[list[int]]:
    if strict:
        return [[c for c in range(a.ncols) if a.rows[r][c] > level] for r in range(a.nrows)]
    return [[c for c in range(a.ncols) if a.rows[r][c] >= level] for r in range(a.nrows)]


def bottleneck_threshold(a: Matrix) -> Fraction:
    """Largest t with a column-saturating matching on entries >= t.

    Binary search over the sorted distinct entries; feasibility is
    monotone decreasing in t.  Equals the best over choices of d rows
    and bijections of the minimal matched entry.
    """
    values = sorted(set(a.entries()))
    lo, hi = 0, len(values) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        adj = _level_adjacency(a, values[mid], strict=False)
        if len(_max_matching(adj)) == a.ncols:
            best = values[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise PreconditionError("no column-saturating matching at any level")
    return best


@dataclass(frozen=True)
class KoenigDiagram:
    """Covering diagram of a matrix at its bottleneck threshold t.

    Only what the construction decides is stored: the cut's M1 and N1,
    and ``pi`` as a sorted tuple of (row, column) pairs forming a
    bijection onto all columns.  M2 and N2 are the ascending complements
    of M1 and N1, and ``free_row`` is the one row pi leaves out.
    """

    matrix: Matrix
    t: Fraction
    m1_rows: tuple[int, ...]
    n1_cols: tuple[int, ...]
    pi: tuple[tuple[int, int], ...]

    @property
    def m2_rows(self) -> tuple[int, ...]:
        m1 = set(self.m1_rows)
        return tuple(r for r in range(self.matrix.nrows) if r not in m1)

    @property
    def n2_cols(self) -> tuple[int, ...]:
        n1 = set(self.n1_cols)
        return tuple(c for c in range(self.matrix.ncols) if c not in n1)

    @property
    def free_row(self) -> int:
        matched = {row for row, _ in self.pi}
        return next(r for r in range(self.matrix.nrows) if r not in matched)

    @property
    def pi_map(self) -> dict[int, int]:
        return dict(self.pi)

    @property
    def m1(self) -> int:
        return len(self.m1_rows)

    @property
    def n1(self) -> int:
        return len(self.n1_cols)

    @property
    def r(self) -> int:
        m1 = set(self.m1_rows)
        n1 = set(self.n1_cols)
        return sum(1 for row, col in self.pi if row in m1 and col in n1)

    @property
    def s(self) -> int:
        m1 = set(self.m1_rows)
        n1 = set(self.n1_cols)
        return sum(1 for row, col in self.pi if row not in m1 and col not in n1)

    @property
    def tightness(self) -> int:
        d = self.matrix.ncols
        return self.m1 + self.n1 - d - 1 - self.r

    @property
    def is_tight(self) -> bool:
        return self.tightness >= 0

    def validate(self) -> None:
        """Check every structural invariant; raises InvalidDiagram."""
        a = self.matrix
        d = a.ncols
        for name, items, size in (("M1", self.m1_rows, d + 1), ("N1", self.n1_cols, d)):
            if len(set(items)) != len(items) or not all(0 <= i < size for i in items):
                raise InvalidDiagram("%s is not a set of indices below %d" % (name, size))
        for row in self.m1_rows:
            for col in self.n1_cols:
                if a.rows[row][col] > self.t:
                    raise InvalidDiagram(
                        "entry (%d, %d) above t inside M1 x N1" % (row, col)
                    )
        if self.m1 + self.n1 < d + 2:
            raise InvalidDiagram("m1 + n1 = %d below d + 2" % (self.m1 + self.n1))
        cols = sorted(col for _, col in self.pi)
        if cols != list(range(d)):
            raise InvalidDiagram("pi is not a bijection onto the columns")
        rows = {row for row, _ in self.pi}
        if len(rows) != d or not all(0 <= row <= d for row in rows):
            raise InvalidDiagram("pi rows must be %d distinct rows" % d)
        for row, col in self.pi:
            if a.rows[row][col] < self.t:
                raise InvalidDiagram("pi entry (%d, %d) below t" % (row, col))
        if self.tightness != -(self.s + (0 if self.free_row in self.m1_rows else 1)):
            raise InvalidDiagram("tightness does not match its counting identity")
        if self.is_tight:
            if self.free_row not in self.m1_rows:
                raise InvalidDiagram("tight diagram with free row outside M1")
            if self.s != 0:
                raise InvalidDiagram("tight diagram with pi crossing M2 x N2")


def _pi_at_level(a: Matrix, t: Fraction) -> dict[int, int]:
    """Level-t permutation of every row but the smallest feasible free one."""
    base = _level_adjacency(a, t, strict=False)
    for f in range(a.nrows):
        adj = list(base)
        adj[f] = []
        match = _max_matching(adj)
        if len(match) == a.ncols:
            return match
    raise PreconditionError("no level-%s permutation exists" % (t,))


def koenig_diagram(a: Matrix) -> KoenigDiagram:
    """Initial covering diagram at the bottleneck threshold.

    The cover comes from the matching structure of the strictly-above-t
    entries: with Z the rows and columns alternately reachable from the
    unmatched rows, M2 = rows not in Z and N2 = columns in Z form a
    minimum vertex cover, so the uncovered block M1 x N1 is entirely
    <= t.  When no entry exceeds t the cover is empty and the diagram
    degenerates to the full matrix, which is already tight.
    """
    t = bottleneck_threshold(a)
    adj = _level_adjacency(a, t, strict=True)
    match = _max_matching(adj)  # row -> col on entries > t
    matched_rows = set(match)
    col_owner = {c: r for r, c in match.items()}
    reach_rows = set(r for r in range(a.nrows) if r not in matched_rows)
    reach_cols: set[int] = set()
    queue = sorted(reach_rows)
    while queue:
        nxt: list[int] = []
        for r in queue:
            for c in adj[r]:
                if c in reach_cols:
                    continue
                reach_cols.add(c)
                owner = col_owner.get(c)
                if owner is not None and owner not in reach_rows:
                    reach_rows.add(owner)
                    nxt.append(owner)
        queue = sorted(nxt)
    diagram = KoenigDiagram(
        matrix=a,
        t=t,
        m1_rows=tuple(sorted(reach_rows)),
        n1_cols=tuple(c for c in range(a.ncols) if c not in reach_cols),
        pi=tuple(sorted(_pi_at_level(a, t).items())),
    )
    diagram.validate()
    return diagram


def _shift_along(pi: dict[int, int], rows: list[int], closed: bool) -> tuple[tuple[int, int], ...]:
    """Hand each row's pi-column on to the next row of ``rows``.

    A closed cycle hands the last row's column back to rows[0].  An open
    path ends at the free row, which gains a column, and rows[0] gives
    up its own and becomes the free row.
    """
    new_pi = dict(pi)
    for prev, nxt in zip(rows, rows[1:]):
        new_pi[nxt] = pi[prev]
    if closed:
        new_pi[rows[0]] = pi[rows[-1]]
    else:
        del new_pi[rows[0]]
    return tuple(sorted(new_pi.items()))


def _raised(d: KoenigDiagram, **changes) -> KoenigDiagram:
    """d with ``changes``, validated and strictly tighter than d."""
    out = replace(d, **changes)
    out.validate()
    if out.tightness <= d.tightness:
        raise InvalidDiagram(
            "improvement failed to raise tightness (%d -> %d)"
            % (d.tightness, out.tightness)
        )
    return out


def improve_diagram(d: KoenigDiagram) -> KoenigDiagram:
    """One strict tightness improvement of a non-tight diagram.

    Alternates sinking phases (through any row along columns of N1) and
    lifting phases (through rows of M1 along columns of N2).  Each phase
    grows a tree from the end of the trajectory, adding the first row in
    index order with an entry above t in the pi-column of a tree row.
    Reaching the free row or a trajectory row reroutes pi; a row whose
    pi-column lies across the cut extends the trajectory and flips the
    phase; a stuck phase re-cuts M1 and N1 around its tree.  Every
    outcome raises tightness by at least one.
    """
    if d.is_tight:
        raise PreconditionError("diagram is already tight")
    a, t, pi, f = d.matrix, d.t, d.pi_map, d.free_row
    m1, n1 = set(d.m1_rows), set(d.n1_cols)
    start = next((r for r in d.m1_rows if r != f and pi[r] in n1), None)
    if start is None:
        raise InvalidDiagram("non-tight diagram without a pi-pair in M1 x N1")
    traj = [start]
    sinking = True
    parent = {start: start}  # the phase's tree, rooted at traj[-1], in joining order
    while True:
        hit = next(
            (
                (row, v)
                for row in range(a.nrows)
                if row not in parent and (sinking or row in m1)
                for v in parent
                if a.rows[row][pi[v]] > t
            ),
            None,
        )
        if hit is None:
            cols = {pi[v] for v in parent}
            grown = set(parent) - {traj[-1]}
            if sinking:
                m1, n1 = set(range(a.nrows)) - grown, cols
            else:
                m1, n1 = m1 - grown, n1 | cols
            return _raised(d, m1_rows=tuple(sorted(m1)), n1_cols=tuple(sorted(n1)))
        row, v = hit
        if row != f and row not in traj and (pi[row] in n1) == sinking:
            parent[row] = v
            continue
        chain = []
        while parent[v] != v:
            chain.append(v)
            v = parent[v]
        traj.extend(reversed(chain))
        if row == f:
            return _raised(d, pi=_shift_along(pi, traj + [f], closed=False))
        if row in traj:
            return _raised(d, pi=_shift_along(pi, traj[traj.index(row):], closed=True))
        traj.append(row)
        sinking = not sinking
        parent = {row: row}


def tight_diagram(a: Matrix) -> KoenigDiagram:
    """Tight covering diagram, improving the initial one as needed."""
    diagram = koenig_diagram(a)
    while not diagram.is_tight:
        diagram = improve_diagram(diagram)
    return diagram


def _internal_separation_rec(a: Matrix) -> tuple[list[Fraction], dict[int, int]]:
    """Returns coordinates of p plus a row -> sector bijection."""
    d = a.ncols
    if d == 0:
        return [], {0: 0}
    diagram = tight_diagram(a)
    t = diagram.t
    pi = diagram.pi_map
    n1 = list(diagram.n1_cols)
    n2 = list(diagram.n2_cols)
    n2_set = set(n2)
    sub_rows = sorted(
        {diagram.free_row} | {r for r in diagram.m1_rows if pi.get(r) in n2_set}
    )
    sub = Matrix(tuple(tuple(a.rows[r][c] for c in n2) for r in sub_rows))
    z, sub_assign = _internal_separation_rec(sub)

    coords: list[Fraction | None] = [None] * d
    for c in n1:
        coords[c] = t
    for j, c in enumerate(n2):
        coords[c] = z[j]
    assert all(v is not None for v in coords)

    assign: dict[int, int] = {}
    sub_index = {r: i for i, r in enumerate(sub_rows)}
    for r in range(a.nrows):
        if r in sub_index:
            s = sub_assign[sub_index[r]]
            assign[r] = 0 if s == 0 else n2[s - 1] + 1
        else:
            assign[r] = pi[r] + 1
    return coords, assign  # type: ignore[return-value]


def _certified(
    points: Sequence[Point], p: Point, assign: dict[int, int], bounds: SemiringBounds
) -> tuple[Point, dict[int, int]]:
    """(p, assign) once assign is a bijection row -> sector and every row
    lies in its sector of p; raises InvalidDiagram otherwise."""
    if sorted(assign.values()) != list(range(len(points))):
        raise InvalidDiagram("internal separation assignment is not a bijection")
    for row, sector in assign.items():
        if not sector_contains(semispace(p, sector, bounds), points[row]):
            raise InvalidDiagram(
                "row %d escaped its sector %d at %s" % (row, sector, p)
            )
    return p, assign


def _require_interior(points: Sequence[Point], bounds: SemiringBounds) -> None:
    """Refuse rows with a coordinate on or outside the bounds."""
    for r, p in enumerate(points):
        for c in p.coords:
            if not bounds.interior(c):
                raise PreconditionError(
                    "row %d has coordinate %s on or outside the bounds %s; rerun with "
                    "the widened bounds %s (bounds.extended())"
                    % (r, c, bounds, bounds.extended())
                )


def internal_separation(points: Sequence[Point], bounds: SemiringBounds = UNIT) -> tuple[Point, dict[int, int]]:
    """Point p in the hull of d + 1 points, certified sector by sector.

    Returns (p, assignment) where assignment maps each row index to a
    distinct sector index in 0..d and row i lies in the sector
    assignment[i] of p.  All input coordinates must be strictly inside
    the bounds; widen with bounds.extended() first when they are not.
    """
    a = Matrix.from_points(points)
    _require_interior(points, bounds)
    coords, assign = _internal_separation_rec(a)
    return _certified(points, Point(tuple(coords)), assign, bounds)


def intsep_sorted(points: Sequence[Point], bounds: SemiringBounds = UNIT) -> tuple[Point, dict[int, int]]:
    """Internal separation for rows that are already sorted non-increasing.

    Sweeps coordinates right to left: at step t the row with the largest
    t-th coordinate among the first t + 1 positions is parked at position
    t, and p is the largest non-increasing point below the collected
    values.  Position then doubles as the sector index.
    """
    a = Matrix.from_points(points)
    d = a.ncols
    _require_interior(points, bounds)
    for r, p in enumerate(points):
        for j in range(d - 1):
            if p[j] < p[j + 1]:
                raise PreconditionError("row %d is not sorted non-increasing" % r)
    order = list(range(d + 1))  # order[pos] = original row index
    y: list[Fraction] = [None] * d  # type: ignore[list-item]
    for tpos in range(d, 0, -1):
        c = tpos - 1
        best_pos = 0
        for pos in range(tpos + 1):
            if points[order[pos]][c] > points[order[best_pos]][c]:
                best_pos = pos
        order[best_pos], order[tpos] = order[tpos], order[best_pos]
        y[c] = points[order[tpos]][c]
    coords: list[Fraction] = []
    running = None
    for v in y:
        running = v if running is None else min(running, v)
        coords.append(running)
    assign = {order[pos]: pos for pos in range(d + 1)}
    return _certified(points, Point(tuple(coords)), assign, bounds)
