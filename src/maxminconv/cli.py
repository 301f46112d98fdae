"""Command line interface.

Every subcommand reads a JSON instance file (see the instance module
for the schema), runs one library operation and prints a JSON result
document.  Positive results carry a verification block in which each
claim is re-checked by an independent predicate before emission; a
failed re-check turns the run into an error instead of output.

Exit codes, stable for scripting:

    0   a verified determination, including boolean "no" answers
    2   a negative outcome of search or separation type: the requested
        object does not exist or was not found (point inside the hull,
        non-separable box, off-diagonal anchor, exhausted resolution,
        failed intersection hypothesis)
    1   errors: usage errors, bad schema, violated preconditions, failed
        verification, internal errors (printed as a document with status
        "internal-error")
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import __version__, oracle
from .core import (
    DomainError,
    PreconditionError,
    ResolutionExhausted,
    SemiringBounds,
    TNorm,
    format_value,
)
from .geometry import (
    Point,
    RadicalSum,
    geodesic_distance,
    segment_contains,
    segment_decompose,
)
from .hull import (
    Polytope,
    caratheodory_reduce,
    colorful_strong,
    colorful_weak,
    hull_member,
)
from .instance import Instance, instance_from_dict, parse_raw
from .koenig import (
    InvalidDiagram,
    Matrix,
    bottleneck_threshold,
    internal_separation,
    intsep_sorted,
    tight_diagram,
)
from .maxt import (
    CommonWitness,
    NotFound,
    centerpoint,
    helly_check,
    hull_member_maxt,
    radon_partition,
    tverberg_search,
)
from .render import (
    render_hyperplane,
    render_overview,
    render_segment,
    render_semispaces,
)
from .semispaces import (
    NotOnDiagonal,
    SemispaceId,
    hyperplane_contains,
    index_set,
    sector_contains,
    sector_contains_box,
    semispace,
    semispace_contains,
    semispace_family,
)
from .separation import (
    Box,
    NonSeparable,
    PointInHull,
    separate_box,
    separate_by_hyperplane,
    separate_point,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


# ---------------------------------------------------------------------------
# serialization of results
# ---------------------------------------------------------------------------


def _fmt(x: Any) -> Any:
    if isinstance(x, Fraction):
        return format_value(x)
    if isinstance(x, Point):
        return [format_value(c) for c in x.coords]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    raise TypeError("cannot serialize %r" % (x,))


def _fmt_semispace(s: SemispaceId) -> dict[str, Any]:
    return {
        "anchor": _fmt(s.anchor),
        "index": s.index,
        "tail": list(s.tail()),
    }


class Verifier:
    """Collects named re-checks; any failure blocks a positive emission."""

    def __init__(self) -> None:
        self.checks: list[dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: Any = None) -> bool:
        entry: dict[str, Any] = {"name": name, "passed": bool(ok)}
        if detail is not None:
            entry["detail"] = _fmt(detail)
        self.checks.append(entry)
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def block(self) -> dict[str, Any]:
        return {"passed": self.passed, "checks": self.checks}


class Negative(Exception):
    """A verified negative outcome (exit code 2) with its payload."""

    def __init__(self, kind: str, message: str, payload: dict[str, Any] | None = None):
        super().__init__(message)
        self.kind = kind
        self.payload = payload or {}


# ---------------------------------------------------------------------------
# shared lookup helpers
# ---------------------------------------------------------------------------


def _load(args: argparse.Namespace) -> Instance:
    with open(args.instance, "r", encoding="utf-8") as fh:
        raw = parse_raw(fh.read())
    if getattr(args, "tnorm", None):
        raw["tnorm"] = args.tnorm
    if getattr(args, "bounds", None):
        raw["bounds"] = list(args.bounds)
    if getattr(args, "grid_step", None):
        raw["grid_step"] = args.grid_step
    return instance_from_dict(raw)


def _min_only(inst: Instance, command: str) -> SemiringBounds:
    if not inst.tnorm.is_min:
        raise PreconditionError(
            "%s is specific to min arithmetic; drop tnorm=%r or use the "
            "max-T subcommands (radon, helly, centerpoint, tverberg)"
            % (command, inst.tnorm.tag)
        )
    return inst.bounds


def _maxt_member(q: Point, gens: Sequence[Point], tnorm: TNorm) -> bool:
    return hull_member_maxt(q, Polytope(tuple(gens)), tnorm).member


def _certified(
    q: Point, gens: Sequence[Point], lams: Sequence[Fraction], tnorm: TNorm, depth: int = 1
) -> bool:
    """Whether the coefficients lams certify q, by forward evaluation.

    They must be one per generator, each inside the bounds, and every
    term T(lam_i, x_ij) must be at most q_j.  Then a subset of the
    generators holds q in its hull when it meets the attainment sets
    A_0 = {i : lam_i = hi} and A_j = {i : T(lam_i, x_ij) = q_j}: its
    combination with these coefficients has a unit coefficient and
    reaches q_j in every coordinate.  With every set holding at least
    ``depth`` generators, q lies in the hull of every subset that leaves
    out fewer than ``depth`` of them; depth 1 is the hull of gens.  No
    residual is computed, so a wrong coefficient can fail the check but
    never pass it.
    """
    bounds = tnorm.bounds
    if len(lams) != len(gens) or not all(bounds.contains(lam) for lam in lams):
        return False
    if sum(lam == bounds.hi for lam in lams) < depth:
        return False
    for j, target in enumerate(q):
        terms = [tnorm.apply(lam, g[j]) for lam, g in zip(lams, gens)]
        if max(terms) > target or terms.count(target) < depth:
            return False
    return True


# ---------------------------------------------------------------------------
# subcommand handlers: (instance, args, verifier) -> result dict
# ---------------------------------------------------------------------------


def _cmd_segment(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "segment")
    x: Point = inst.lookup("points", args.x)
    y: Point = inst.lookup("points", args.y)
    dec = segment_decompose(x, y, bounds)
    elementary = dec.elementary()
    d = x.dim
    ver.check("starts at x", dec.pieces[0].start == x)
    ver.check("ends at y", dec.pieces[-1].end == y)
    ver.check(
        "pieces chain without gaps",
        all(a.end == b.start for a, b in zip(dec.pieces, dec.pieces[1:])),
    )
    ver.check(
        "every piece endpoint is on the segment",
        all(
            segment_contains(x, y, q, bounds)
            for piece in dec.pieces
            for q in (piece.start, piece.end)
        ),
    )
    limit = 2 * d - 1 if dec.mode == "comparable" else 2 * d - 2
    ver.check(
        "elementary piece count within bound",
        len(elementary) <= max(limit, 0),
        detail={"count": len(elementary), "bound": limit},
    )
    result = {
        "mode": dec.mode,
        "corner": _fmt(dec.corner) if dec.corner is not None else None,
        "pieces": [
            {
                "beta": [_fmt(p.beta_lo), _fmt(p.beta_hi)],
                "start": _fmt(p.start),
                "end": _fmt(p.end),
                "moving": sorted(p.m_indices),
                "low": sorted(p.l_indices),
                "high": sorted(p.h_indices),
            }
            for p in dec.pieces
        ],
        "elementary": [
            {"start": _fmt(a), "end": _fmt(b), "moving": sorted(m)}
            for a, b, m in elementary
        ],
        "chain": [_fmt(q) for q in dec.corner_chain()],
    }
    return result


def _cmd_distance(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "distance")
    x: Point = inst.lookup("points", args.x)
    y: Point = inst.lookup("points", args.y)
    dec = segment_decompose(x, y, bounds)
    dist = dec.length()
    ver.check("symmetric", dist == geodesic_distance(y, x, bounds))
    # re-derive from the corner chain: each straight piece moves a set of
    # coordinates by a common difference
    total = RadicalSum.zero()
    for a, b, moving in dec.elementary():
        deltas = {abs(b[i] - a[i]) for i in moving}
        step = max(deltas)
        ver.check(
            "piece moves its coordinates in lockstep",
            deltas == {step},
            detail={"start": a, "end": b},
        )
        total = total + RadicalSum.term(step, len(moving))
    ver.check("chain length matches", total == dist)
    lo, hi = dist.rational_bounds()
    return {
        "radical_sum": str(dist),
        "terms": [
            {"coefficient": _fmt(c), "radicand": r} for r, c in dist.terms
        ],
        "value_interval": [_fmt(lo), _fmt(hi)],
        "value_float": float(dist.to_float()),
    }


def _cmd_semispaces(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "semispaces")
    p: Point = inst.lookup("points", args.point)
    family = semispace_family(p, bounds)
    for s in family:
        ver.check(
            "index %d: anchor outside, sector holds it" % s.index,
            sector_contains(s, p) and not semispace_contains(s, p),
        )
    return {
        "anchor": _fmt(p),
        "valid_indices": list(index_set(p, bounds)),
        "semispaces": [_fmt_semispace(s) for s in family],
    }


def _cmd_hull_member(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    if inst.tnorm.is_min:
        res = hull_member(p, c, inst.bounds)
        cross = hull_member_maxt(p, c, inst.tnorm)
        ver.check("residuated membership agrees", cross.member == res.member)
        if res.member:
            assert res.witnesses is not None
            ver.check(
                "each sector witness lies in its sector",
                all(
                    sector_contains(semispace(p, idx, inst.bounds), c.generators[g])
                    for idx, g in res.witnesses.items()
                ),
            )
        else:
            assert res.separating_index is not None
            s = semispace(p, res.separating_index, inst.bounds)
            ver.check(
                "separating semispace holds every generator",
                all(semispace_contains(s, g) for g in c.generators),
            )
        return {
            "member": res.member,
            "witnesses": _fmt(res.witnesses),
            "separating_index": res.separating_index,
        }
    res2 = hull_member_maxt(p, c, inst.tnorm)
    # re-derive membership from the printed certificate alone
    certified = _certified(p, c.generators, res2.coefficients, inst.tnorm)
    ver.check("membership reproducible", certified == res2.member)
    return {
        "member": res2.member,
        "coefficients": _fmt(res2.coefficients),
        "combination": _fmt(res2.combination),
    }


def _cmd_caratheodory(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "caratheodory")
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    reduced, indices = caratheodory_reduce(p, c, bounds)
    d = p.dim
    ver.check("at most d + 1 generators kept", len(indices) <= d + 1)
    ver.check(
        "point still in the reduced hull",
        hull_member_maxt(p, reduced, inst.tnorm).member,
    )
    return {
        "kept_indices": list(indices),
        "kept_generators": [_fmt(g) for g in reduced.generators],
    }


def _cmd_colorful_weak(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "colorful-weak")
    p: Point = inst.lookup("points", args.point)
    colors = inst.lookup("colorings", args.coloring)
    choice = colorful_weak(p, colors, bounds)
    selected = [colors[i].generators[g] for i, g in sorted(choice.items())]
    ver.check(
        "point in the hull of the selection",
        _maxt_member(p, selected, inst.tnorm),
    )
    return {
        "choice": _fmt(choice),
        "selected": [_fmt(g) for g in selected],
    }


def _cmd_colorful_strong(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "colorful-strong")
    c: Polytope = inst.lookup("polytopes", args.polytope)
    colors = inst.lookup("colorings", args.coloring)
    res = colorful_strong(c, colors, bounds)
    selected = [colors[i].generators[g] for i, g in sorted(res.choice.items())]
    ver.check("witness in conv(C)", _maxt_member(res.witness, c.generators, inst.tnorm))
    ver.check(
        "witness in the colorful hull",
        _maxt_member(res.witness, selected, inst.tnorm),
    )
    # the meeting points come from the residuation search, so they are
    # re-checked with the independent sector-witness test
    for i, q in enumerate(res.meeting_points):
        ver.check(
            "meeting point %d common to conv(C) and its color" % i,
            hull_member(q, c, bounds).member and hull_member(q, colors[i], bounds).member,
        )
    return {
        "witness": _fmt(res.witness),
        "choice": _fmt(res.choice),
        "selected": [_fmt(g) for g in selected],
        "meeting_points": [_fmt(q) for q in res.meeting_points],
        "sector_assignment": _fmt(res.assignment),
        "used_extended_bounds": res.extended,
    }


def _cmd_separate_point(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "separate-point")
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_point(p, c, bounds)
    if isinstance(out, PointInHull):
        raise Negative(
            "PointInHull",
            "the point lies in the hull; no separating semispace exists",
            {"witnesses": _fmt(out.membership.witnesses)},
        )
    ver.check(
        "semispace holds every generator",
        all(semispace_contains(out, g) for g in c.generators),
    )
    ver.check("point stays outside", not semispace_contains(out, p))
    return {"semispace": _fmt_semispace(out)}


def _fmt_blockers(out: NonSeparable) -> list[dict[str, Any]]:
    return [
        {"index": i, "semispace": None if s is None else _fmt_semispace(s), "generator": n}
        for i, (s, n) in enumerate(out.blockers)
    ]


def _blocked(b: Box, c: Polytope, out: NonSeparable, bounds: SemiringBounds) -> bool:
    """Re-check that the blockers leave no index 0..d a separating semispace.

    Index i is blocked when it is invalid for every anchor whose sector
    holds the box (u reaches hi for 0, l_k = lo for k+1), or when generator
    n lies in the sector of s, whose anchor is in the box and whose sector
    holds the box: the least sector of index i holding the box.
    """

    def blocks(i: int, s: SemispaceId | None, n: int | None) -> bool:
        if s is None:
            return i not in index_set(b.upper if i == 0 else b.lower, bounds)
        return (
            s.index == i
            and b.contains(s.anchor)
            and i in index_set(s.anchor, bounds)
            and sector_contains_box(s, b.lower, b.upper)
            and n in range(len(c))
            and sector_contains(s, c.generators[n])
        )

    blockers = out.blockers
    return len(blockers) == b.dim + 1 and all(blocks(i, *e) for i, e in enumerate(blockers))


def _cmd_separate_box(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "separate-box")
    b = inst.lookup("boxes", args.box)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_box(b, c, bounds)
    if isinstance(out, NonSeparable):
        if not _blocked(b, c, out, bounds):
            raise AssertionError("non-separability certificate fails its re-check; this is a bug")
        raise Negative("NonSeparable", out.reason, {"blockers": _fmt_blockers(out)})
    ver.check(
        "semispace holds every generator",
        all(semispace_contains(out, g) for g in c.generators),
    )
    ver.check(
        "box inside the complementary sector",
        sector_contains_box(out, b.lower, b.upper),
    )
    return {"semispace": _fmt_semispace(out)}


def _cmd_sep_condition(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "sep-condition")
    b = inst.lookup("boxes", args.box)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_box(b, c, bounds)
    if not isinstance(out, NonSeparable):
        return {"condition_holds": True, "violation": None}
    ver.check("every semispace index is blocked", _blocked(b, c, out, bounds))
    return {"condition_holds": False, "violation": _fmt_blockers(out)}


def _cmd_separate_hyperplane(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "separate-hyperplane")
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_by_hyperplane(p, c, bounds)
    if isinstance(out, PointInHull):
        raise Negative(
            "PointInHull",
            "the point lies in the hull; no separating hyperplane exists",
            {"witnesses": _fmt(out.membership.witnesses)},
        )
    ver.check(
        "every generator solves the hyperplane equation",
        all(hyperplane_contains(out, g) for g in c.generators),
    )
    ver.check("the point does not", not hyperplane_contains(out, p))
    return {"a": _fmt(out.a), "b": _fmt(out.b)}


def _cmd_intsep(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = _min_only(inst, "intsep")
    pts = inst.lookup("pointsets", args.pointset)
    if args.sorted:
        witness, assignment = intsep_sorted(pts, bounds)
    else:
        witness, assignment = internal_separation(pts, bounds)
    ver.check(
        "assignment is a bijection onto sectors",
        sorted(assignment) == list(range(len(pts)))
        and sorted(assignment.values()) == list(range(len(pts))),
    )
    ver.check(
        "every point sits in its assigned sector",
        all(
            sector_contains(semispace(witness, s, bounds), pts[i])
            for i, s in assignment.items()
        ),
    )
    return {"witness": _fmt(witness), "assignment": _fmt(assignment)}


def _cmd_tight_diagram(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    _min_only(inst, "tight-diagram")
    a: Matrix = inst.lookup("matrices", args.matrix)
    diagram = tight_diagram(a)
    try:
        diagram.validate()
        ver.check("diagram invariants hold", True)
    except InvalidDiagram as exc:
        ver.check("diagram invariants hold", False, detail=str(exc))
    ver.check("diagram is tight", diagram.is_tight)
    ver.check("threshold matches", diagram.t == bottleneck_threshold(a))
    if a.ncols <= 4:
        ver.check(
            "threshold matches brute force",
            diagram.t == oracle.brute_bottleneck(a.rows),
        )
    return {
        "t": _fmt(diagram.t),
        "m1_rows": list(diagram.m1_rows),
        "m2_rows": list(diagram.m2_rows),
        "n1_cols": list(diagram.n1_cols),
        "n2_cols": list(diagram.n2_cols),
        "pi": [list(pair) for pair in diagram.pi],
        "free_row": diagram.free_row,
    }


def _cmd_radon(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    pts = inst.lookup("pointsets", args.pointset)
    res = radon_partition(pts, inst.tnorm, inst.grid_step)
    ver.check(
        "parts are disjoint and cover the set",
        sorted(res.part1 + res.part2) == list(range(len(pts))),
    )
    for k, (part, lams) in enumerate(zip((res.part1, res.part2), res.coefficients), start=1):
        ver.check(
            "witness in the hull of part %d" % k,
            _certified(res.witness, [pts[i] for i in part], lams, inst.tnorm),
        )
    return {
        "part1": list(res.part1),
        "part2": list(res.part2),
        "witness": _fmt(res.witness),
    }


def _cmd_helly(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    polys = inst.family_polytopes(args.family)
    out = helly_check(polys, inst.tnorm, inst.grid_step)
    if isinstance(out, CommonWitness):
        for k, (poly, lams) in enumerate(zip(polys, out.coefficients)):
            ver.check(
                "witness in member %d" % k,
                _certified(out.point, poly.generators, lams, inst.tnorm),
            )
        return {"witness": _fmt(out.point)}
    raise Negative(
        "CounterexampleSubfamily",
        "the intersection hypothesis fails: members %s share no grid point"
        % (list(out.indices),),
        {"indices": list(out.indices), "exact": out.grid_step is None,
         "grid_step": _fmt(out.grid_step), "grid_size": out.grid_size},
    )


def _cmd_centerpoint(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    pts = inst.lookup("pointsets", args.pointset)
    res = centerpoint(pts, inst.tnorm, inst.grid_step)
    d = pts[0].dim
    n = len(pts)
    m0 = (d * n) // (d + 1) + 1
    # in every m0-subset hull when each attainment set holds n - m0 + 1 points
    inside = _certified(res.point, pts, res.coefficients, inst.tnorm, depth=n - m0 + 1)
    ver.check(
        "inside the hull of every %d-subset (all %d of them)"
        % (m0, math.comb(n, m0)),
        inside,
    )
    return {"centerpoint": _fmt(res.point), "subset_size": m0}


def _cmd_tverberg(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    pts = inst.lookup("pointsets", args.pointset)
    res = tverberg_search(pts, args.r, inst.tnorm, inst.grid_step)
    ver.check(
        "parts partition the set",
        sorted(i for part in res.parts for i in part) == list(range(len(pts)))
        and all(res.parts),
    )
    for k, (part, lams) in enumerate(zip(res.parts, res.coefficients)):
        ver.check(
            "witness in the hull of part %d" % k,
            _certified(res.witness, [pts[i] for i in part], lams, inst.tnorm),
        )
    return {
        "parts": [list(part) for part in res.parts],
        "witness": _fmt(res.witness),
    }


def _cmd_render(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
    if args.figure == "segment":
        x: Point = inst.lookup("points", args.x)
        y: Point = inst.lookup("points", args.y)
        svg = render_segment(x, y, bounds)
    elif args.figure == "semispaces":
        svg = render_semispaces(inst.lookup("points", args.point), bounds)
    elif args.figure == "hyperplane":
        svg = render_hyperplane(inst.lookup("hyperplanes", args.hyperplane), bounds)
    else:
        svg = render_overview(
            points=inst.points.items(),
            polytopes=inst.polytopes.items(),
            boxes=inst.boxes.items(),
            bounds=bounds,
        )
    ver.check("figure is non-empty svg", svg.startswith("<svg") and svg.endswith("</svg>\n"))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        return {"figure": args.figure, "written": args.svg, "bytes": len(svg.encode())}
    return {"figure": args.figure, "svg": svg}


# ---------------------------------------------------------------------------
# oracle-check: randomized cross-validation, no instance file
# ---------------------------------------------------------------------------


def _cmd_oracle_check(args: argparse.Namespace) -> tuple[dict, int]:
    rng = random.Random(args.seed)
    grid9 = [Fraction(k, 8) for k in range(9)]
    failures: list[dict] = []
    counts = {"hull": 0, "segment": 0, "bottleneck": 0}

    def rand_point(d: int) -> Point:
        return Point(tuple(rng.choice(grid9) for _ in range(d)))

    for _ in range(args.trials):
        d = rng.choice([1, 2, 3])
        gens = [rand_point(d) for _ in range(rng.randint(1, 5))]
        p = rand_point(d)
        mine = hull_member(p, Polytope(tuple(gens))).member
        ref = oracle.brute_hull_member(
            p, gens, oracle.GridSpec.from_inputs(gens + [p])
        )
        counts["hull"] += 1
        if mine != ref:
            failures.append({"op": "hull", "p": _fmt(p), "generators": _fmt(gens)})

    for _ in range(max(1, args.trials // 2)):
        d = rng.choice([1, 2, 3])
        x, y = rand_point(d), rand_point(d)
        grid = oracle.GridSpec.from_inputs([x, y])
        sampled = oracle.brute_segment(x, y, grid)
        ok = all(segment_contains(x, y, z) for z in sampled)
        chain = segment_decompose(x, y).corner_chain()
        ok = ok and all(q in sampled for q in chain)
        counts["segment"] += 1
        if not ok:
            failures.append({"op": "segment", "x": _fmt(x), "y": _fmt(y)})

    for _ in range(max(1, args.trials // 2)):
        d = rng.choice([1, 2, 3, 4])
        rows = tuple(tuple(rng.choice(grid9) for _ in range(d)) for _ in range(d + 1))
        mine_t = bottleneck_threshold(Matrix(rows))
        ref_t = oracle.brute_bottleneck(rows)
        counts["bottleneck"] += 1
        if mine_t != ref_t:
            failures.append({"op": "bottleneck", "rows": _fmt(rows)})

    doc = {
        "command": "oracle-check",
        "seed": args.seed,
        "trials": counts,
        "failures": failures,
        "status": "ok" if not failures else "mismatch",
    }
    return doc, EXIT_OK if not failures else EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("instance", help="path to a JSON instance file")
    sp.add_argument("--tnorm", choices=("min", "product", "lukasiewicz"),
                    help="override the instance t-norm")
    sp.add_argument("--bounds", nargs=2, metavar=("LO", "HI"),
                    help="override the carrier bounds")
    sp.add_argument("--grid-step", dest="grid_step", metavar="P/Q",
                    help="override the witness grid refinement step")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Parsing keeps no state in the parser: every call gets a fresh
    namespace, no option has a mutable default, and the handlers travel
    in ``set_defaults``.
    """
    parser = argparse.ArgumentParser(
        prog="maxminconv",
        description="exact max-min convexity computations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    handlers: dict[str, Callable] = {}

    def add(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        handlers[name] = handler
        return sp

    sp = add("segment", _cmd_segment, "piecewise decomposition of a segment")
    sp.add_argument("--x", help="first endpoint name")
    sp.add_argument("--y", help="second endpoint name")

    sp = add("distance", _cmd_distance, "geodesic length of a segment")
    sp.add_argument("--x")
    sp.add_argument("--y")

    sp = add("semispaces", _cmd_semispaces, "the semispace family at a point")
    sp.add_argument("--point")

    sp = add("hull-member", _cmd_hull_member, "hull membership test")
    sp.add_argument("--point")
    sp.add_argument("--polytope")

    sp = add("caratheodory", _cmd_caratheodory, "reduce to at most d+1 generators")
    sp.add_argument("--point")
    sp.add_argument("--polytope")

    sp = add("colorful-weak", _cmd_colorful_weak, "one generator per color, hull keeps the point")
    sp.add_argument("--point")
    sp.add_argument("--coloring")

    sp = add("colorful-strong", _cmd_colorful_strong, "colorful selection meeting conv(C)")
    sp.add_argument("--polytope")
    sp.add_argument("--coloring")

    sp = add("separate-point", _cmd_separate_point, "semispace separating a point from a hull")
    sp.add_argument("--point")
    sp.add_argument("--polytope")

    sp = add("separate-box", _cmd_separate_box, "semispace separating a box from a hull")
    sp.add_argument("--box")
    sp.add_argument("--polytope")

    sp = add("sep-condition", _cmd_sep_condition, "test the box separation criterion")
    sp.add_argument("--box")
    sp.add_argument("--polytope")

    sp = add("separate-hyperplane", _cmd_separate_hyperplane,
             "hyperplane through the hull avoiding a diagonal point")
    sp.add_argument("--point")
    sp.add_argument("--polytope")

    sp = add("intsep", _cmd_intsep, "internal separation of d+1 points")
    sp.add_argument("--pointset")
    sp.add_argument("--sorted", action="store_true",
                    help="use the one-pass variant for coordinatewise non-increasing rows")

    sp = add("tight-diagram", _cmd_tight_diagram, "tight covering diagram of a matrix")
    sp.add_argument("--matrix")

    sp = add("radon", _cmd_radon, "two disjoint parts with intersecting hulls")
    sp.add_argument("--pointset")

    sp = add("helly", _cmd_helly, "find a common point of the family; "
             "on a miss, name the first (d+1)-subfamily without one")
    sp.add_argument("--family")

    sp = add("centerpoint", _cmd_centerpoint, "point in every large subset's hull")
    sp.add_argument("--pointset")

    sp = add("tverberg", _cmd_tverberg, "r disjoint parts with a common hull point")
    sp.add_argument("--pointset")
    sp.add_argument("--r", type=int, required=True, help="number of parts")

    sp = add("render", _cmd_render, "draw a planar figure as SVG")
    sp.add_argument("--figure", choices=("segment", "semispaces", "hyperplane", "overview"),
                    default="overview")
    sp.add_argument("--x")
    sp.add_argument("--y")
    sp.add_argument("--point")
    sp.add_argument("--hyperplane")
    sp.add_argument("--svg", metavar="PATH", help="write the figure here instead of stdout")

    sp = sub.add_parser("oracle-check", help="randomized cross-check against brute force")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=50)
    handlers["oracle-check"] = _cmd_oracle_check

    parser.set_defaults(_handlers=handlers)
    return parser


def _internal_error(doc: dict[str, Any], exc: Exception) -> int:
    """Print an uncaught exception as an "internal-error" document.

    Soundness alarms, failed re-verifications and "this is a bug" checks
    raise AssertionError; any other exception reaching ``main`` is a bug
    too, and gets the same document instead of a traceback.
    """
    doc["outcome"] = {"type": type(exc).__name__, "message": str(exc)}
    doc["status"] = "internal-error"
    print(json.dumps(doc, indent=2))
    print("error: internal error: %s" % exc, file=sys.stderr)
    return EXIT_ERROR


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise  # --help and --version
        return EXIT_ERROR  # a usage error; argparse has printed it
    handlers = args._handlers

    if args.command == "oracle-check":
        try:
            doc, code = _cmd_oracle_check(args)
        except Exception as exc:
            return _internal_error({"command": args.command}, exc)
        print(json.dumps(doc, indent=2))
        return code

    doc: dict[str, Any] = {"command": args.command, "instance": args.instance}
    ver = Verifier()
    try:
        inst = _load(args)
        result = handlers[args.command](inst, args, ver)
    except Negative as neg:
        doc["outcome"] = {"type": neg.kind, "message": str(neg), **neg.payload}
        doc["status"] = "negative"
        print(json.dumps(doc, indent=2))
        return EXIT_NEGATIVE
    except (NotOnDiagonal, NotFound, ResolutionExhausted) as exc:
        doc["outcome"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, (NotFound, ResolutionExhausted)):
            doc["outcome"]["grid_step"] = _fmt(exc.grid_step)
            doc["outcome"]["grid_size"] = exc.grid_size
        doc["status"] = "negative"
        print(json.dumps(doc, indent=2))
        return EXIT_NEGATIVE
    except (DomainError, PreconditionError, InvalidDiagram, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        return _internal_error(doc, exc)

    if args.command == "render" and "svg" in result and not args.svg:
        # raw figure to stdout, byte-deterministic
        sys.stdout.write(result["svg"])
        return EXIT_OK

    doc["result"] = result
    doc["verification"] = ver.block()
    if not ver.passed:
        doc["status"] = "verification-failed"
        print(json.dumps(doc, indent=2))
        print("error: a verification re-check failed; refusing the result",
              file=sys.stderr)
        return EXIT_ERROR
    doc["status"] = "ok"
    print(json.dumps(doc, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
