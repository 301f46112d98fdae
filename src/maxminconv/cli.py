"""Command line interface.

Every subcommand reads a JSON instance file (see the instance module
for the schema), runs one library operation and prints its result
document as one line of compact JSON; ``python -m json.tool`` indents
it.  Positive results carry a verification block in which each claim
is re-checked by an independent predicate before emission; a failed
re-check turns the run into an error instead of output.

Each instance subcommand is one ``_COMMANDS`` entry: its handler, help
text, options and whether it is specific to min arithmetic.  ``main``
refuses another t-norm for the min-only ones right after loading the
instance.  Handlers return library values (Fractions, points,
semispaces, tuples, dicts with int keys), and ``main`` formats each
document once with ``_fmt``.

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
    NUMERAL_LIMIT,
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
    """A library value as JSON data: exact numbers become strings.

    Sets are refused, so that no document's order depends on hashing.
    """
    if isinstance(x, Fraction):
        return format_value(x)
    if isinstance(x, Point):
        return [format_value(c) for c in x.coords]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    if isinstance(x, SemispaceId):
        return {"anchor": _fmt(x.anchor), "index": x.index, "tail": list(x.tail())}
    raise TypeError("cannot serialize %r" % (x,))


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
    if args.tnorm:
        raw["tnorm"] = args.tnorm
    if args.bounds:
        raw["bounds"] = list(args.bounds)
    if args.grid_step:
        raw["grid_step"] = args.grid_step
    return instance_from_dict(raw)


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
    bounds = inst.bounds
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
    return {
        "mode": dec.mode,
        "corner": dec.corner,
        "pieces": [
            {
                "beta": (p.beta_lo, p.beta_hi),
                "start": p.start,
                "end": p.end,
                "moving": sorted(p.m_indices),
                "low": sorted(p.l_indices),
                "high": sorted(p.h_indices),
            }
            for p in dec.pieces
        ],
        "elementary": [
            {"start": a, "end": b, "moving": sorted(m)} for a, b, m in elementary
        ],
        "chain": dec.corner_chain(),
    }


def _cmd_distance(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
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
    try:
        value_float = dist.to_float()
    except OverflowError:
        value_float = math.inf
    return {
        "radical_sum": str(dist),
        "terms": [{"coefficient": c, "radicand": r} for r, c in dist.terms],
        "value_interval": dist.rational_bounds(),
        # beyond the float range there is no JSON number to print
        "value_float": value_float if math.isfinite(value_float) else None,
    }


def _cmd_semispaces(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
    p: Point = inst.lookup("points", args.point)
    family = semispace_family(p, bounds)
    for s in family:
        ver.check("index %d: anchor outside, sector holds it" % s.index, sector_contains(s, p))
    return {"anchor": p, "valid_indices": index_set(p, bounds), "semispaces": family}


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
            "witnesses": res.witnesses,
            "separating_index": res.separating_index,
        }
    res2 = hull_member_maxt(p, c, inst.tnorm)
    # re-derive membership from the printed certificate alone
    certified = _certified(p, c.generators, res2.coefficients, inst.tnorm)
    ver.check("membership reproducible", certified == res2.member)
    return {
        "member": res2.member,
        "coefficients": res2.coefficients,
        "combination": res2.combination,
    }


def _cmd_caratheodory(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    reduced, indices = caratheodory_reduce(p, c, inst.bounds)
    d = p.dim
    ver.check("at most d + 1 generators kept", len(indices) <= d + 1)
    ver.check(
        "point still in the reduced hull",
        hull_member_maxt(p, reduced, inst.tnorm).member,
    )
    return {"kept_indices": indices, "kept_generators": reduced.generators}


def _cmd_colorful_weak(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    p: Point = inst.lookup("points", args.point)
    colors = inst.lookup("colorings", args.coloring)
    choice = colorful_weak(p, colors, inst.bounds)
    selected = [colors[i].generators[g] for i, g in sorted(choice.items())]
    ver.check(
        "point in the hull of the selection",
        _maxt_member(p, selected, inst.tnorm),
    )
    return {"choice": choice, "selected": selected}


def _cmd_colorful_strong(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
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
        "witness": res.witness,
        "choice": res.choice,
        "selected": selected,
        "meeting_points": res.meeting_points,
        "sector_assignment": res.assignment,
        "used_extended_bounds": res.extended,
    }


def _cmd_separate_point(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_point(p, c, inst.bounds)
    if isinstance(out, PointInHull):
        raise Negative(
            "PointInHull",
            "the point lies in the hull; no separating semispace exists",
            {"witnesses": out.membership.witnesses},
        )
    ver.check(
        "semispace holds every generator",
        all(semispace_contains(out, g) for g in c.generators),
    )
    ver.check("point stays outside", not semispace_contains(out, p))
    return {"semispace": out}


def _blockers(out: NonSeparable) -> list[dict[str, Any]]:
    return [
        {"index": i, "semispace": s, "generator": n} for i, (s, n) in enumerate(out.blockers)
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
    bounds = inst.bounds
    b = inst.lookup("boxes", args.box)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_box(b, c, bounds)
    if isinstance(out, NonSeparable):
        if not _blocked(b, c, out, bounds):
            raise AssertionError("non-separability certificate fails its re-check; this is a bug")
        raise Negative("NonSeparable", out.reason, {"blockers": _blockers(out)})
    ver.check(
        "semispace holds every generator",
        all(semispace_contains(out, g) for g in c.generators),
    )
    ver.check(
        "box inside the complementary sector",
        sector_contains_box(out, b.lower, b.upper),
    )
    return {"semispace": out}


def _cmd_sep_condition(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
    b = inst.lookup("boxes", args.box)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_box(b, c, bounds)
    if not isinstance(out, NonSeparable):
        return {"condition_holds": True, "violation": None}
    ver.check("every semispace index is blocked", _blocked(b, c, out, bounds))
    return {"condition_holds": False, "violation": _blockers(out)}


def _cmd_separate_hyperplane(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    p: Point = inst.lookup("points", args.point)
    c: Polytope = inst.lookup("polytopes", args.polytope)
    out = separate_by_hyperplane(p, c, inst.bounds)
    if isinstance(out, PointInHull):
        raise Negative(
            "PointInHull",
            "the point lies in the hull; no separating hyperplane exists",
            {"witnesses": out.membership.witnesses},
        )
    ver.check(
        "every generator solves the hyperplane equation",
        all(hyperplane_contains(out, g) for g in c.generators),
    )
    ver.check("the point does not", not hyperplane_contains(out, p))
    return {"a": out.a, "b": out.b}


def _cmd_intsep(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    bounds = inst.bounds
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
    return {"witness": witness, "assignment": assignment}


def _cmd_tight_diagram(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
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
        "t": diagram.t,
        "m1_rows": diagram.m1_rows,
        "m2_rows": diagram.m2_rows,
        "n1_cols": diagram.n1_cols,
        "n2_cols": diagram.n2_cols,
        "pi": diagram.pi,
        "free_row": diagram.free_row,
    }


def _cmd_radon(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    pts = inst.lookup("pointsets", args.pointset)
    res = radon_partition(pts, inst.tnorm, inst.grid_step)
    part1, part2 = res.parts
    ver.check(
        "parts are disjoint and cover the set",
        sorted(part1 + part2) == list(range(len(pts))),
    )
    for k, (part, lams) in enumerate(zip(res.parts, res.coefficients), start=1):
        ver.check(
            "witness in the hull of part %d" % k,
            _certified(res.witness, [pts[i] for i in part], lams, inst.tnorm),
        )
    return {"part1": part1, "part2": part2, "witness": res.witness}


def _cmd_helly(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    polys = inst.family_polytopes(args.family)
    out = helly_check(polys, inst.tnorm, inst.grid_step)
    if isinstance(out, CommonWitness):
        for k, (poly, lams) in enumerate(zip(polys, out.coefficients)):
            ver.check(
                "witness in member %d" % k,
                _certified(out.point, poly.generators, lams, inst.tnorm),
            )
        return {"witness": out.point}
    raise Negative(
        "CounterexampleSubfamily",
        "the intersection hypothesis fails: members %s share no grid point"
        % (list(out.indices),),
        {"indices": out.indices, "exact": out.grid_step is None,
         "grid_step": out.grid_step, "grid_size": out.grid_size},
    )


def _cmd_centerpoint(inst: Instance, args: argparse.Namespace, ver: Verifier) -> dict:
    pts = inst.lookup("pointsets", args.pointset)
    res = centerpoint(pts, inst.tnorm, inst.grid_step)
    d = pts[0].dim
    n = len(pts)
    m0 = (d * n) // (d + 1) + 1
    # in every m0-subset hull when each attainment set holds n - m0 + 1 points
    inside = _certified(res.point, pts, res.coefficients[0], inst.tnorm, depth=n - m0 + 1)
    count = math.comb(n, m0)
    # a count too long to print as a numeral is named by its formula
    count_text = "%d" % count if count < 10 ** NUMERAL_LIMIT else "C(%d, %d)" % (n, m0)
    ver.check("inside the hull of every %d-subset (all %s of them)" % (m0, count_text), inside)
    return {"centerpoint": res.point, "subset_size": m0}


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
    return {"parts": res.parts, "witness": res.witness}


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
            failures.append({"op": "hull", "p": p, "generators": gens})

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
            failures.append({"op": "segment", "x": x, "y": y})

    for _ in range(max(1, args.trials // 2)):
        d = rng.choice([1, 2, 3, 4])
        rows = tuple(tuple(rng.choice(grid9) for _ in range(d)) for _ in range(d + 1))
        mine_t = bottleneck_threshold(Matrix(rows))
        ref_t = oracle.brute_bottleneck(rows)
        counts["bottleneck"] += 1
        if mine_t != ref_t:
            failures.append({"op": "bottleneck", "rows": rows})

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


# name -> (handler, help, options, min_only).  Every entry also takes the
# instance path and the --tnorm, --bounds and --grid-step overrides.  An
# option names an instance object unless _OPTION_KEYWORDS gives it other
# argparse keywords; options are added in the listed order.  A min_only
# command refuses every other t-norm right after its instance loads.
_COMMANDS: dict[str, tuple[Callable, str, tuple[str, ...], bool]] = {
    "segment": (_cmd_segment, "piecewise decomposition of a segment", ("x", "y"), True),
    "distance": (_cmd_distance, "geodesic length of a segment", ("x", "y"), True),
    "semispaces": (_cmd_semispaces, "the semispace family at a point", ("point",), True),
    "hull-member": (_cmd_hull_member, "hull membership test", ("point", "polytope"), False),
    "caratheodory": (_cmd_caratheodory, "reduce to at most d+1 generators",
                     ("point", "polytope"), True),
    "colorful-weak": (_cmd_colorful_weak, "one generator per color, hull keeps the point",
                      ("point", "coloring"), True),
    "colorful-strong": (_cmd_colorful_strong, "colorful selection meeting conv(C)",
                        ("polytope", "coloring"), True),
    "separate-point": (_cmd_separate_point, "semispace separating a point from a hull",
                       ("point", "polytope"), True),
    "separate-box": (_cmd_separate_box, "semispace separating a box from a hull",
                     ("box", "polytope"), True),
    "sep-condition": (_cmd_sep_condition, "test the box separation criterion",
                      ("box", "polytope"), True),
    "separate-hyperplane": (_cmd_separate_hyperplane,
                            "hyperplane through the hull avoiding a diagonal point",
                            ("point", "polytope"), True),
    "intsep": (_cmd_intsep, "internal separation of d+1 points", ("pointset", "sorted"), True),
    "tight-diagram": (_cmd_tight_diagram, "tight covering diagram of a matrix",
                      ("matrix",), True),
    "radon": (_cmd_radon, "two disjoint parts with intersecting hulls", ("pointset",), False),
    "helly": (_cmd_helly, "find a common point of the family; "
              "on a miss, name the first (d+1)-subfamily without one", ("family",), False),
    "centerpoint": (_cmd_centerpoint, "point in every large subset's hull",
                    ("pointset",), False),
    "tverberg": (_cmd_tverberg, "r disjoint parts with a common hull point",
                 ("pointset", "r"), False),
    "render": (_cmd_render, "draw a planar figure as SVG",
               ("figure", "x", "y", "point", "hyperplane", "svg"), False),
}

_OPTION_KEYWORDS: dict[str, dict[str, Any]] = {
    "x": {"help": "first endpoint name"},
    "y": {"help": "second endpoint name"},
    "sorted": {"action": "store_true",
               "help": "use the one-pass variant for coordinatewise non-increasing rows"},
    "r": {"type": int, "required": True, "help": "number of parts"},
    "figure": {"choices": ("segment", "semispaces", "hyperplane", "overview"),
               "default": "overview"},
    "svg": {"metavar": "PATH", "help": "write the figure here instead of stdout"},
}


def _trial_count(text: str) -> int:
    """``--trials``: a count of at least 1, so a passing check ran trials."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError("expected an integer of at least 1, got %r" % text)
    return count


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
    for name, (handler, help_text, options, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("instance", help="path to a JSON instance file")
        sp.add_argument("--tnorm", choices=("min", "product", "lukasiewicz"),
                        help="override the instance t-norm")
        sp.add_argument("--bounds", nargs=2, metavar=("LO", "HI"),
                        help="override the carrier bounds")
        sp.add_argument("--grid-step", metavar="P/Q",
                        help="override the witness grid refinement step")
        for option in options:
            sp.add_argument("--" + option, **_OPTION_KEYWORDS.get(option, {}))
        handlers[name] = handler

    sp = sub.add_parser("oracle-check", help="randomized cross-check against brute force")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_trial_count, default=50)
    handlers["oracle-check"] = _cmd_oracle_check

    parser.set_defaults(_handlers=handlers)
    return parser


def _emit(doc: dict[str, Any]) -> None:
    """Print a result document as one line of compact JSON."""
    print(json.dumps(doc, separators=(",", ":")))


def _internal_error(doc: dict[str, Any], exc: Exception) -> int:
    """Print an uncaught exception as an "internal-error" document.

    Soundness alarms, failed re-verifications and "this is a bug" checks
    raise AssertionError; any other exception reaching ``main`` is a bug
    too, and gets the same document instead of a traceback.
    """
    doc["outcome"] = {"type": type(exc).__name__, "message": str(exc)}
    doc["status"] = "internal-error"
    _emit(doc)
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
            doc = _fmt(doc)
        except Exception as exc:
            return _internal_error({"command": args.command}, exc)
        _emit(doc)
        return code

    doc: dict[str, Any] = {"command": args.command, "instance": args.instance}
    ver = Verifier()
    try:
        inst = _load(args)
        if _COMMANDS[args.command][3] and not inst.tnorm.is_min:
            raise PreconditionError(
                "%s is specific to min arithmetic; drop tnorm=%r or use the "
                "max-T subcommands (radon, helly, centerpoint, tverberg)"
                % (args.command, inst.tnorm.tag)
            )
        result = _fmt(handlers[args.command](inst, args, ver))
    except (Negative, NotOnDiagonal, NotFound, ResolutionExhausted) as exc:
        if isinstance(exc, Negative):
            outcome = {"type": exc.kind, "message": str(exc), **exc.payload}
        else:
            outcome = {"type": type(exc).__name__, "message": str(exc)}
            if not isinstance(exc, NotOnDiagonal):
                outcome.update(grid_step=exc.grid_step, grid_size=exc.grid_size)
        doc["outcome"] = _fmt(outcome)
        doc["status"] = "negative"
        _emit(doc)
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
        _emit(doc)
        print("error: a verification re-check failed; refusing the result",
              file=sys.stderr)
        return EXIT_ERROR
    doc["status"] = "ok"
    _emit(doc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
