"""Seeded instance suites for the three benchmark workloads.

Every case is built with a planted structure, so its outcome class (the
set of acceptable exit codes, and whether a negative outcome is an exact
determination) is known before the program runs.  Sizes are fixed per
workload, so two seeds give suites of the same composition, and each
workload is built so that two seeds also give the same amount of work
(see ``_relabelled`` and ``_witness_grid``).  Size limits, and why they
were chosen, are recorded in ``LIMITS`` and summed up in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

# Sizes per workload, fixed up front; no case is dropped after it runs.
# witness-min gives the number of cases per family and dimension.
LIMITS = {
    "witness-min": {
        "radon": {2: 12, 3: 12, 4: 6, 5: 3},
        "helly": {2: 4, 3: 3, 4: 2},
        "centerpoint": {2: 8, 3: 6, 4: 2},
        "tverberg-r3": {2: 8, 3: 2},
        "colorful-strong": {2: 8, 3: 2},
        "denominator": 8,
        "top_d_denominator": 6,
        "why": "a random radon at d=5 or tverberg at d=3 takes seconds over a "
        "9-value grid, so those two run on 7 values; colorful-strong beyond "
        "d=3 runs for minutes",
    },
    "witness-grid": {
        "grid_step": {2: ["1/20", "1/30", "1/40", "1/50"], 3: ["1/20", "1/30"]},
        "off_grid_step": ["1/20", "1/30", "1/40", "1/50"],
        "denominator": 10,
        "why": "Lukasiewicz radon at d=3, step 1/100 takes 15 s, and a d=3 "
        "search at step 1/50 up to half a second; steps are multiples of "
        "1/10 so that every input coordinate is already a grid value",
    },
    "exact-geometry": {
        "d": [2, 3, 4, 5, 6, 7, 8],
        "box_d": 5,
        "denominator": 8,
        "why": "the min-only exact commands are polynomial in d up to 8; "
        "separate-box and sep-condition scan grid points of the box, which "
        "took up to 0.6 s at d=7, so they stop at d=5",
    },
}


@dataclass
class Case:
    """One CLI call: ``argv`` uses ``{path}`` for the instance file."""

    name: str
    argv: list[str]
    doc: dict[str, Any] | None
    expect: frozenset[int]
    check: str
    meta: dict[str, Any] = field(default_factory=dict)


def _pt(p) -> list[str]:
    return [str(v) for v in p]


class _Gen:
    def __init__(self, seed: int | str, den: int) -> None:
        self.rng = random.Random(seed)
        self.den = den

    def val(self, lo: int = 0, hi: int | None = None) -> Fraction:
        hi = self.den if hi is None else hi
        return Fraction(self.rng.randint(lo, hi), self.den)

    def point(self, d: int, lo: int = 0, hi: int | None = None) -> tuple[Fraction, ...]:
        return tuple(self.val(lo, hi) for _ in range(d))

    def below(self, c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(self.rng.randint(0, int(v * self.den)), self.den) for v in c)

    def split_join(self, c: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
        """Two points whose join is c: c lies in their hull under any t-norm."""
        a, b = list(self.below(c)), list(self.below(c))
        for j in range(len(c)):
            (a if self.rng.random() < 0.5 else b)[j] = c[j]
        return [tuple(a), tuple(b)]


def _doc(d: int, tnorm: str = "min", step: str | None = None, **sections) -> dict:
    doc: dict[str, Any] = {"schema": 1, "dimension": d, "tnorm": tnorm}
    if step is not None:
        doc["grid_step"] = step
    for key, val in sections.items():
        doc[key] = val
    return doc


# ---------------------------------------------------------------------------
# witness-min: exact min-t-norm searches, swept along d
# ---------------------------------------------------------------------------


# The order type of every min instance, which fixes the work of the min
# computations (they compare values, and the searches run on ranks), comes
# from a fixed corpus; the seed draws the values of the grid levels and so
# every coordinate.  Two seeds then pose different inputs of equal work,
# which keeps a workload's figures comparable across seeds.
CORPUS_SEED = 0


def _witness_min() -> list[Case]:
    lim = LIMITS["witness-min"]
    cases: list[Case] = []

    def add(family: str, command: str, make, check: str, flags=()) -> None:
        top = max(lim[family])
        for d, count in lim[family].items():
            den = lim["top_d_denominator" if family in ("radon", "tverberg-r3") and d == top
                      else "denominator"]
            g = _Gen("%d-%s-%d" % (CORPUS_SEED, family, d), den)
            for i in range(count):
                for tag, doc, code, *meta in make(g, d):
                    cases.append(Case("%s%s-d%d-%d" % (family, tag, d, i),
                                      [command, "{path}", *flags],
                                      doc, frozenset({code}), check, *meta))

    def radon(g, d):
        yield "", _doc(d, pointsets={"S": [_pt(g.point(d)) for _ in range(d + 2)]}), 0

    def helly(g, d):
        c = g.point(d, 1)
        fam = {"P%d" % j: [_pt(p) for p in g.split_join(c) + [g.point(d)]] for j in range(d + 2)}
        yield "-planted", _doc(d, polytopes=fam, families={"F": sorted(fam)}), 0
        # member "low" stays below 1/2 in coordinate 0 and member "high"
        # above it, so their hulls are disjoint; every other member holds a
        # of "low" and b of "high", so exactly the subfamilies holding both
        # "low" and "high" fail
        half = g.den // 2
        a = (g.val(0, half - 1),) + g.point(d - 1)
        b = (g.val(half + 1),) + g.point(d - 1)
        fam = {"P%d" % j: [_pt(p) for p in g.split_join(a) + g.split_join(b)]
               for j in range(d + 2)}
        low, high = g.rng.sample(range(d + 2), 2)
        fam["P%d" % low] = [_pt(a), _pt((g.val(0, half - 1),) + g.point(d - 1))]
        fam["P%d" % high] = [_pt(b), _pt((g.val(half + 1),) + g.point(d - 1))]
        names = sorted(fam)
        yield ("-failing", _doc(d, polytopes=fam, families={"F": names}), 2,
               {"disjoint": sorted([names.index("P%d" % low), names.index("P%d" % high)])})

    def centerpoint(g, d):
        yield "", _doc(d, pointsets={"S": [_pt(g.point(d)) for _ in range(d + 3)]}), 0

    def tverberg(g, d):
        yield "", _doc(d, pointsets={"S": [_pt(g.point(d)) for _ in range(2 * d + 3)]}), 0

    def colorful_strong(g, d):
        conv = [g.point(d) for _ in range(3)]
        colors = []
        for _ in range(d + 1):
            a, b = g.rng.sample(conv, 2)
            meet = tuple(max(x, y) for x, y in zip(a, b))
            colors.append([_pt(p) for p in g.split_join(meet) + [g.point(d)]])
        yield "", _doc(d, polytopes={"C": [_pt(p) for p in conv]}, colorings={"K": colors}), 0

    add("radon", "radon", radon, "parts")
    add("helly", "helly", helly, "helly")
    add("centerpoint", "centerpoint", centerpoint, "centerpoint")
    add("tverberg-r3", "tverberg", tverberg, "parts", ("--r", "3"))
    add("colorful-strong", "colorful-strong", colorful_strong, "colorful-strong")
    return cases


def _values(obj: Any) -> set[Fraction]:
    if isinstance(obj, dict):
        return set().union(*map(_values, obj.values())) if obj else set()
    if isinstance(obj, list):
        return set().union(*map(_values, obj)) if obj else set()
    if isinstance(obj, str) and obj[:1].isdigit():
        return {Fraction(obj)}
    return set()


def _relabel(obj: Any, table: dict[Fraction, Fraction]) -> Any:
    if isinstance(obj, dict):
        return {k: _relabel(v, table) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_relabel(v, table) for v in obj]
    if isinstance(obj, str) and obj[:1].isdigit():
        return str(table[Fraction(obj)])
    return obj


def _relabelled(corpus: list[Case], seed: int) -> list[Case]:
    """The corpus with its coordinate values mapped to seeded values.

    The map is strictly increasing and fixes the bounds 0 and 1, so every
    order relation, and with it every planted property, is kept.
    """
    levels = sorted(set().union(*(_values(c.doc) for c in corpus)) - {Fraction(0), Fraction(1)})
    inner = sorted(random.Random(seed).sample(range(1, 64), len(levels)))
    table = {v: Fraction(n, 64) for v, n in zip(levels, inner)}
    table.update({Fraction(0): Fraction(0), Fraction(1): Fraction(1)})
    for case in corpus:
        case.doc = _relabel(case.doc, table)
    return corpus


# ---------------------------------------------------------------------------
# witness-grid: product and Lukasiewicz searches on refined grids
# ---------------------------------------------------------------------------

# Helly pairs in d=3 whose hulls meet in exactly one point: (1, 3/28, 1/7)
# under product and (1, 5/28, 3/7) under Lukasiewicz.  Neither 1/7 nor 3/7
# is an input coordinate or a multiple of a grid step used here, so the
# grid search misses and reports a CounterexampleSubfamily that is not an
# exact determination.
_OFF_GRID_PAIRS = {
    "product": ([["1", "0", "0"], ["0", "3/4", "1"]],
                [["1", "3/28", "0"], ["0", "1/2", "1"]]),
    "lukasiewicz": ([["1", "0", "0"], ["0", "3/4", "1"]],
                    [["1", "5/28", "0"], ["0", "1/2", "1"]]),
}
# Four points in d=2 whose Radon witnesses all lie off every grid used
# here, under product and under Lukasiewicz: each search exhausts the grid
# (ResolutionExhausted).  Permuting points or coordinates keeps that.
_OFF_GRID_RADON = [["2/7", "1/7"], ["4/7", "1/7"], ["1", "1"], ["1", "6/7"]]


def _permute(rows: list[list[str]], perm: list[int]) -> list[list[str]]:
    return [[row[j] for j in perm] for row in rows]


def _witness_grid(seed: int) -> list[Case]:
    """Planted instances whose scan work does not depend on the seed.

    The numpy kernel tests a whole chunk of grid points at once, so a
    search costs what its number of chunks costs.  Each planted witness
    has first coordinate 1, which puts the lex-first hit in the last chunk,
    and radon's planted join sits at index 1, so the first partition tried
    already succeeds.
    """
    lim = LIMITS["witness-grid"]
    g = _Gen(seed, lim["denominator"])
    cases: list[Case] = []
    for tnorm in ("product", "lukasiewicz"):
        for d, steps in lim["grid_step"].items():
            for step in steps:
                tag = "%s-d%d-s%s" % (tnorm[:4], d, step.split("/")[1])
                base = [g.point(d) for _ in range(d + 1)]
                base[0] = (Fraction(1),) + base[0][1:]
                g.rng.shuffle(base)
                join = tuple(max(col) for col in zip(*base))
                pts = base[:1] + [join] + base[1:]
                cases.append(Case("radon-" + tag, ["radon", "{path}"],
                                  _doc(d, tnorm, step, pointsets={"S": [_pt(p) for p in pts]}),
                                  frozenset({0}), "parts"))
                c = (Fraction(1),) + g.point(d - 1, 1)
                fam = {"P%d" % i: [_pt(p) for p in g.split_join(c)] for i in range(d + 1)}
                cases.append(Case("helly-" + tag, ["helly", "{path}"],
                                  _doc(d, tnorm, step, polytopes=fam, families={"F": sorted(fam)}),
                                  frozenset({0}), "helly"))
                # every coordinate maximum is attained by n - m0 + 1 points, so
                # every m0-subset has the same join, a common grid point
                n = d + 3
                m0 = (d * n) // (d + 1) + 1
                top = (Fraction(1),) + g.point(d - 1, 1)
                pts = [list(g.below(top)) for _ in range(n)]
                for j in range(d):
                    for i in g.rng.sample(range(n), n - m0 + 1):
                        pts[i][j] = top[j]
                cases.append(Case("centerpoint-" + tag, ["centerpoint", "{path}"],
                                  _doc(d, tnorm, step, pointsets={"S": [_pt(p) for p in pts]}),
                                  frozenset({0}), "centerpoint"))
        for step in lim["off_grid_step"]:
            tag = "%s-s%s" % (tnorm[:4], step.split("/")[1])
            perm = g.rng.sample(range(3), 3)
            first, second = (_permute(rows, perm) for rows in _OFF_GRID_PAIRS[tnorm])
            fam = {"A": first, "B": second}
            cases.append(Case("helly-offgrid-" + tag, ["helly", "{path}"],
                              _doc(3, tnorm, step, polytopes=fam, families={"F": ["A", "B"]}),
                              frozenset({2}), "helly"))
            pts = _permute(_OFF_GRID_RADON, g.rng.sample(range(2), 2))
            g.rng.shuffle(pts)
            cases.append(Case("radon-offgrid-" + tag, ["radon", "{path}"],
                              _doc(2, tnorm, step, pointsets={"S": pts}),
                              frozenset({2}), "parts"))
    return cases


# ---------------------------------------------------------------------------
# exact-geometry: cheap min-only exact commands, d = 2..8
# ---------------------------------------------------------------------------


def _exact_geometry() -> list[Case]:
    lim = LIMITS["exact-geometry"]
    g = _Gen(CORPUS_SEED, lim["denominator"])
    den = g.den
    cases: list[Case] = []
    for d in lim["d"]:
        x, y = g.point(d), g.point(d)
        gens = [g.point(d) for _ in range(d + 2)]
        a, b = g.rng.sample(gens, 2)
        inside = tuple(max(u, v) for u, v in zip(a, b))
        # coordinate 0 of every generator of H lies above 1/2, so conv(H)
        # misses "out" (coordinate 0 is 0) and every box kept below 1/2
        outside = (Fraction(0),) + g.point(d - 1)
        gens_hi = [(g.val(den // 2 + 1),) + p[1:] for p in gens]
        doc = _doc(d, points={"x": _pt(x), "y": _pt(y), "in": _pt(inside),
                              "out": _pt(outside)},
                   polytopes={"X": [_pt(p) for p in gens], "H": [_pt(p) for p in gens_hi]})
        cases.append(Case("segment-d%d" % d, ["segment", "{path}", "--x", "x", "--y", "y"],
                          doc, frozenset({0}), "segment"))
        cases.append(Case("distance-d%d" % d, ["distance", "{path}", "--x", "x", "--y", "y"],
                          doc, frozenset({0}), "distance"))
        cases.append(Case("semispaces-d%d" % d, ["semispaces", "{path}", "--point", "x"],
                          doc, frozenset({0}), "semispaces"))
        for which in ("in", "out"):
            poly = "X" if which == "in" else "H"
            cases.append(Case("hull-member-%s-d%d" % (which, d),
                              ["hull-member", "{path}", "--point", which, "--polytope", poly],
                              doc, frozenset({0}), "hull-member",
                              {"member": which == "in"}))
        cases.append(Case("caratheodory-d%d" % d,
                          ["caratheodory", "{path}", "--point", "in", "--polytope", "X"],
                          doc, frozenset({0}), "caratheodory"))
        cases.append(Case("separate-point-out-d%d" % d,
                          ["separate-point", "{path}", "--point", "out", "--polytope", "H"],
                          doc, frozenset({0}), "separate-point"))
        cases.append(Case("separate-point-in-d%d" % d,
                          ["separate-point", "{path}", "--point", "in", "--polytope", "X"],
                          doc, frozenset({2}), "separate-point"))
        # colorful-weak: the point is the join of two generators of each class
        p = g.point(d, 1)
        colors = [[_pt(q) for q in g.split_join(p) + [g.point(d)]] for _ in range(d + 1)]
        cases.append(Case("colorful-weak-d%d" % d, ["colorful-weak", "{path}"],
                          _doc(d, points={"p": _pt(p)}, colorings={"K": colors}),
                          frozenset({0}), "colorful-weak"))
        if d <= lim["box_d"]:
            # a box of width 1/4 below 1/2, away from conv(H)
            lower = g.point(d, 0, den // 4)
            upper = tuple(v + Fraction(1, 4) for v in lower)
            box_doc = _doc(d, boxes={"B": {"lower": _pt(lower), "upper": _pt(upper)}},
                           polytopes={"H": [_pt(p) for p in gens_hi]})
            cases.append(Case("sep-condition-d%d" % d,
                              ["sep-condition", "{path}", "--box", "B", "--polytope", "H"],
                              box_doc, frozenset({0}), "sep-condition"))
            cases.append(Case("separate-box-d%d" % d,
                              ["separate-box", "{path}", "--box", "B", "--polytope", "H"],
                              box_doc, frozenset({0}), "separate-box"))
        # a diagonal point strictly below every generator's coordinate 0
        t = Fraction(g.rng.randint(0, min(int(q[0] * den) for q in gens_hi) - 1), den)
        cases.append(Case("separate-hyperplane-d%d" % d,
                          ["separate-hyperplane", "{path}", "--point", "t", "--polytope", "H"],
                          _doc(d, points={"t": _pt((t,) * d)},
                               polytopes={"H": [_pt(p) for p in gens_hi]}),
                          frozenset({0}), "separate-hyperplane"))
        if d == 3:
            # every generator reaches 1 in some coordinate: the lowest peak
            # is the upper bound, the case separate_by_hyperplane anchors at
            peaks = [list(q) for q in gens_hi]
            for q in peaks:
                q[g.rng.randrange(d)] = Fraction(1)
            cases.append(Case("separate-hyperplane-peaks-d%d" % d,
                              ["separate-hyperplane", "{path}", "--point", "t", "--polytope", "H"],
                              _doc(d, points={"t": _pt((t,) * d)},
                                   polytopes={"H": [_pt(q) for q in peaks]}),
                              frozenset({0}), "separate-hyperplane"))
        rows = [g.point(d, 1, den - 1) for _ in range(d + 1)]
        srt = sorted((tuple(sorted(r, reverse=True)) for r in rows), reverse=True)
        for j in range(d):
            for i in range(1, d + 1):
                if srt[i][j] > srt[i - 1][j]:
                    srt[i] = srt[i][:j] + (srt[i - 1][j],) + srt[i][j + 1:]
        cases.append(Case("intsep-d%d" % d, ["intsep", "{path}"],
                          _doc(d, pointsets={"S": [_pt(r) for r in rows]}),
                          frozenset({0}), "intsep"))
        cases.append(Case("intsep-sorted-d%d" % d, ["intsep", "{path}", "--sorted"],
                          _doc(d, pointsets={"S": [_pt(r) for r in srt]}),
                          frozenset({0}), "intsep"))
        cases.append(Case("tight-diagram-d%d" % d, ["tight-diagram", "{path}"],
                          _doc(d, matrices={"A": [_pt(g.point(d)) for _ in range(d + 1)]}),
                          frozenset({0}), "tight-diagram"))
    for tnorm in ("product", "lukasiewicz"):
        for d in (2, 3, 4):
            gens = [g.point(d) for _ in range(d + 1)]
            a, b = g.rng.sample(gens, 2)
            inside = tuple(max(u, v) for u, v in zip(a, b))
            cases.append(Case("hull-member-%s-d%d" % (tnorm[:4], d),
                              ["hull-member", "{path}", "--tnorm", tnorm],
                              _doc(d, points={"p": _pt(inside)},
                                   polytopes={"X": [_pt(p) for p in gens]}),
                              frozenset({0}), "hull-member", {"member": True}))
    x, y = g.point(2), g.point(2)
    planar = _doc(2, points={"x": _pt(x), "y": _pt(y)},
                  polytopes={"X": [_pt(g.point(2)) for _ in range(3)]},
                  boxes={"B": {"lower": ["0", "0"], "upper": _pt(g.point(2))}},
                  hyperplanes={"L": {"a": _pt(g.point(3)), "b": _pt(g.point(3))}})
    for figure, extra in (("segment", ["--x", "x", "--y", "y"]),
                          ("semispaces", ["--point", "x"]),
                          ("hyperplane", ["--hyperplane", "L"]),
                          ("overview", [])):
        cases.append(Case("render-%s" % figure,
                          ["render", "{path}", "--figure", figure] + extra,
                          planar, frozenset({0}), "render"))
    cases.append(Case("oracle-check",
                      ["oracle-check", "--seed", str(g.rng.randrange(10**6)), "--trials", "8"],
                      None, frozenset({0}), "oracle-check"))
    return cases


def build(workload: str, seed: int) -> list[Case]:
    if workload == "witness-min":
        return _relabelled(_witness_min(), seed)
    if workload == "exact-geometry":
        return _relabelled(_exact_geometry(), seed)
    if workload == "witness-grid":
        return _witness_grid(seed)
    raise ValueError("unknown workload %r" % workload)
