"""Re-checks of CLI answers from outside the program.

Each check takes the case, the instance document it was given and the
parsed JSON the CLI printed, and returns a list of problems (empty when
the answer holds).  Positive witnesses are re-checked with both
membership algorithms the package has: residuation
(``maxt.hull_member_maxt``, any t-norm) and the sector-witness test
(``hull.hull_member``, min only).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any

from maxminconv import geometry, hull, maxt, oracle, semispaces
from maxminconv.core import TNorm
from maxminconv.geometry import Point
from maxminconv.hull import Polytope


def _p(raw) -> Point:
    return Point(tuple(Fraction(v) for v in raw))


def _gens(rows) -> list[Point]:
    """Generators as the CLI indexes them: duplicates dropped."""
    return list(Polytope(tuple(_p(r) for r in rows)).generators)


def _in_hull(q: Point, gens: list[Point], tnorm: str) -> bool:
    poly = Polytope(tuple(gens))
    ok = maxt.hull_member_maxt(q, poly, TNorm(tnorm)).member
    if tnorm == "min":
        ok = ok and hull.hull_member(q, poly).member
    return ok


def _pointset(inst: dict) -> list[Point]:
    return [_p(r) for r in inst["pointsets"]["S"]]


def _tnorm(case, inst: dict | None) -> str:
    flags = case.argv
    if "--tnorm" in flags:
        return flags[flags.index("--tnorm") + 1]
    return (inst or {}).get("tnorm", "min")


def _arg(case, flag: str) -> str | None:
    return case.argv[case.argv.index(flag) + 1] if flag in case.argv else None


def _semispace(raw: dict) -> semispaces.SemispaceId:
    return semispaces.semispace(_p(raw["anchor"]), raw["index"])


def check(case, inst: dict | None, out: dict | str) -> list[str]:
    if case.check == "render":
        return [] if isinstance(out, str) and out.startswith("<svg") else ["not an svg figure"]
    if not isinstance(out, dict):
        return ["output is not a JSON document"]
    if out.get("status") == "negative":
        return _check_negative(case, inst, out)
    if out.get("status") != "ok" or not out.get("verification", {"passed": True})["passed"]:
        return ["status %r" % out.get("status")]
    res = out.get("result", out)
    return _POSITIVE[case.check](case, inst, res)


def _check_negative(case, inst, out) -> list[str]:
    kind = out["outcome"]["type"]
    tn = _tnorm(case, inst)
    if case.check == "helly" and kind == "CounterexampleSubfamily":
        idx = out["outcome"]["indices"]
        k = min(len(inst["families"]["F"]), inst["dimension"] + 1)
        probs = []
        if len(idx) != k or sorted(set(idx)) != idx:
            probs.append("subfamily %r is not a %d-subset" % (idx, k))
        if "disjoint" in case.meta and not set(case.meta["disjoint"]) <= set(idx):
            # only subfamilies holding both planted disjoint members fail
            probs.append("subfamily %r misses a planted disjoint pair %r"
                         % (idx, case.meta["disjoint"]))
        if out["outcome"]["exact"] != (tn == "min"):
            probs.append("exact flag %r under %s" % (out["outcome"]["exact"], tn))
        return probs
    if case.check == "parts" and kind == "ResolutionExhausted":
        return [] if tn != "min" else ["ResolutionExhausted under min"]
    if case.check == "separate-point" and kind == "PointInHull":
        gens = [_p(r) for r in inst["polytopes"][_arg(case, "--polytope")]]
        q = _p(inst["points"][_arg(case, "--point")])
        return [] if _in_hull(q, gens, "min") else ["PointInHull but the point is outside"]
    return ["unexpected negative outcome %s" % kind]


def _parts(case, inst, res) -> list[str]:
    pts = _pointset(inst)
    tn = _tnorm(case, inst)
    parts = res["parts"] if "parts" in res else [res["part1"], res["part2"]]
    w = _p(res["witness"])
    r = int(_arg(case, "--r") or 2)
    probs = [] if len(parts) == r else ["%d parts, expected %d" % (len(parts), r)]
    if sorted(i for part in parts for i in part) != list(range(len(pts))) or not all(parts):
        probs.append("parts do not partition the set")
    for k, part in enumerate(parts):
        if not _in_hull(w, [pts[i] for i in part], tn):
            probs.append("witness outside part %d" % k)
    return probs


def _helly(case, inst, res) -> list[str]:
    w = _p(res["witness"])
    tn = _tnorm(case, inst)
    return ["witness outside member %s" % name for name in inst["families"]["F"]
            if not _in_hull(w, [_p(r) for r in inst["polytopes"][name]], tn)]


def _centerpoint(case, inst, res) -> list[str]:
    pts = _pointset(inst)
    tn = _tnorm(case, inst)
    d, n = pts[0].dim, len(pts)
    m0 = (d * n) // (d + 1) + 1
    c = _p(res["centerpoint"])
    if res["subset_size"] != m0:
        return ["subset size %r, expected %d" % (res["subset_size"], m0)]
    for sub in itertools.combinations(range(n), m0):
        if not _in_hull(c, [pts[i] for i in sub], tn):
            return ["centerpoint outside the hull of subset %r" % (sub,)]
    return []


def _chosen(colors: list, choice: dict) -> list[Point]:
    return [colors[int(i)][g] for i, g in sorted(choice.items(), key=lambda t: int(t[0]))]


def _colorful_strong(case, inst, res) -> list[str]:
    conv = _gens(inst["polytopes"]["C"])
    colors = [_gens(cls) for cls in inst["colorings"]["K"]]
    w = _p(res["witness"])
    chosen = _chosen(colors, res["choice"])
    probs = []
    if len(chosen) != len(colors) or chosen != [_p(r) for r in res["selected"]]:
        probs.append("selection is not one generator per color")
    if not _in_hull(w, conv, "min"):
        probs.append("witness outside conv(C)")
    if not _in_hull(w, chosen, "min"):
        probs.append("witness outside the colorful hull")
    return probs


def _hull_member(case, inst, res) -> list[str]:
    tn = _tnorm(case, inst)
    gens = [_p(r) for r in inst["polytopes"][_arg(case, "--polytope") or "X"]]
    q = _p(inst["points"][_arg(case, "--point") or "p"])
    probs = []
    if res["member"] != case.meta["member"]:
        probs.append("member=%r, planted %r" % (res["member"], case.meta["member"]))
    if _in_hull(q, gens, tn) != case.meta["member"]:
        probs.append("re-check disagrees with the planted membership")
    return probs


def _caratheodory(case, inst, res) -> list[str]:
    gens = [_p(r) for r in inst["polytopes"]["X"]]
    q = _p(inst["points"]["in"])
    kept = [_p(r) for r in res["kept_generators"]]
    probs = []
    if len(kept) > q.dim + 1 or any(g not in gens for g in kept):
        probs.append("kept set is not at most d+1 input generators")
    if not _in_hull(q, kept, "min"):
        probs.append("point outside the reduced hull")
    return probs


def _colorful_weak(case, inst, res) -> list[str]:
    q = _p(inst["points"]["p"])
    colors = [_gens(cls) for cls in inst["colorings"]["K"]]
    chosen = _chosen(colors, res["choice"])
    probs = []
    if chosen != [_p(r) for r in res["selected"]]:
        probs.append("selection does not match the choice")
    if not _in_hull(q, chosen, "min"):
        probs.append("point outside the hull of the selection")
    return probs


def _separate_point(case, inst, res) -> list[str]:
    gens = [_p(r) for r in inst["polytopes"][_arg(case, "--polytope")]]
    q = _p(inst["points"][_arg(case, "--point")])
    s = _semispace(res["semispace"])
    probs = []
    if not all(semispaces.semispace_contains(s, g) for g in gens):
        probs.append("a generator escapes the semispace")
    if semispaces.semispace_contains(s, q) or _in_hull(q, gens, "min"):
        probs.append("the point is not separated")
    return probs


def _separate_box(case, inst, res) -> list[str]:
    gens = [_p(r) for r in inst["polytopes"]["H"]]
    box = inst["boxes"]["B"]
    s = _semispace(res["semispace"])
    probs = []
    if not all(semispaces.semispace_contains(s, g) for g in gens):
        probs.append("a generator escapes the semispace")
    if not semispaces.sector_contains_box(s, _p(box["lower"]), _p(box["upper"])):
        probs.append("box not inside the complementary sector")
    return probs


def _sep_condition(case, inst, res) -> list[str]:
    gens = [_p(r) for r in inst["polytopes"]["H"]]
    box = inst["boxes"]["B"]
    if res["condition_holds"]:
        return [] if res["violation"] is None else ["violation reported although it holds"]
    v = _p(res["violation"])
    probs = []
    if not _in_hull(v, gens, "min"):
        probs.append("violation point outside the hull")
    if not _p(box["lower"]).leq(v):
        probs.append("violation point below the box floor")
    return probs


def _separate_hyperplane(case, inst, res) -> list[str]:
    gens = [_p(r) for r in inst["polytopes"]["H"]]
    q = _p(inst["points"]["t"])
    h = semispaces.Hyperplane(tuple(Fraction(v) for v in res["a"]),
                              tuple(Fraction(v) for v in res["b"]))
    probs = []
    if not all(semispaces.hyperplane_contains(h, g) for g in gens):
        probs.append("a generator is off the hyperplane")
    if semispaces.hyperplane_contains(h, q):
        probs.append("the point lies on the hyperplane")
    return probs


def _intsep(case, inst, res) -> list[str]:
    pts = _pointset(inst)
    w = _p(res["witness"])
    assign = {int(i): s for i, s in res["assignment"].items()}
    probs = []
    if sorted(assign) != list(range(len(pts))) or sorted(assign.values()) != list(range(len(pts))):
        probs.append("assignment is not a bijection")
    elif not all(semispaces.sector_contains(semispaces.semispace(w, s), pts[i])
                 for i, s in assign.items()):
        probs.append("a point is outside its assigned sector")
    if not _in_hull(w, pts, "min"):
        probs.append("witness outside the hull of the points")
    return probs


def _bottleneck(rows: list[list[Fraction]]) -> Fraction:
    """Best minimal entry of a matching of every column to its own row.

    Dynamic programming over the set of matched columns, row by row (a row
    may stay unmatched): exact, and fast enough at d = 8, where the brute
    force of ``oracle.brute_bottleneck`` visits 9 * 8! matchings.
    """
    d = len(rows[0])
    best = {0: Fraction(1)}
    for row in rows:
        nxt = dict(best)
        for mask, val in best.items():
            for j in range(d):
                if not mask >> j & 1:
                    key, cand = mask | 1 << j, min(val, row[j])
                    if cand > nxt.get(key, -1):
                        nxt[key] = cand
        best = nxt
    return best[(1 << d) - 1]


def _tight_diagram(case, inst, res) -> list[str]:
    rows = [[Fraction(v) for v in r] for r in inst["matrices"]["A"]]
    t = Fraction(res["t"])
    ref = _bottleneck(rows)
    if len(rows[0]) <= 5 and oracle.brute_bottleneck(rows) != ref:
        return ["the two outside bottleneck computations disagree"]
    return [] if t == ref else ["threshold %s, outside computation %s" % (t, ref)]


def _segment(case, inst, res) -> list[str]:
    x, y = _p(inst["points"]["x"]), _p(inst["points"]["y"])
    chain = [_p(q) for q in res["chain"]]
    probs = []
    if _p(res["pieces"][0]["start"]) != x or _p(res["pieces"][-1]["end"]) != y:
        probs.append("segment does not run from x to y")
    if not all(geometry.segment_contains(x, y, q) for q in chain):
        probs.append("a chain point is off the segment")
    return probs


def _distance(case, inst, res) -> list[str]:
    x, y = _p(inst["points"]["x"]), _p(inst["points"]["y"])
    lo, hi = (Fraction(v) for v in res["value_interval"])
    linf = max(abs(a - b) for a, b in zip(x.coords, y.coords))
    # a max-min geodesic is at least as long as the sup-norm distance
    return [] if lo <= hi and hi >= linf else ["length below the sup-norm distance"]


def _semispaces(case, inst, res) -> list[str]:
    p = _p(inst["points"]["x"])
    return [] if res["valid_indices"] == list(semispaces.index_set(p)) else ["index set differs"]


def _oracle_check(case, inst, res) -> list[str]:
    return [] if not res["failures"] else ["oracle mismatches: %d" % len(res["failures"])]


_POSITIVE = {
    "parts": _parts,
    "helly": _helly,
    "centerpoint": _centerpoint,
    "colorful-strong": _colorful_strong,
    "hull-member": _hull_member,
    "caratheodory": _caratheodory,
    "colorful-weak": _colorful_weak,
    "separate-point": _separate_point,
    "separate-box": _separate_box,
    "sep-condition": _sep_condition,
    "separate-hyperplane": _separate_hyperplane,
    "intsep": _intsep,
    "tight-diagram": _tight_diagram,
    "segment": _segment,
    "distance": _distance,
    "semispaces": _semispaces,
    "oracle-check": _oracle_check,
}


def is_exact(code: int, out: Any) -> bool:
    """An exact determination: a verified answer or an exact negative."""
    if code == 0:
        return True
    if code != 2 or not isinstance(out, dict):
        return False
    outcome = out["outcome"]
    if outcome["type"] == "ResolutionExhausted":
        return False
    return outcome.get("exact", True)
