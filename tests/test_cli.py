"""CLI plumbing: exit codes, JSON documents, verification blocks, overrides."""

import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import maxminconv
from maxminconv import cli, geometry
from maxminconv.cli import main

BASE = {
    "schema": 1,
    "points": {
        "inside": ["0.5", "0.5"],
        "onhull": ["0.8", "0.8"],
        "outside": ["0.9", "0.1"],
        "x": ["0.2", "0.5"],
        "y": ["0.6", "0.9"],
        "diag": ["0.5", "0.5"],
    },
    "polytopes": {
        "X": [["0.2", "0.8"], ["0.8", "0.2"]],
        "low": [["0.1", "0.1"], ["0.3", "0.2"]],
        "spike": [["0.5", "0.6"]],
        "cap": [["5/8", "7/8"], ["1/2", "1"]],
    },
    "boxes": {
        "B": {"lower": ["0", "0"], "upper": ["0.3", "0.3"]},
        "flat": {"lower": ["0", "0"], "upper": ["1", "0.3"]},
        "tall": {"lower": ["3/8", "5/8"], "upper": ["1", "3/4"]},
    },
    "matrices": {"A": [["0.9", "0.1"], ["0.8", "0.3"], ["0.5", "0.4"]]},
    "pointsets": {
        "triple": [["0.7", "0.2"], ["0.2", "0.7"], ["0.5", "0.5"]],
        "sorted3": [["0.9", "0.7"], ["0.6", "0.5"], ["0.3", "0.1"]],
    },
    "families": {"good": ["X", "X"], "apart": ["X", "low"]},
    "colorings": {
        "tri": [
            [["0.2", "0.8"], ["0.8", "0.2"]],
            [["0.2", "0.8"], ["0.8", "0.2"]],
            [["0.2", "0.8"], ["0.8", "0.2"]],
        ]
    },
    "hyperplanes": {"H": {"a": ["0.6", "0", "0.2"], "b": ["0", "0.6", "0.2"]}},
}


INTERVALS = {
    "schema": 1,
    "pointsets": {
        "line": [["0.2"], ["0.5"], ["0.9"]],
        "five": [["0.1"], ["0.3"], ["0.5"], ["0.7"], ["0.9"]],
    },
}


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(BASE))
    return str(path)


@pytest.fixture
def intervals_path(tmp_path):
    path = tmp_path / "intervals.json"
    path.write_text(json.dumps(INTERVALS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise AssertionError("stdout is not JSON: it holds %s" % name)


def loads(out):
    """Parse CLI stdout as strict JSON: ``Infinity`` or ``NaN`` fails the test."""
    return json.loads(out, parse_constant=_reject_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, loads(out), err


def run_python(*args):
    """Run ``python *args`` in a fresh process that imports this checkout."""
    src = str(Path(maxminconv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_fmt_formats_library_values():
    from maxminconv.semispaces import SemispaceId

    p = geometry.Point((Fraction(1, 2), Fraction(1, 4), Fraction(1)))
    s = SemispaceId(anchor=p, index=3)
    value = {
        "fraction": Fraction(-3, 8),
        "point": p,
        "semispace": s,
        "float": 0.25,
        "flags": (True, False, None),
        "nested": ((1, (Fraction(2, 3), "x")), [p]),
        7: {0: 1, 2: Fraction(0)},
    }
    assert cli._fmt(value) == {
        "fraction": "-3/8",
        "point": ["1/2", "1/4", "1"],
        "semispace": {"anchor": ["1/2", "1/4", "1"], "index": 3, "tail": [0, 1]},
        "float": 0.25,
        "flags": [True, False, None],
        "nested": [[1, ["2/3", "x"]], [["1/2", "1/4", "1"]]],
        "7": {"0": 1, "2": "0"},
    }
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._fmt({"indices": {0, 1}})


# ---------------------------------------------------------------------------
# positive determinations: exit 0
# ---------------------------------------------------------------------------


def test_segment_document(capsys, instance_path):
    code, doc, _ = run_json(capsys, "segment", instance_path, "--x", "x", "--y", "y")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["command"] == "segment"
    assert doc["result"]["mode"] == "comparable"
    assert doc["result"]["chain"] == [
        ["1/5", "1/2"],
        ["1/2", "1/2"],
        ["3/5", "3/5"],
        ["3/5", "9/10"],
    ]
    assert doc["verification"]["passed"] is True
    assert all(c["passed"] for c in doc["verification"]["checks"])


def test_distance_document(capsys, instance_path):
    code, doc, _ = run_json(capsys, "distance", instance_path, "--x", "x", "--y", "y")
    assert code == 0
    assert doc["result"]["radical_sum"] == "3/5 + 1/10*sqrt(2)"
    lo = doc["result"]["value_interval"][0]
    assert abs(doc["result"]["value_float"] - 0.7414) < 1e-3
    assert "/" in lo


@pytest.mark.parametrize("x, y", [("x", "y"), ("y", "x"), ("outside", "inside")])
def test_distance_decomposes_the_segment_twice(capsys, instance_path, monkeypatch, x, y):
    """One decomposition gives the length and its re-derivation; the
    symmetric check decomposes [y, x] once more."""
    calls = []
    original = geometry.segment_decompose

    def spy(a, b, bounds):
        calls.append((a, b))
        return original(a, b, bounds)

    monkeypatch.setattr(geometry, "segment_decompose", spy)
    monkeypatch.setattr(cli, "segment_decompose", spy)
    code, doc, _ = run_json(capsys, "distance", instance_path, "--x", x, "--y", y)
    assert code == 0 and doc["verification"]["passed"] is True
    p, q = (cli.instance_from_dict(BASE).lookup("points", n) for n in (x, y))
    assert calls == [(p, q), (q, p)]


@pytest.mark.parametrize(
    "hi, y",
    [
        ("2e308", ["15e307", "15e307"]),  # 15e307 fits a float, 15e307 * sqrt(2) does not
        ("1e400", ["1e400", "1e399"]),  # no coefficient fits a float
    ],
)
def test_distance_beyond_the_float_range(capsys, tmp_path, hi, y):
    """The exact value is printed; its float is null, as JSON has no Infinity."""
    path = tmp_path / "far.json"
    points = {"x": ["0", "0"], "y": y}
    path.write_text(json.dumps({"schema": 1, "bounds": ["0", hi], "points": points}))
    code, doc, _ = run_json(capsys, "distance", str(path), "--x", "x", "--y", "y")
    assert code == 0 and doc["status"] == "ok"
    assert doc["result"]["value_float"] is None
    assert doc["result"]["terms"]


def test_semispaces_document(capsys, instance_path):
    code, doc, _ = run_json(capsys, "semispaces", instance_path, "--point", "inside")
    assert code == 0
    assert doc["result"]["valid_indices"] == [0, 1, 2]
    assert len(doc["result"]["semispaces"]) == 3


def test_hull_member_yes(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "hull-member", instance_path, "--point", "onhull", "--polytope", "X"
    )
    assert code == 0
    assert doc["result"]["member"] is True
    assert doc["result"]["witnesses"]
    assert doc["verification"]["passed"] is True


def test_hull_member_no_still_exits_zero(capsys, instance_path):
    """A verified boolean "no" is a determination, not a failure."""
    code, doc, _ = run_json(
        capsys, "hull-member", instance_path, "--point", "outside", "--polytope", "X"
    )
    assert code == 0
    assert doc["result"]["member"] is False
    assert doc["result"]["separating_index"] is not None
    assert doc["verification"]["passed"] is True


def test_caratheodory(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "caratheodory", instance_path, "--point", "onhull", "--polytope", "X"
    )
    assert code == 0
    assert doc["result"]["kept_indices"] == [0, 1]


def test_colorful_weak(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "colorful-weak", instance_path, "--point", "onhull", "--coloring", "tri"
    )
    assert code == 0
    assert len(doc["result"]["selected"]) == 3
    assert doc["verification"]["passed"] is True


def test_colorful_strong(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "colorful-strong", instance_path, "--polytope", "X", "--coloring", "tri"
    )
    assert code == 0
    assert len(doc["result"]["meeting_points"]) == 3
    assert doc["result"]["used_extended_bounds"] in (True, False)
    assert doc["verification"]["passed"] is True


def test_separate_point_found(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "separate-point", instance_path, "--point", "inside", "--polytope", "low"
    )
    assert code == 0
    sem = doc["result"]["semispace"]
    assert sem["anchor"] == ["1/2", "1/2"]
    assert isinstance(sem["index"], int)


def test_sep_condition_failure_is_still_a_determination(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "sep-condition", instance_path, "--box", "flat", "--polytope", "spike"
    )
    assert code == 0
    assert doc["result"]["condition_holds"] is False
    # u_1 = hi rules out index 0, l = (lo, lo) rules out indices 1 and 2
    assert doc["result"]["violation"] == [
        {"index": i, "semispace": None, "generator": None} for i in range(3)
    ]
    assert doc["verification"]["passed"] is True


def test_sep_condition_names_blocking_generators(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "sep-condition", instance_path, "--box", "tall", "--polytope", "cap"
    )
    assert code == 0
    assert doc["result"]["condition_holds"] is False
    assert doc["result"]["violation"] == [
        {"index": 0, "semispace": None, "generator": None},
        {
            "index": 1,
            "semispace": {"anchor": ["3/8", "5/8"], "index": 1, "tail": []},
            "generator": 0,
        },
        {
            "index": 2,
            "semispace": {"anchor": ["5/8", "5/8"], "index": 2, "tail": []},
            "generator": 0,
        },
    ]
    assert doc["verification"]["checks"] == [
        {"name": "every semispace index is blocked", "passed": True}
    ]
    assert doc["verification"]["passed"] is True


def test_separate_box_found(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "separate-box", instance_path, "--box", "B", "--polytope", "X"
    )
    assert code == 0
    assert "semispace" in doc["result"]


def test_separate_hyperplane(capsys, instance_path):
    code, doc, _ = run_json(
        capsys,
        "separate-hyperplane",
        instance_path,
        "--point",
        "diag",
        "--polytope",
        "low",
    )
    assert code == 0
    assert len(doc["result"]["a"]) == 3 and len(doc["result"]["b"]) == 3


def test_intsep_and_sorted_variant(capsys, instance_path):
    code, doc, _ = run_json(capsys, "intsep", instance_path, "--pointset", "triple")
    assert code == 0
    assert sorted(int(k) for k in doc["result"]["assignment"]) == [0, 1, 2]

    code2, doc2, _ = run_json(
        capsys, "intsep", instance_path, "--pointset", "sorted3", "--sorted"
    )
    assert code2 == 0
    assert doc2["verification"]["passed"] is True


def test_tight_diagram(capsys, instance_path):
    code, doc, _ = run_json(capsys, "tight-diagram", instance_path, "--matrix", "A")
    assert code == 0
    assert doc["result"]["t"] == "2/5"
    assert doc["result"]["free_row"] == 0
    assert doc["result"]["pi"] == [[1, 0], [2, 1]]
    names = [c["name"] for c in doc["verification"]["checks"]]
    assert "threshold matches brute force" in names


def test_radon(capsys, intervals_path):
    code, doc, _ = run_json(capsys, "radon", intervals_path, "--pointset", "line")
    assert code == 0
    assert doc["result"]["part1"] == [0, 2]
    assert doc["result"]["part2"] == [1]
    assert doc["result"]["witness"] == ["1/2"]


def test_helly_common_point(capsys, instance_path):
    code, doc, _ = run_json(capsys, "helly", instance_path, "--family", "good")
    assert code == 0
    assert "witness" in doc["result"]


def test_centerpoint(capsys, intervals_path):
    code, doc, _ = run_json(capsys, "centerpoint", intervals_path, "--pointset", "line")
    assert code == 0
    assert doc["result"]["centerpoint"] == ["1/2"]


@pytest.mark.parametrize("tnorm", ["min", "product"])
def test_centerpoint_rechecks_every_subset_hull(capsys, intervals_path, monkeypatch, tnorm):
    """The depth re-check refuses a point outside one 3-subset hull.

    Of the five points 0.1, ..., 0.9 every 3-subset hull but that of
    {0.3, 0.5, 0.7} holds 0.1; under both norms the CLI counts the
    attainment sets of the returned coefficients.
    """
    from maxminconv.geometry import point
    from maxminconv.hull import Polytope
    from maxminconv.maxt import CommonWitness, hull_member_maxt

    name = "inside the hull of every 3-subset (all 10 of them)"
    argv = ("centerpoint", intervals_path, "--pointset", "five", "--tnorm", tnorm)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["verification"]["checks"] == [{"name": name, "passed": True}]

    def forged(pts, t, step):
        p = point("0.1")
        return CommonWitness(p, (hull_member_maxt(p, Polytope(tuple(pts)), t).coefficients,))

    monkeypatch.setattr(cli, "centerpoint", forged)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 1
    assert doc["status"] == "verification-failed"
    assert doc["verification"]["checks"] == [{"name": name, "passed": False}]


def test_centerpoint_of_many_points_names_its_subset_count(capsys, tmp_path):
    """C(15000, 7501) has more digits than a check name may print."""
    path = tmp_path / "many.json"
    line = [["%d/97" % (i % 98)] for i in range(15000)]
    path.write_text(json.dumps({"schema": 1, "pointsets": {"line": line}}))
    code, doc, _ = run_json(capsys, "centerpoint", str(path), "--pointset", "line")
    assert code == 0 and doc["status"] == "ok"
    assert doc["verification"]["checks"] == [{
        "name": "inside the hull of every 7501-subset (all C(15000, 7501) of them)",
        "passed": True,
    }]


WITNESS_ARGV = [
    ("radon", "--pointset", "radon"),
    ("helly", "--family", "good"),
    ("tverberg", "--pointset", "seven", "--r", "3"),
]


def _forge_witness(tmp_path, monkeypatch):
    """Forge the search to end at (0.99, 0.99); returns the instance path.

    That point lies outside every hull of the instance.  ``maxt._lex_first``
    is patched to end there, and the search's integer self-check
    (``maxt._attainment``) to accept it with every coefficient hi and
    every attainment set full, so only the CLI's own re-check can refuse
    the witness.
    """
    from maxminconv import maxt

    doc = dict(BASE, pointsets={
        "radon": [["0.1", "0.9"], ["0.9", "0.1"], ["0.5", "0.5"], ["0.2", "0.2"]],
        "seven": [["0.1", "0.9"], ["0.9", "0.1"], ["0.5", "0.5"], ["0.2", "0.2"],
                  ["0.3", "0.6"], ["0.6", "0.3"], ["0.4", "0.4"]],
    })
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc))

    def forged_end(search, groups, rank=1):
        # numerators over the search's denominator; Fractions where 99/100
        # is off the exact min grid
        return (search.top,) + (Fraction(99, 100) * search.denom,) * 2

    def accept(search, gens, y):
        return (Fraction(1),) * len(gens), (len(gens),) * len(y)

    monkeypatch.setattr(maxt, "_lex_first", forged_end)
    monkeypatch.setattr(maxt, "_attainment", accept)
    return str(path)


def _run_forged_witness(capsys, tmp_path, monkeypatch, argv, *options):
    """Run argv on the forged search; returns the exit code and the document."""
    path = _forge_witness(tmp_path, monkeypatch)
    code, out, _ = run_json(capsys, argv[0], path, *argv[1:], *options)
    return code, out


@pytest.mark.parametrize("tnorm", ["min", "product", "lukasiewicz"])
@pytest.mark.parametrize(
    "argv", WITNESS_ARGV + [("centerpoint", "--pointset", "seven")], ids=lambda argv: argv[0]
)
def test_forged_certificates_fail_the_forward_check(capsys, tmp_path, monkeypatch, argv, tnorm):
    """Under every norm the forward check refuses a forged witness.

    The search and its self-check are forged to accept (0.99, 0.99) with
    every coefficient hi.  The CLI evaluates those coefficients forward,
    finds that no term reaches 99/100, and refuses the result.
    """
    code, out = _run_forged_witness(capsys, tmp_path, monkeypatch, argv, "--tnorm", tnorm)
    assert code == 1
    assert out["status"] == "verification-failed"
    field = "centerpoint" if argv[0] == "centerpoint" else "witness"
    assert out["result"][field] == ["99/100", "99/100"]
    assert not out["verification"]["passed"]


@st.composite
def _min_certificate_questions(draw):
    """Bounds [0, 1] or [-1, 2], 1-6 points on 1/8 (repeats allowed), a point p.

    p is a max-min combination of the points with one coefficient hi,
    or any point on 1/8 inside the bounds.
    """
    from maxminconv.core import MIN_TAG, SemiringBounds, TNorm
    from maxminconv.geometry import Point

    lo, hi = draw(st.sampled_from([(0, 1), (-1, 2)]))
    tnorm = TNorm(MIN_TAG, SemiringBounds(Fraction(lo), Fraction(hi)))
    d = draw(st.integers(1, 3))
    eighths = st.integers(8 * lo, 8 * hi).map(lambda k: Fraction(k, 8))
    points = st.tuples(*[eighths] * d).map(Point)
    pts = draw(st.lists(points, min_size=1, max_size=6))
    lam = draw(st.lists(eighths, min_size=len(pts), max_size=len(pts)))
    lam[draw(st.integers(0, len(pts) - 1))] = Fraction(hi)
    combo = Point(tuple(
        max(tnorm.apply(l, q[j]) for l, q in zip(lam, pts)) for j in range(d)
    ))
    return tnorm, pts, draw(st.sampled_from([combo, draw(points)]))


@settings(max_examples=300, deadline=None)
@given(_min_certificate_questions())
def test_forward_check_matches_sector_counts_under_min(question):
    """Under min the forward check decides what the sector counts decide.

    With each point's coefficient its principal one, the least residual
    of its coordinates, ``_certified`` at depth k accepts exactly when
    every valid sector of p holds at least k of the points, and at depth
    1 exactly when the sector-witness test finds p in their hull.
    """
    from maxminconv.hull import Polytope, hull_member
    from maxminconv.semispaces import sector_test, semispace_family

    tnorm, pts, p = question
    lams = [min(tnorm.residual(q[j], p[j]) for j in range(p.dim)) for q in pts]
    sectors = [sum(map(sector_test(s), pts)) for s in semispace_family(p, tnorm.bounds)]
    for k in range(1, len(pts) + 1):
        assert cli._certified(p, pts, lams, tnorm, depth=k) == (min(sectors) >= k)
    member = hull_member(p, Polytope(tuple(pts)), tnorm.bounds).member
    assert cli._certified(p, pts, lams, tnorm) == member


def test_tverberg(capsys, intervals_path):
    code, doc, _ = run_json(
        capsys, "tverberg", intervals_path, "--pointset", "five", "--r", "3"
    )
    assert code == 0
    assert doc["result"]["parts"] == [[0, 3], [1, 4], [2]]
    assert doc["result"]["witness"] == ["1/2"]


def test_oracle_check(capsys):
    code, doc, _ = run_json(capsys, "oracle-check", "--seed", "3", "--trials", "12")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["failures"] == []
    assert doc["trials"]["hull"] == 12


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_oracle_check_refuses_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "oracle-check", "--trials", trials)
    assert code == 1 and out == ""
    assert err.startswith("usage: maxminconv oracle-check")
    assert err.endswith(
        "error: argument --trials: expected an integer of at least 1, got '%s'\n" % trials
    )


# ---------------------------------------------------------------------------
# negative outcomes: exit 2
# ---------------------------------------------------------------------------


def test_separate_point_in_hull(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "separate-point", instance_path, "--point", "onhull", "--polytope", "X"
    )
    assert code == 2
    assert doc["status"] == "negative"
    assert doc["outcome"]["type"] == "PointInHull"
    assert doc["outcome"]["witnesses"]


def test_separate_box_non_separable(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "separate-box", instance_path, "--box", "flat", "--polytope", "spike"
    )
    assert code == 2
    assert doc["outcome"]["type"] == "NonSeparable"
    assert doc["outcome"]["blockers"] == [
        {"index": i, "semispace": None, "generator": None} for i in range(3)
    ]


def planted_blockers(name):
    from maxminconv.geometry import point
    from maxminconv.semispaces import semispace

    if name == "too-short":
        return "flat", "spike", ((None, None),) * 2
    if name == "anchor-outside-box":
        # S_0(1/2, 1/2) holds the spike in its sector, but not the box
        return "flat", "spike", ((semispace(point("0.5", "0.5"), 0), 0),) + ((None, None),) * 2
    # index 0 is valid for B, and S_0(3/10, 3/10) holds no generator of X in its sector
    return "B", "X", ((None, None),) * 3


@pytest.mark.parametrize("planted", ["too-short", "anchor-outside-box", "valid-index-unblocked"])
def test_separate_box_rechecks_its_negative(capsys, instance_path, monkeypatch, planted):
    from maxminconv import cli
    from maxminconv.separation import NonSeparable

    box, poly, blockers = planted_blockers(planted)
    bogus = NonSeparable(reason="planted", blockers=blockers)
    monkeypatch.setattr(cli, "separate_box", lambda b, c, bounds: bogus)
    code, out, err = run(
        capsys, "separate-box", instance_path, "--box", box, "--polytope", poly
    )
    assert code == 1
    doc = loads(out)
    assert doc["status"] == "internal-error"
    assert "non-separability certificate fails its re-check" in doc["outcome"]["message"]

    code, out, err = run(
        capsys, "sep-condition", instance_path, "--box", box, "--polytope", poly
    )
    assert code == 1
    doc = loads(out)
    assert doc["status"] == "verification-failed"
    assert doc["result"]["condition_holds"] is False


def test_separate_hyperplane_off_diagonal(capsys, instance_path):
    code, doc, _ = run_json(
        capsys,
        "separate-hyperplane",
        instance_path,
        "--point",
        "outside",
        "--polytope",
        "low",
    )
    assert code == 2
    assert doc["outcome"]["type"] == "NotOnDiagonal"


def test_separate_hyperplane_point_in_hull(capsys, instance_path):
    """(4/5, 4/5) lies in the hull of X: the sector witnesses are its generators."""
    code, doc, _ = run_json(
        capsys, "separate-hyperplane", instance_path, "--point", "onhull", "--polytope", "X"
    )
    assert code == 2
    assert doc["outcome"]["type"] == "PointInHull"
    assert doc["outcome"]["witnesses"] == {"0": 0, "1": 1, "2": 0}


def test_helly_counterexample(capsys, instance_path):
    code, doc, _ = run_json(capsys, "helly", instance_path, "--family", "apart")
    assert code == 2
    assert doc["outcome"]["type"] == "CounterexampleSubfamily"
    assert doc["outcome"]["indices"] == [0, 1]
    # the exact min grid: 1/10, 1/5, 3/10, 4/5 from X and low, and the bounds
    assert doc["outcome"]["grid_step"] is None
    assert doc["outcome"]["grid_size"] == 6


def test_helly_counterexample_names_its_grid(capsys, instance_path):
    code, doc, _ = run_json(
        capsys, "helly", instance_path, "--family", "apart", "--tnorm", "product",
        "--grid-step", "1/4",
    )
    assert code == 2
    assert doc["outcome"]["type"] == "CounterexampleSubfamily"
    assert doc["outcome"]["exact"] is False
    assert doc["outcome"]["grid_step"] == "1/4"
    assert doc["outcome"]["grid_size"] > 5


def test_min_helly_ignores_the_grid_step(capsys, instance_path):
    plain = run(capsys, "helly", instance_path, "--family", "apart")
    stepped = run(capsys, "helly", instance_path, "--family", "apart", "--grid-step", "1/4")
    assert stepped == plain
    outcome = loads(stepped[1])["outcome"]
    assert outcome["type"] == "CounterexampleSubfamily"
    assert outcome["exact"] is True
    assert outcome["grid_step"] is None
    assert outcome["grid_size"] == 6


def test_min_radon_ignores_an_over_fine_grid_step(capsys, tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps({
        "schema": 1,
        "pointsets": {"four": [["0.7", "0.2"], ["0.2", "0.7"], ["0.5", "0.5"], ["0.9", "0.9"]]},
    }))
    argv = ("radon", str(path))
    start = time.perf_counter()
    stepped = run(capsys, *argv, "--grid-step", "1/100000000")
    assert time.perf_counter() - start < 1.0
    assert stepped[0] == 0
    assert stepped == run(capsys, *argv)


def test_radon_resolution_exhausted(capsys, tmp_path):
    doc_in = {
        "schema": 1,
        "tnorm": "product",
        "pointsets": {
            "hard": [
                ["5/9", "2/3"],
                ["1/9", "8/9"],
                ["4/9", "1/9"],
                ["1/3", "2/9"],
            ]
        },
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc_in))
    code, doc, _ = run_json(
        capsys, "radon", str(path), "--pointset", "hard", "--grid-step", "1"
    )
    assert code == 2
    assert doc["outcome"]["type"] == "ResolutionExhausted"

    code2, doc2, _ = run_json(
        capsys, "radon", str(path), "--pointset", "hard", "--grid-step", "1/90"
    )
    assert code2 == 0
    assert doc2["result"]["witness"] == ["4/9", "8/15"]


def test_radon_miss_names_its_grid(capsys, tmp_path):
    doc_in = {
        "schema": 1,
        "tnorm": "product",
        "pointsets": {"hard": [["5/9", "2/3"], ["1/9", "8/9"], ["4/9", "1/9"], ["1/3", "2/9"]]},
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc_in))
    code, doc, _ = run_json(capsys, "radon", str(path), "--grid-step", "1/2")
    assert code == 2
    outcome = doc["outcome"]
    assert outcome["type"] == "ResolutionExhausted"
    # the seven distinct input coordinates plus 0, 1/2 and 1
    assert outcome["grid_step"] == "1/2"
    assert outcome["grid_size"] == 10
    assert "10 values per coordinate, step 1/2" in outcome["message"]


PRODUCT_FAMILY = {
    "A": [["3/5", "1/5"], ["4/5", "2/5"], ["2/5", "1"]],
    "B": [["0", "1"], ["4/5", "3/5"], ["0", "0"]],
    "C": [["1", "4/5"], ["1", "2/5"], ["0", "0"]],
    "D": [["4/5", "4/5"], ["0", "1/5"], ["3/5", "1/5"]],
}


def test_product_helly_miss_when_every_subfamily_meets(capsys, tmp_path):
    """A product family whose 3-subfamilies meet on the 1/4 grid, while it does not.

    No subfamily is a counterexample there, so the family-wide miss is
    the grid's: the CLI exits 2 with ResolutionExhausted and names the
    grid.  The default grid holds a common point.
    """
    triples = {"".join(t): list(t) for t in itertools.combinations("ABCD", 3)}
    doc_in = {"schema": 1, "tnorm": "product", "polytopes": PRODUCT_FAMILY,
              "families": {"F": list("ABCD"), **triples}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc_in))
    for name in triples:
        code, doc, _ = run_json(capsys, "helly", str(path), "--family", name, "--grid-step", "1/4")
        assert code == 0, name
    code, doc, _ = run_json(capsys, "helly", str(path), "--family", "F", "--grid-step", "1/4")
    assert code == 2
    outcome = doc["outcome"]
    assert outcome["type"] == "ResolutionExhausted"
    assert (outcome["grid_step"], outcome["grid_size"]) == ("1/4", 9)
    code, doc, _ = run_json(capsys, "helly", str(path), "--family", "F")
    assert code == 0
    assert doc["result"]["witness"] == ["3/5", "9/20"]


def test_lukasiewicz_centerpoint_miss_off_its_lattice(capsys, tmp_path):
    """A Lukasiewicz centerpoint that only the grid of sevenths holds.

    Lukasiewicz arithmetic keeps numerators over the inputs' common
    denominator 7 integral, so the 1/7 grid is the exact lattice that
    ROADMAP.md item 2 proposes to search.  It holds the centerpoint
    (4/7, 5/7); the 1/4 grid and the default 1/100 grid miss, and the
    CLI exits 2 with ResolutionExhausted.
    """
    doc_in = {"schema": 1, "tnorm": "lukasiewicz", "pointsets": {
        "S": [["3/7", "0"], ["2/7", "5/7"], ["6/7", "0"], ["5/7", "6/7"]]}}
    path = tmp_path / "sevenths.json"
    path.write_text(json.dumps(doc_in))
    for step in (["--grid-step", "1/4"], []):
        code, doc, _ = run_json(capsys, "centerpoint", str(path), "--pointset", "S", *step)
        assert code == 2
        assert doc["outcome"]["type"] == "ResolutionExhausted"
        assert doc["outcome"]["grid_step"] == (step[1] if step else "1/100")
    code, doc, _ = run_json(
        capsys, "centerpoint", str(path), "--pointset", "S", "--grid-step", "1/7"
    )
    assert code == 0
    assert doc["result"]["centerpoint"] == ["4/7", "5/7"]


def test_internal_error_is_a_document(capsys, intervals_path, monkeypatch):
    from maxminconv import maxt

    monkeypatch.setattr(maxt, "_common_point", lambda search, groups: None)
    code, out, err = run(capsys, "radon", intervals_path, "--pointset", "line")
    assert code == 1
    doc = loads(out)
    assert doc["status"] == "internal-error"
    assert doc["outcome"]["type"] == "AssertionError"
    assert "soundness alarm" in doc["outcome"]["message"]
    # the three input coordinates plus the bounds 0 and 1
    assert "5 values per coordinate" in doc["outcome"]["message"]
    assert "Traceback" not in err
    assert err.count("\n") == 1


def test_any_uncaught_exception_is_an_internal_error(capsys, intervals_path, monkeypatch):
    def boom(*args):
        raise RuntimeError("handler exploded")

    monkeypatch.setitem(cli.build_parser().get_default("_handlers"), "radon", boom)
    code, out, err = run(capsys, "radon", intervals_path, "--pointset", "line")
    assert code == 1
    doc = loads(out)
    assert doc["command"] == "radon" and doc["instance"] == intervals_path
    assert doc["status"] == "internal-error"
    assert doc["outcome"] == {"type": "RuntimeError", "message": "handler exploded"}
    assert err == "error: internal error: handler exploded\n"

    monkeypatch.setattr(cli, "_cmd_oracle_check", boom)
    code, out, err = run(capsys, "oracle-check", "--trials", "1")
    assert code == 1
    assert loads(out) == {
        "command": "oracle-check",
        "outcome": {"type": "RuntimeError", "message": "handler exploded"},
        "status": "internal-error",
    }
    assert err == "error: internal error: handler exploded\n"


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------


def test_tnorm_override_switches_membership_report(capsys, instance_path):
    code, doc, _ = run_json(
        capsys,
        "hull-member",
        instance_path,
        "--point",
        "inside",
        "--polytope",
        "X",
        "--tnorm",
        "lukasiewicz",
    )
    assert code == 0
    assert "coefficients" in doc["result"]
    assert "combination" in doc["result"]


def test_bounds_override(capsys, tmp_path):
    doc_in = {
        "schema": 1,
        "points": {"p": ["1.5", "-0.5"], "q": ["2", "2"]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc_in))
    code = main(["semispaces", str(path), "--point", "p"])
    captured = capsys.readouterr()
    assert code == 1
    assert "outside bounds" in captured.err

    code2, doc, _ = run_json(
        capsys, "semispaces", str(path), "--point", "p", "--bounds", "-1", "2"
    )
    assert code2 == 0
    assert doc["result"]["valid_indices"] == [0, 1, 2]


@pytest.mark.parametrize(
    "section, argv, message",
    [
        ({"matrices": {"A": [["5", "-3"], ["1/2", "2/5"], ["1/5", "1"]]}},
         ["tight-diagram", "--matrix", "A"],
         "error: matrices.A[0]: value 5 outside bounds [0, 1]\n"),
        ({"hyperplanes": {"H": {"a": ["7", "0", "1/5"], "b": ["0", "3/5", "1/5"]}}},
         ["render", "--figure", "hyperplane", "--hyperplane", "H"],
         "error: hyperplanes.H.a: value 7 outside bounds [0, 1]\n"),
    ],
    ids=["tight-diagram", "render-hyperplane"],
)
def test_matrix_and_hyperplane_entries_are_bounded(capsys, tmp_path, section, argv, message):
    path = tmp_path / "entries.json"
    path.write_text(json.dumps({"schema": 1, **section}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", message)


MIN_ONLY_ARGV = {
    "segment": ["--x", "x", "--y", "y"],
    "distance": ["--x", "x", "--y", "y"],
    "semispaces": ["--point", "x"],
    "caratheodory": ["--point", "onhull", "--polytope", "X"],
    "colorful-weak": ["--point", "onhull", "--coloring", "tri"],
    "colorful-strong": ["--polytope", "X", "--coloring", "tri"],
    "separate-point": ["--point", "outside", "--polytope", "low"],
    "separate-box": ["--box", "B", "--polytope", "X"],
    "sep-condition": ["--box", "B", "--polytope", "X"],
    "separate-hyperplane": ["--point", "diag", "--polytope", "low"],
    "intsep": ["--pointset", "triple"],
    "tight-diagram": ["--matrix", "A"],
}

MAX_T_ARGV = {
    "hull-member": ["--point", "inside", "--polytope", "X"],
    "radon": ["--pointset", "line"],
    "helly": ["--family", "good"],
    "centerpoint": ["--pointset", "triple"],
    "tverberg": ["--pointset", "line", "--r", "2"],
    "render": ["--figure", "overview"],
}


def test_tnorm_policy_tests_cover_every_instance_command():
    handlers = cli.build_parser().get_default("_handlers")
    assert sorted([*MIN_ONLY_ARGV, *MAX_T_ARGV, "oracle-check"]) == sorted(handlers)


@pytest.mark.parametrize("command", sorted(MIN_ONLY_ARGV))
def test_min_only_command_rejects_other_tnorm(capsys, instance_path, command):
    argv = [command, instance_path, *MIN_ONLY_ARGV[command]]
    code, out, err = run(capsys, *argv, "--tnorm", "product")
    assert (code, out) == (1, "")
    assert err == (
        "error: %s is specific to min arithmetic; drop tnorm='product' or use the "
        "max-T subcommands (radon, helly, centerpoint, tverberg)\n" % command
    )
    code, doc, _ = run_json(capsys, *argv, "--tnorm", "min")
    assert (code, doc["status"]) == (0, "ok")


@pytest.mark.parametrize("command", sorted(MAX_T_ARGV))
def test_max_t_command_accepts_other_tnorm(capsys, instance_path, intervals_path, command):
    path = intervals_path if command in ("radon", "tverberg") else instance_path
    code, out, err = run(capsys, command, path, *MAX_T_ARGV[command], "--tnorm", "product")
    assert (code, err) == (0, "")
    assert out


def test_intsep_on_the_bounds_names_the_widened_bounds(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(
        {"schema": 1, "pointsets": {"S": [["0", "1/2"], ["1/2", "1/4"], ["3/4", "3/4"]]}}
    ))
    code, out, err = run(capsys, "intsep", str(path), "--pointset", "S")
    assert (code, out) == (1, "")
    assert err == (
        "error: row 0 has coordinate 0 on or outside the bounds [0, 1]; rerun with "
        "the widened bounds [-1, 2] (bounds.extended())\n"
    )
    code, doc, _ = run_json(capsys, "intsep", str(path), "--pointset", "S", "--bounds", "-1", "2")
    assert (code, doc["status"]) == (0, "ok")


# ---------------------------------------------------------------------------
# errors: exit 1
# ---------------------------------------------------------------------------


def test_schema_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": {"p": ["0.5"]}}')
    code, out, err = run(capsys, "semispaces", str(path), "--point", "p")
    assert code == 1
    assert "error:" in err and "schema" in err


numerals = st.one_of(
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 3)),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,3})?", fullmatch=True),
    st.text(alphabet="0123456789/.-e ", max_size=6),
    st.integers(-3, 3),
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    numeral=numerals,
    slot=st.sampled_from(["point", "bounds", "grid_step", "--bounds", "--grid-step"]),
)
def test_fuzzed_numerals_never_raise(capsys, tmp_path, numeral, slot):
    doc_in = {
        "schema": 1, "points": {"p": ["0.5", "0.5"]}, "polytopes": {"X": [["0.2", "0.8"]]}
    }
    argv = []
    if slot == "point":
        doc_in["points"]["p"] = [numeral, "0.5"]
    elif slot == "bounds":
        doc_in["bounds"] = ["0", numeral]
    elif slot == "grid_step":
        doc_in["grid_step"] = numeral
    else:
        argv = [slot] + (["0"] if slot == "--bounds" else []) + [str(numeral)]
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc_in))
    code, out, err = run(
        capsys, "hull-member", str(path), "--point", "p", "--polytope", "X", *argv
    )
    # hull-member answers yes or no, so 2 never occurs
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1 and err.startswith("usage:"):
        # argparse reads an option value such as "-e" as an option: a usage error
        assert ": error: " in err.splitlines()[-1]
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not err.startswith("error: internal error")


FUZZ_BASE = {
    "schema": 1,
    "dimension": 2,
    "points": {"p": ["1/2", "1/2"], "q": ["1/5", "3/5"], "far": ["9/10", "1/10"]},
    "pointsets": {
        "three": [["9/10", "7/10"], ["3/5", "1/2"], ["3/10", "1/10"]],
        "four": [["7/10", "1/5"], ["1/5", "7/10"], ["1/2", "1/2"], ["9/10", "9/10"]],
    },
    "polytopes": {"X": [["1/5", "4/5"], ["4/5", "1/5"]], "L": [["1/10", "1/10"], ["3/10", "1/5"]]},
    "boxes": {"B": {"lower": ["0", "0"], "upper": ["3/10", "3/10"]}},
    "matrices": {"A": [["9/10", "1/10"], ["4/5", "3/10"], ["1/2", "2/5"]]},
    "hyperplanes": {"H": {"a": ["3/5", "0", "1/5"], "b": ["0", "3/5", "1/5"]}},
    "families": {"F": ["X", "L"]},
    "colorings": {"K": [[["1/5", "4/5"]], [["4/5", "1/5"]], [["1/2", "1/2"]]]},
}

FUZZ_COMMANDS = [
    ["segment", "--x", "p", "--y", "q"],
    ["distance", "--x", "p", "--y", "q"],
    ["semispaces", "--point", "p"],
    ["hull-member", "--point", "p", "--polytope", "X"],
    ["caratheodory", "--point", "p", "--polytope", "X"],
    ["colorful-weak", "--point", "p", "--coloring", "K"],
    ["colorful-strong", "--polytope", "X", "--coloring", "K"],
    ["separate-point", "--point", "far", "--polytope", "L"],
    ["separate-box", "--box", "B", "--polytope", "X"],
    ["sep-condition", "--box", "B", "--polytope", "X"],
    ["separate-hyperplane", "--point", "p", "--polytope", "L"],
    ["intsep", "--pointset", "three"],
    ["tight-diagram", "--matrix", "A"],
    ["radon", "--pointset", "four"],
    ["helly", "--family", "F"],
    ["centerpoint", "--pointset", "four"],
    ["tverberg", "--pointset", "four", "--r", "2"],
    ["render", "--figure", "overview"],
]

# wrong JSON types, empty values, nested lists, objects and unknown names
FUZZ_JUNK = [None, True, False, 0, 7, "1/2", "Z", "", [], {}, [[]], [["1/2"]],
             [[["1/2"]]], {"Z": "1/2"}, ["1/2", ["1/2"]]]


def _nodes(node):
    """Every (container, key) pair below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def _fault(doc, data):
    """One structural fault at a random node of doc, in place."""
    parent, key = data.draw(st.sampled_from(list(_nodes(doc))))
    kind = data.draw(st.sampled_from(["replace", "delete", "extra", "shorten", "empty", "rename"]))
    value = parent[key]
    junk = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_JUNK))))
    if kind == "replace":
        parent[key] = junk
    elif kind == "delete":
        del parent[key]
    elif kind == "extra" and isinstance(parent, dict):
        parent["Z"] = junk
    elif kind == "extra":
        parent.append(junk)
    elif kind == "shorten" and isinstance(value, list) and value:
        value.pop()  # a ragged row, a short point list or an empty section
    elif kind == "empty":
        parent[key] = type(value)() if isinstance(value, (dict, list)) else ""
    elif kind == "rename" and isinstance(parent, dict):
        parent["Z"] = parent.pop(key)
    elif kind == "rename":
        parent[key] = "Z"


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), faults=st.integers(1, 3))
def test_malformed_documents_get_an_answer_or_an_error(capsys, tmp_path, data, faults):
    doc_in = json.loads(json.dumps(FUZZ_BASE))
    for _ in range(faults):
        _fault(doc_in, data)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc_in))
    svg = str(tmp_path / "fuzz.svg")
    for command in FUZZ_COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        code, out, err = run(capsys, *argv, *(["--svg", svg] if command[0] == "render" else []))
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err and "internal" not in err, (argv, err)
        if out:
            doc = loads(out)
            assert doc["status"] != "internal-error", (argv, doc)
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_exit_1(capsys, instance_path):
    # argparse reads "-e" as an option, so --bounds is left one value short
    code, out, err = run(
        capsys, "hull-member", instance_path, "--point", "p", "--polytope", "X",
        "--bounds", "0", "-e",
    )
    assert code == 1 and out == ""
    assert err.startswith("usage: maxminconv hull-member")
    assert err.endswith("error: argument --bounds: expected 2 arguments\n")
    code, out, err = run(capsys, "no-such-command", instance_path)
    assert code == 1 and "invalid choice" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: maxminconv" in capsys.readouterr().out


def test_cached_parser_keeps_calls_apart(capsys, instance_path, intervals_path, monkeypatch):
    """One process, many calls: no option or usage error leaks into the next call."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    calls = [
        ["helly", instance_path, "--family", "apart", "--tnorm", "product", "--grid-step", "1/4"],
        ["helly", instance_path, "--family", "apart"],
        ["semispaces", instance_path, "--point", "inside", "--bounds", "1/2", "1"],
        ["semispaces", instance_path, "--point", "inside"],
        ["intsep", instance_path, "--pointset", "sorted3", "--sorted"],
        ["intsep", instance_path, "--pointset", "sorted3"],
        ["tverberg", intervals_path, "--pointset", "five", "--r", "3"],
        ["tverberg", intervals_path, "--pointset", "five"],
        ["tverberg", intervals_path, "--pointset", "line", "--r", "2"],
        ["hull-member", instance_path, "--point", "p", "--polytope", "X", "--bounds", "0", "-e"],
        ["hull-member", instance_path, "--point", "inside", "--polytope", "X"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        proc = run_python("-m", "maxminconv.cli", *argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [2, 2, 1, 0, 0, 0, 0, 1, 0, 1, 0]
    # each option shows in its call's document, so a leak would show in the next
    for first, second in [(0, 1), (2, 3), (6, 8)]:
        assert in_process[first][1] != in_process[second][1]


def test_benchmark_lookups_resolve():
    """Every entry point the benchmark looks up by name still exists.

    ``perfbench/spans.py`` traces the entry points in ``SPANS`` by module
    and attribute name (a bare "*" traces a whole module), and
    ``perfbench/run.py`` records ``_kernels.backend_name()`` in every
    run's details line.
    """
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, targets in spans.SPANS.items():
        for modname, attr in targets:
            module = importlib.import_module("maxminconv." + modname)
            assert attr == "*" or callable(getattr(module, attr, None)), (name, modname, attr)
    from maxminconv import _kernels

    assert isinstance(_kernels.backend_name(), str)


def test_cli_commands_do_not_import_numpy(instance_path, intervals_path):
    script = (
        "import json, sys\n"
        "from maxminconv import cli\n"
        "codes = [cli.main(a) for a in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    calls = [
        ["radon", intervals_path, "--pointset", "line"],
        ["helly", instance_path, "--family", "good", "--tnorm", "product"],
        ["oracle-check", "--trials", "8"],
    ]
    proc = run_python("-c", script, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "numpy": False}


def test_zero_denominator_is_an_input_error(capsys, instance_path, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"schema": 1, "points": {"p": ["1/0", "0"]}}))
    code, out, err = run(capsys, "semispaces", str(path), "--point", "p")
    assert code == 1
    assert err == "error: points.p[0]: zero denominator in '1/0'\n"
    code, out, err = run(
        capsys, "semispaces", instance_path, "--point", "inside", "--bounds", "0", "1/0"
    )
    assert code == 1
    assert err == "error: bounds[1]: zero denominator in '1/0'\n"


def _pair(x):
    return '{"schema": 1, "points": {"x": [%s, "1/2"], "y": ["1/5", "3/10"]}}' % x


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (_pair('"1e5000"'), ["segment", "--x", "x", "--y", "y"],
         "points.x[0]: exponent 5000 in '1e5000' is beyond the 1000 accepted"),
        (_pair('"1e-5000"'), ["segment", "--x", "x", "--y", "y"],
         "points.x[0]: exponent -5000 in '1e-5000' is beyond the 1000 accepted"),
        (_pair('"1e-5000"'), ["distance", "--x", "x", "--y", "y"],
         "points.x[0]: exponent -5000 in '1e-5000' is beyond the 1000 accepted"),
        (json.dumps(INTERVALS),
         ["radon", "--pointset", "line", "--tnorm", "product", "--grid-step", "1e-5000"],
         "grid_step: exponent -5000 in '1e-5000' is beyond the 1000 accepted"),
        ('{"schema": 1, "pointsets": {"line": [["1/2"], ["1e-20000000"], ["9/10"]]}}',
         ["radon", "--pointset", "line"],
         "pointsets.line[1][0]: exponent -20000000 in '1e-20000000' is beyond the 1000 accepted"),
        (_pair("1" * 5001), ["segment", "--x", "x", "--y", "y"],
         "points.x[0]: numeral of 5001 characters, more than the 1000 accepted"),
        (_pair("1e5000"), ["segment", "--x", "x", "--y", "y"],
         "points.x[0]: exponent 5000 in '1e5000' is beyond the 1000 accepted"),
    ],
    ids=[
        "segment-1e5000", "segment-1e-5000", "distance-1e-5000", "grid-step-1e-5000",
        "radon-1e-20000000", "bare-5001-digit-integer", "bare-1e5000",
    ],
)
def test_numerals_that_cannot_be_printed_back_are_refused(capsys, tmp_path, text, argv, message):
    path = tmp_path / "huge.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_over_fine_grid_step_is_refused_before_it_is_built(capsys, intervals_path):
    argv = ("radon", intervals_path, "--pointset", "line", "--tnorm", "product")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--grid-step", "1/100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == (
        "error: grid step 1/100000000 puts 100000001 values in [0, 1], "
        "more than the 10001 a search accepts\n"
    )
    code, doc, _ = run_json(capsys, *argv, "--grid-step", "1/10000")
    assert code == 0
    assert doc["result"]["witness"] == ["1/2"]


def test_deeply_nested_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"schema": 1, "points": {"p": %s%s}}' % ("[" * 100000, "]" * 100000))
    code, out, err = run(capsys, "semispaces", str(path), "--point", "p")
    assert (code, out, err) == (1, "", "error: instance file nests too deeply\n")


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "semispaces", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error:" in err


def test_unknown_name_lists_available(capsys, instance_path):
    code, out, err = run(
        capsys, "hull-member", instance_path, "--point", "ghost", "--polytope", "X"
    )
    assert code == 1
    assert "ghost" in err and "inside" in err


def test_wrong_tverberg_cardinality(capsys, intervals_path):
    code, out, err = run(
        capsys, "tverberg", intervals_path, "--pointset", "line", "--r", "3"
    )
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_segment_to_stdout_is_raw_svg(capsys, instance_path):
    code, out, err = run(
        capsys, "render", instance_path, "--figure", "segment", "--x", "x", "--y", "y"
    )
    assert code == 0
    assert out.startswith("<svg")
    assert out.endswith("</svg>\n")
    assert "polyline" in out


def test_render_is_byte_deterministic(capsys, instance_path):
    argv = ["render", instance_path, "--figure", "segment", "--x", "x", "--y", "y"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_render_to_file(capsys, instance_path, tmp_path):
    target = tmp_path / "figure.svg"
    code, doc, _ = run_json(
        capsys,
        "render",
        instance_path,
        "--figure",
        "overview",
        "--svg",
        str(target),
    )
    assert code == 0
    assert doc["result"]["written"] == str(target)
    text = target.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")


def test_render_hyperplane_figure(capsys, instance_path):
    code, out, _ = run(
        capsys, "render", instance_path, "--figure", "hyperplane", "--hyperplane", "H"
    )
    assert code == 0
    assert out.startswith("<svg")


def test_render_semispaces_figure(capsys, instance_path):
    code, out, _ = run(
        capsys, "render", instance_path, "--figure", "semispaces", "--point", "inside"
    )
    assert code == 0
    assert out.startswith("<svg")


def _svg_value(canvas_px: str, axis: int) -> Fraction:
    """The carrier value of a pixel coordinate on the unit square."""
    from maxminconv.render import INNER, MARGIN, SIZE

    px = Fraction(canvas_px)
    return (px - MARGIN if axis == 0 else SIZE - MARGIN - px) / INNER


@pytest.mark.parametrize("anchor", [("1/4", "3/4"), ("3/4", "1/4")])
def test_render_semispaces_regions_hold_their_semispace(capsys, tmp_path, anchor):
    """Off the diagonal each region group covers exactly its semispace.

    The regions are read back from the SVG and sampled on a grid that
    avoids the anchor's lines: a sample lies in some region of index i
    exactly when it lies in the semispace of index i.  The two anchors
    put the other coordinate in the tail of index 2 and of index 1.
    """
    from maxminconv.geometry import point
    from maxminconv.semispaces import SemispaceId, semispace_contains

    path = tmp_path / "anchor.json"
    path.write_text(json.dumps({"schema": 1, "points": {"p": list(anchor)}}))
    code, out, _ = run(capsys, "render", str(path), "--figure", "semispaces", "--point", "p")
    assert code == 0
    groups = re.findall(r'<g class="semispace" data-index="(\d+)">(.*?)</g>', out, re.S)
    assert [int(i) for i, _ in groups] == [0, 1, 2]
    p = point(*anchor)
    samples = [point(Fraction(a, 32), Fraction(b, 32)) for a in range(1, 32, 2)
               for b in range(1, 32, 2)]
    for index, body in groups:
        rects = []
        for coords in re.findall(r'<polygon points="([^"]*)"', body):
            corners = [c.split(",") for c in coords.split()]
            xs = [_svg_value(x, 0) for x, _ in corners]
            ys = [_svg_value(y, 1) for _, y in corners]
            rects.append((min(xs), max(xs), min(ys), max(ys)))
        s = SemispaceId(p, int(index))
        for q in samples:
            drawn = any(x0 < q[0] < x1 and y0 < q[1] < y1 for x0, x1, y0, y1 in rects)
            assert drawn == semispace_contains(s, q), (index, q)


def test_render_segment_marks_the_corner_of_incomparable_endpoints(capsys, instance_path):
    """Incomparable endpoints get the corner m = x v y drawn as a dot; comparable ones do not."""
    code, out, _ = run(
        capsys, "render", instance_path, "--figure", "segment", "--x", "x", "--y", "outside"
    )
    assert code == 0
    # m = (9/10, 1/2) on the 512 px canvas
    assert '<circle cx="448.000" cy="256.000" r="3" fill="#777777"/>' in out
    assert ">m</text>" in out
    code, out, _ = run(
        capsys, "render", instance_path, "--figure", "segment", "--x", "x", "--y", "y"
    )
    assert code == 0
    assert ">m</text>" not in out


# ---------------------------------------------------------------------------
# emission: one line of compact JSON per document
# ---------------------------------------------------------------------------


class _CountingJson:
    """Stands in for ``cli.json`` and counts the ``dumps`` calls."""

    def __init__(self):
        self.dumps_calls = 0

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(json, attr)


# case -> exit code, status, argv
EMITTED = {
    "ok": (0, "ok", ("radon", "{intervals}", "--pointset", "line")),
    "negative": (2, "negative", ("helly", "{instance}", "--family", "apart")),
    "verification-failed": (1, "verification-failed", ("radon", "{forged}", "--pointset", "radon")),
    "internal-error": (1, "internal-error", ("radon", "{intervals}", "--pointset", "line")),
    "oracle-check": (0, "ok", ("oracle-check", "--seed", "3", "--trials", "2")),
    "render --svg": (0, "ok", ("render", "{instance}", "--svg", "{svg}")),
}


@pytest.mark.parametrize("case", sorted(EMITTED))
def test_each_document_is_one_line_of_compact_json(
    capsys, tmp_path, monkeypatch, instance_path, intervals_path, case
):
    """Stdout is the compact form of its own JSON value, from one ``dumps`` call.

    The verification failure reuses the forged witness of the forward
    check; the internal error is the soundness alarm of a search that
    finds no common point.
    """
    from maxminconv import maxt

    expected_code, status, template = EMITTED[case]
    paths = {"instance": instance_path, "intervals": intervals_path,
             "svg": str(tmp_path / "figure.svg")}
    if case == "verification-failed":
        paths["forged"] = _forge_witness(tmp_path, monkeypatch)
    if case == "internal-error":
        monkeypatch.setattr(maxt, "_common_point", lambda search, groups: None)
    counter = _CountingJson()
    monkeypatch.setattr(cli, "json", counter)
    code, out, _ = run(capsys, *(arg.format(**paths) for arg in template))
    assert code == expected_code
    assert out == json.dumps(loads(out), separators=(",", ":")) + "\n"
    assert counter.dumps_calls == 1
    assert loads(out)["status"] == status

