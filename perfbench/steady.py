"""Steadiness test of the benchmark itself.

Runs every workload twice with the same seed and checks that the two runs
print the same answers digest and agree on every end-to-end metric within
the bound BENCHMARK.json gives it; then runs the traced mode twice and
checks that every per-layer count repeats exactly.  Run from the root of
a checkout::

    python3 perfbench/steady.py --seed 7

Exits 1 and names the metric when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count"}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        (info1, res1), (info2, res2) = (_run(workload, args.seed, spec["run_seconds"], 0)
                                        for _ in range(2))
        if info1["answers_digest"] != info2["answers_digest"]:
            problems.append("%s: answers digest differs" % workload)
        for name, bound in bounds.items():
            a, b = res1["metrics"][name]["value"], res2["metrics"][name]["value"]
            ok = abs(b - a) <= bound * abs(a)
            print("%-15s %-18s %12.6g %12.6g %s" % (workload, name, a, b, "ok" if ok else "OUT"))
            if not ok:
                problems.append("%s: %s moved from %g to %g, bound %g" % (workload, name, a, b, bound))
        (_, tr1), (_, tr2) = (_run(workload, args.seed, 1, 1) for _ in range(2))
        for name, m in tr1["metrics"].items():
            if m["unit"] in COUNT_UNITS and m["value"] != tr2["metrics"][name]["value"]:
                problems.append("%s: count %s differs between traced runs" % (workload, name))
        for res in (res1, res2, tr1, tr2):
            if not res["correct"]:
                problems.append("%s: a run reported incorrect answers" % workload)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
