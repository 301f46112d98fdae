"""Answer digests of the benchmark suites, for comparing two checkouts.

For each workload and seed this builds the suite of ``perfbench/suite.py``
(from the checkout holding this script), runs every case through
``maxminconv.cli.main`` in this process, and hashes the case name, the
exit code and stdout with the instance path masked.  It prints one
sha256 per workload and seed, then a total over all of them.  Two
checkouts answer alike when their totals are equal::

    python3 tools/answers.py                      # this checkout
    python3 tools/answers.py --root ../parent     # another checkout's src/

Only the program under ``--root`` changes between the two runs; the
suites are the same.  With ``--expect HEX`` it exits 1, printing both
hashes, when the total is not HEX.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOADS = ("witness-min", "witness-grid", "exact-geometry")


def _digest(cli, cases, tmp: Path) -> str:
    digest = hashlib.sha256()
    for i, case in enumerate(cases):
        path = str(tmp / ("%03d.json" % i))
        if case.doc is not None:
            Path(path).write_text(json.dumps(case.doc), encoding="utf-8")
        argv = [path if a == "{path}" else a for a in case.argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        masked = out.getvalue().replace(json.dumps(path)[1:-1], "{path}")
        digest.update(json.dumps([case.name, code, masked]).encode())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=CHECKOUT,
                    help="checkout whose src/maxminconv answers (default: this one)")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--expect", metavar="HEX",
                    help="exit 1 unless the total equals HEX")
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path[:0] = [str(src), str(CHECKOUT / "perfbench")]
    import maxminconv.cli as cli
    import suite

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit("error: imported maxminconv from %s, not %s" % (cli.__file__, src))
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in args.seeds:
                line = "%s %d %s" % (workload, seed, _digest(cli, suite.build(workload, seed), Path(tmp)))
                total.update(line.encode())
                print(line)
    print("total", total.hexdigest())
    if args.expect is not None and total.hexdigest() != args.expect:
        print("error: total %s, expected %s" % (total.hexdigest(), args.expect), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
