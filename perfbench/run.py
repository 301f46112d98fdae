"""End-to-end benchmark of the maxminconv CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload witness-min --seed 1 --seconds 20 --trace 0

The runner builds the workload's seeded instance suite (see suite.py),
writes the instance files under ``.perfbench-work/`` and drives
``maxminconv.cli.main`` in process as a closed loop: one client, one
thread, each call started only after the previous one returned.  It
repeats whole passes over the suite until ``--seconds`` have passed (at
least ``MIN_PASSES``), times set-up in fresh ``python3`` processes
at moments spread over the run, re-checks every answer from outside the
program (checks.py) and prints one JSON line of run details followed by
one result line.

The latency and throughput figures are those of the closed loop over all
calls of one pass; a run reports their median over its passes, and
``setup_s`` the median of its set-up samples.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py, per pass; counts must repeat exactly
from one traced pass to the next.  The spans of the first traced pass
are written to ``.perfbench-out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

MIN_PASSES = 3
SETUP_RUNS = 12
CASE_LIMIT_S = 60.0
RUN_MARGIN_S = 135.0

END_TO_END = {
    "setup_s": "s", "instance_p50_ms": "ms", "instance_tail_ms": "ms",
    "throughput_ips": "1/s", "verified_ratio": "ratio", "exact_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_COUNTS = [
    "kernels.scan_common.calls", "kernels.scan_common.candidates",
    "maxt.common_point.calls", "maxt.common_point.hits",
    "maxt.member_exact.calls", "cli.verify.calls", "hull.hull_member.calls",
]
PER_LAYER = {
    **{name: "count" for name in PER_LAYER_COUNTS},
    "maxt.common_point.hit_ratio": "ratio",
    **{name + ".self_ms": "ms" for name in [*spans.SPANS, "cli.emit"]},
    "trace.overhead_ratio": "ratio",
}


class Watchdog:
    """Ends the process, naming the running instance, when a call hangs."""

    def __init__(self, run_limit_s: float) -> None:
        self.run_limit_s = run_limit_s
        self.started = time.monotonic()
        self.case = "set-up"
        self.case_start = self.started
        self.child: subprocess.Popen | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def enter(self, name: str) -> None:
        self.case, self.case_start = name, time.monotonic()

    def _watch(self) -> None:
        while not self._stop.wait(0.5):
            now = time.monotonic()
            if now - self.case_start > CASE_LIMIT_S or now - self.started > self.run_limit_s:
                # calls run with sys.stderr redirected, so write to fd 2
                os.write(2, ("watchdog: instance %s still running after %.0f s "
                             "(run %.0f s); failing the run\n"
                             % (self.case, now - self.case_start, now - self.started)).encode())
                child = self.child
                if child is not None:
                    child.kill()
                    child.wait()
                os._exit(3)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _import_package(root: Path):
    src = root / "src"
    if not (src / "maxminconv" / "__init__.py").is_file():
        sys.exit("error: %s/maxminconv not found; run from the root of a checkout" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import maxminconv.cli

    if not Path(maxminconv.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit("error: imported maxminconv from %s, not %s" % (maxminconv.__file__, src))
    return maxminconv.cli


def _call(cli, argv: list[str]):
    """One closed-loop call: (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught exception is a failed instance
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue().strip()


def _setup(root: Path, workload: str, seed: int, work: Path):
    """Import, build the suite, write its files and warm up every command."""
    cli = _import_package(root)
    import suite

    cases = suite.build(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argvs = []
    for i, case in enumerate(cases):
        path = work / ("%03d-%s.json" % (i, case.name))
        if case.doc is not None:
            path.write_text(json.dumps(case.doc), encoding="utf-8")
        argvs.append([str(path) if a == "{path}" else a for a in case.argv])
    seen = set()
    for case, argv in zip(cases, argvs):
        if case.argv[0] not in seen:
            seen.add(case.argv[0])
            _call(cli, argv)
    return cli, cases, argvs


def _setup_sample(root: Path, args, dog: Watchdog) -> float:
    """Set-up time of a fresh ``python3`` process, as that process measured it."""
    dog.enter("set-up")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    dog.child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = dog.child.communicate()
        code = dog.child.returncode
    finally:
        dog.child = None
    if code != 0:
        sys.exit("error: set-up in a fresh process exited with %d" % code)
    return float(out.strip().splitlines()[-1])


def _pass(cli, cases, argvs, dog: Watchdog):
    """One pass of the closed loop: per-call times, results and the pass's wall time."""
    times, results = [], []
    start = time.perf_counter()
    for case, argv in zip(cases, argvs):
        dog.enter(case.name)
        elapsed, code, out, err = _call(cli, argv)
        times.append(elapsed)
        results.append((code, out, err))
    wall = time.perf_counter() - start
    dog.enter("between passes")
    return times, results, wall


def _parse(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return out


def _judge(cases, results):
    """Outside checks of one pass.

    Returns per-case problems, whether each case is an exact determination,
    whether it is a wrong answer (an answer the program stood behind with
    exit 0 or 2 that fails its outside check) and the answers digest.
    """
    import checks

    digest = hashlib.sha256()
    problems, exact, wrong = [], [], []
    for case, (code, out, err) in zip(cases, results):
        parsed = _parse(out)
        if isinstance(parsed, dict):
            parsed.pop("instance", None)
            canon = json.dumps(parsed, sort_keys=True)
        else:
            canon = parsed
        digest.update(json.dumps([case.name, code, canon]).encode())
        probs = []
        if code not in case.expect:
            probs.append("exit %r not in %s: %s" % (code, sorted(case.expect), err[:200]))
        else:
            try:
                probs += checks.check(case, case.doc, parsed)
            except Exception as exc:  # a malformed answer fails its instance
                probs.append("re-check raised %s: %s" % (type(exc).__name__, exc))
        problems.append(probs)
        exact.append(not probs and checks.is_exact(code, parsed))
        wrong.append(bool(probs) and code in (0, 2))
    return problems, exact, wrong, digest.hexdigest()


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def _env(seed: int) -> dict:
    import numpy
    from maxminconv import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.backend_name(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "cpu": cpu,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("witness-min", "witness-grid", "exact-geometry"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time in seconds and exit")
    args = ap.parse_args()

    root = Path.cwd()
    work = root / ".perfbench-work" / str(os.getpid())
    if args.setup_only:
        try:
            start = time.perf_counter()
            _setup(root, args.workload, args.seed, work)
            print(repr(time.perf_counter() - start))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    dog = Watchdog(args.seconds + RUN_MARGIN_S)
    try:
        report = _measure(args, root, work, dog)
    finally:
        dog.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    info = {k: v for k, v in report.items() if k != "metrics"}
    info.update(workload=args.workload, env=_env(args.seed))
    print(json.dumps(info, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def _measure(args, root: Path, work: Path, dog: Watchdog) -> dict:
    cli, cases, argvs = _setup(root, args.workload, args.seed, work)
    setups = []
    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        if len(setups) < SETUP_RUNS and now >= deadline - args.seconds * (
                1 - len(setups) / SETUP_RUNS):
            # spread the set-up samples over the run, so that they cover
            # more than one moment of a machine whose speed drifts
            setups.append(_setup_sample(root, args, dog))
        passes.append(_pass(cli, cases, argvs, dog))
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, results, wall = _pass(cli, cases, argvs, dog)
            finally:
                tracer.uninstall()
            traced.append((tracer, wall, results))
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    problems, exact, wrong, digest = _judge(cases, passes[0][1])
    outputs = [results for _, results, _ in passes] + [results for _, _, results in traced]
    unstable = [c.name for i, c in enumerate(cases)
                if any(r[i] != outputs[0][i] for r in outputs)]
    failing = [bool(p) or c.name in unstable for c, p in zip(cases, problems)]
    attempted = len(cases) * len(outputs)
    failed = sum(failing) * len(outputs)

    # closed-loop figures of each pass over all of its calls, reported as
    # their median over the passes, which damps the drift of a shared
    # machine's speed.  The tail is taken per pass too: over all calls of a
    # run its percentile would move with the number of passes, and with it
    # the cases it lands on
    p50 = [statistics.median(times) * 1e3 for times, _, _ in passes]
    tails = [_tail(times) for times, _, _ in passes]
    tput = [len(cases) / wall for _, _, wall in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "instance_p50_ms": statistics.median(p50),
        "instance_tail_ms": statistics.median(t for t, _ in tails) * 1e3,
        "throughput_ips": statistics.median(tput),
        "verified_ratio": (attempted - failed) / attempted,
        "exact_ratio": sum(exact) / len(cases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "answers_digest": digest,
        "passes": len(passes),
        "cases": len(cases),
        "tail_percentile": tails[0][1],
        "tail_samples_per_pass": len(cases),
        "failed_ratio": failed / attempted,
        "failed_cases": {c.name: p for c, p in zip(cases, problems) if p},
        "unstable_cases": unstable,
        "setup_runs_s": setups,
        "pass_p50_ms": p50,
        "pass_tail_ms": [t * 1e3 for t, _ in tails],
        "pass_throughput_ips": tput,
        "case_median_ms": {c.name: statistics.median(p[0][i] for p in passes) * 1e3
                           for i, c in enumerate(cases)},
    }
    counts_stable = True
    if traced:
        summaries = [t.summary() for t, _, _ in traced]
        counts = summaries[0][0]
        counts_stable = all(s[0] == counts for s in summaries)
        for name in PER_LAYER_COUNTS:
            metrics[name] = counts.get(name, 0)
        calls, hits = counts.get("maxt.common_point.calls", 0), counts.get("maxt.common_point.hits", 0)
        metrics["maxt.common_point.hit_ratio"] = hits / calls if calls else 0.0
        for name in [*spans.SPANS, "cli.emit"]:
            metrics[name + ".self_ms"] = statistics.median(s[1].get(name, 0.0) for s in summaries)
        metrics["trace.overhead_ratio"] = (statistics.median(w for _, w, _ in traced)
                                           / statistics.median(w for _, _, w in passes))
        out_dir = Path.cwd() / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        traced[0][0].dump(str(out_dir / ("spans-%s.json" % args.workload)))
        report["counts_stable"] = counts_stable
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  correct=not any(wrong) and not unstable and counts_stable)
    return report


if __name__ == "__main__":
    sys.exit(main())
