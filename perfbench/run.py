"""Benchmark of the prefixcodes command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from `src/`.
Each op is an in-process call to `prefixcodes.cli.main(argv)` on files
generated from the seed, with stdout captured, in a closed loop (one
client, one thread).  Every op's output is checked after the timed
phase against the references in `reference.py`; a wrong answer exits 1
without a result.  An op fails (and is counted, not aborted) when a
step exits 3 or raises.

With `--trace 0` the run is timed untraced and reports the end-to-end
metrics.  The timed phase runs whole rounds of the schedule (see
`workloads.py`), so every run has the same op mix.  Every time it
reports is scaled to a nominal host speed, timed next to each op (see
`speed.py`); the report also prints the unscaled figures.  With
`--trace 1` it runs each op twice, untraced and with every public
function wrapped in spans (see `tracing.py`), and reports the
per-layer metrics and the tracing overhead.  The last line
of stdout is the JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 9
WARMUP_S = 1.0

# Guard messages of exit code 3, mapped to the layer that tripped.
GUARD_CAUSES = (
    ("distinct Huffman trees exceed cap", "huffman.cap_exceeded"),
    ("state subsets", "sync.subset_cap_exceeded"),
    ("the subset search supports", "sync.subset_cap_exceeded"),
    ("closure cap", "swaps.truncated"),
    ("symbols", "alphabet_too_large"),
)


class Result:
    __slots__ = ("op", "seconds", "scaled", "steps", "failure")

    def __init__(self, op, seconds, steps, failure):
        self.op = op
        self.seconds = seconds
        self.scaled = seconds     # at the nominal host speed
        self.steps = steps        # [(argv, checker, exit code, stdout)]
        self.failure = failure    # None or "exit <code>: <cause>"


def run_op(main, workload, op) -> Result:
    """Run every step of one op; stop at the first failing step."""
    steps = []
    failure = None
    t0 = time.perf_counter()
    for argv, checker in workload.steps(op):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # an uncaught crash is a failed op
            failure = "crash: %s" % type(exc).__name__
            break
        if rc == 3:
            cause = next((c for text, c in GUARD_CAUSES
                          if text in err.getvalue()), "other_guard")
            failure = "exit 3: %s" % cause
            break
        steps.append((argv, checker, rc, out.getvalue()))
    return Result(op, time.perf_counter() - t0, steps, failure)


def warm_up(workload, schedule) -> None:
    """Run ops of the last round, uncounted, for WARMUP_S."""
    import prefixcodes.cli as cli
    warm_until = time.perf_counter() + WARMUP_S
    for op in schedule.rounds[-1]:
        run_op(cli.main, workload, op)
        if time.perf_counter() >= warm_until:
            break


def run_pass(workload, schedule, seconds: float, speed) -> List[Result]:
    """Closed loop over whole rounds of `schedule` for about `seconds`.

    A round starts only if a round as long as the last one still ends
    within `seconds`.  Each op's time is also scaled by the speed slices
    timed right before and right after it.
    """
    import prefixcodes.cli as cli
    from speed import scale
    results = []
    t_start = time.perf_counter()
    before = speed.slice()
    for ops in schedule.cycle():
        t_round = time.perf_counter()
        for op in ops:
            result = run_op(cli.main, workload, op)
            after = speed.slice()
            result.scaled = result.seconds * scale(before, after)
            before = after
            results.append(result)
        now = time.perf_counter()
        if now + (now - t_round) - t_start > seconds:
            break
    return results


def run_traced_pairs(workload, ops, seconds: float, tracer):
    """Run each op untraced and traced, until `seconds` pass.

    The two runs of an op are adjacent, and which goes first alternates,
    so drift in machine speed and any cost of running second stay out
    of the overhead ratio.  Returns (untraced results, traced results).
    """
    import prefixcodes.cli as cli
    untraced, traced = [], []
    t_start = time.perf_counter()
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        for with_trace in (op_id % 2 == 1, op_id % 2 == 0):
            if with_trace:
                tracer.install()
            try:
                result = run_op(cli.main, workload, op)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else untraced).append(result)
        if time.perf_counter() - t_start >= seconds:
            break
    return untraced, traced


def check_results(results: List[Result]) -> None:
    from reference import WrongAnswer
    for res in results:
        for argv, checker, rc, out in res.steps:
            try:
                checker(res.op, rc, out)
            except (WrongAnswer, ValueError, KeyError, TypeError) as exc:
                raise WrongAnswer("%s (%s): %s" % (
                    " ".join(argv), res.op.kind, exc)) from None


def time_import() -> float:
    """Seconds for a fresh interpreter to import the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, %r); import prefixcodes.cli"
                    % str(SRC)], check=True)
    return time.perf_counter() - t0


def setup(workload, seed: int, tiny: bool):
    """Generate the inputs SETUP_REPEATS times; each repeat also times a
    fresh interpreter importing the package.  Each repeat's time is
    scaled by the speed slices timed right before and right after it.

    The inputs are generated in memory and written to disk once, after
    the repeats and untimed: writing some 500 small files took 30-180 ms
    and drifted with the host's disk load, and no version of the package
    can change it.  Returns the schedule, the median set-up time and
    the unscaled median.
    """
    from speed import Speed, scale
    from workloads import Files
    workdir = WORK / workload.name
    speed = Speed()
    times, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.slice()
        t_import = time_import()
        t0 = time.perf_counter()
        files = Files(workdir)
        schedule = workload.build(random.Random("%s/%d" % (workload.name, seed)),
                                  files, tiny)
        unscaled.append(t_import + time.perf_counter() - t0)
        times.append(unscaled[-1] * scale(before, speed.slice()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    files.write()
    return schedule, statistics.median(times), statistics.median(unscaled)


def percentiles_ms(results: List[Result], scaled: bool = True):
    lat = sorted((r.scaled if scaled else r.seconds) * 1000.0
                 for r in results)
    if len(lat) == 1:
        return lat[0], lat[0]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return deciles[4], deciles[8]


def describe(results: List[Result]) -> List[str]:
    """Input properties and per-class latency of the ops that ran."""
    lines = []
    ns = Counter(r.op.n for r in results)
    regimes = Counter(r.op.regime for r in results)
    share = statistics.fmean(r.op.tie_share for r in results)
    lines.append("inputs: n %s" % ", ".join(
        "%d x%d" % kv for kv in sorted(ns.items())))
    lines.append("inputs: regimes %s; mean tie share %.3f" % (
        ", ".join("%s x%d" % kv for kv in sorted(regimes.items())), share))
    by_kind: Dict[str, List[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.seconds * 1000.0)
    for kind, lat in sorted(by_kind.items()):
        lines.append("  %-44s x%-4d median %10.2f ms" % (
            kind, len(lat), statistics.median(lat)))
    return lines


def failures(results: List[Result]) -> List[str]:
    counts = Counter((r.failure, r.op.kind) for r in results if r.failure)
    return ["failed: %s x%d (%s)" % (cause, num, kind)
            for (cause, kind), num in sorted(counts.items())]


def emit(lines: List[str], results: List[Result], metrics: Dict[str, tuple],
         workdir: Path) -> None:
    attempted = len(results)
    failed = sum(1 for r in results if r.failure)
    lines += failures(results)
    lines.append("attempted %d, failed %d, failed_ratio %.4f" % (
        attempted, failed, failed / attempted))
    for name, (value, unit) in metrics.items():
        lines.append("%-50s %14.6g %s" % (name, value, unit))
    report = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (workdir / "result.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(json.dumps(report))


def run_all(args) -> int:
    """Run every workload, each in its own fresh process, in turn.

    Prints each workload's report; the last line merges their results,
    with metric names prefixed by the workload.
    """
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(("%s.%s" % (name, key), value)
                                 for key, value in result["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import prefixcodes.cli  # noqa: F401
    except ImportError as exc:
        print("perfbench: cannot import prefixcodes from %s: %s"
              % (SRC, exc), file=sys.stderr)
        return 2
    from reference import WrongAnswer
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload,
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    schedule, setup_s, setup_unscaled = setup(workload, args.seed, args.tiny)
    workdir = WORK / workload.name
    lines = ["workload %s, seed %d: %s" % (workload.name, args.seed,
                                           workload.why)]
    if not args.trace:
        from speed import Speed
        speed = Speed()
        warm_up(workload, schedule)
        t0 = time.perf_counter()
        results = run_pass(workload, schedule, args.seconds, speed)
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = results
        p50, p90 = percentiles_ms(results)
        failed = sum(1 for r in results if r.failure)
        busy = sum(r.seconds for r in results)
        metrics = {
            "ops_per_s": (len(results) / sum(r.scaled for r in results),
                          "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "completed_ratio": (1 - failed / len(results), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        raw50, raw90 = percentiles_ms(results, scaled=False)
        lines.append("latency samples %d over %.2f s (%d beyond p90)"
                     % (len(results), wall, len(results) // 10))
        lines.append("speed slices: median %.3f ms, min %.3f, max %.3f; "
                     "unscaled ops_per_s %.4g, p50 %.4g ms, p90 %.4g ms, "
                     "setup_s %.4g"
                     % (statistics.median(speed.slices) * 1000,
                        min(speed.slices) * 1000, max(speed.slices) * 1000,
                        len(results) / busy, raw50, raw90, setup_unscaled))
        if len(results) < 100:
            print("perfbench: under 100 samples; p90 has under 10 beyond it",
                  file=sys.stderr)
    else:
        from tracing import Tracer, per_layer_units
        tracer = Tracer()
        untraced, results = run_traced_pairs(workload, schedule.ops(),
                                             args.seconds, tracer)
        tracer.write(workdir / "spans")
        checked = untraced + results
        untraced_s = sum(r.seconds for r in untraced)
        traced_s = sum(r.seconds for r in results)
        values = tracer.metrics(statistics.median(
            t.seconds / u.seconds for u, t in zip(untraced, results)) - 1)
        metrics = {name: (values[name], unit)
                   for name, unit in per_layer_units().items()}
        lines.append("traced %d ops: %d spans, %.2f s traced vs %.2f s "
                     "untraced" % (len(results), len(tracer.start),
                                   traced_s, untraced_s))
    lines += describe(results)
    t0 = time.perf_counter()
    try:
        check_results(checked)
    except WrongAnswer as exc:
        print("perfbench: WRONG ANSWER: %s" % exc, file=sys.stderr)
        return 1
    lines.append("checked %d ops in %.2f s" % (len(checked),
                                               time.perf_counter() - t0))
    emit(lines, results, metrics, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
