"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

1. Runs every workload with `--tiny`, untraced and traced, and checks
   that the result line names exactly the metrics of BENCHMARK.json,
   each with its unit.
2. Feeds every checker a correct answer, which must pass, and corrupted
   answers, which must be rejected.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   perfbench/, which must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import prefixcodes.cli as cli  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Files  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)
        print("FAIL:", message)


def check_result_lines() -> None:
    for workload in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload["name"], "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=180)
            where = "%s trace %d" % (workload["name"], trace)
            expect(proc.returncode == 0, "%s exited %d: %s" % (
                where, proc.returncode, proc.stderr[-500:]))
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], where + ": result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   where + ": not correct or nothing attempted")
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, "%s: metrics/units differ: %s" % (
                where, set(got.items()) ^ set(wanted.items())))
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   where + ": a metric value is not a number")
    print("result lines checked")


def rejects(checker, op, rc, out, what: str) -> None:
    try:
        checker(op, rc, out)
    except (ref.WrongAnswer, ValueError, KeyError, TypeError):
        return
    expect(False, "checker accepted a corrupted answer: " + what)


def corrupt_json(out: str, change) -> str:
    doc = json.loads(out)
    change(doc)
    return json.dumps(doc)


def flip_first_codeword(doc) -> None:
    sym = next(iter(doc["code"]))
    word = doc["code"][sym]
    doc["code"][sym] = word[:-1] + ("1" if word[-1] == "0" else "0")


def swap_witness(doc) -> None:
    doc["witness"]["A"], doc["witness"]["B"] = (doc["witness"]["B"],
                                                doc["witness"]["A"])


def add_wrong_member(op) -> callable:
    start = ref.parse_label(op.expect["start"])
    weight = op.expect["weight"]
    bad = ref.label(_leaf_swap(start, weight))

    def change(doc):
        doc["members"].append(bad)
        doc["size"] += 1
    return change


def _leaf_swap(shape, weight):
    words = ref.codewords(shape)
    a, b = min(words, key=lambda s: (len(words[s]), -weight[s])), \
        max(words, key=lambda s: (len(words[s]), -weight[s]))
    words[a], words[b] = words[b], words[a]
    return ref.shape_of_code(words)


CORRUPTIONS = {  # check name -> [(description, applies, corrupt(op, rc, out))]
    "check_verify": [
        ("all_passed false", lambda op, out: True,
         lambda op, rc, out: (rc, corrupt_json(
             out, lambda d: d[0].update(all_passed=False)))),
        ("exit 1", lambda op, out: True, lambda op, rc, out: (1, out)),
    ],
    "check_check": [
        ("optimal flipped", lambda op, out: True,
         lambda op, rc, out: (rc, corrupt_json(
             out, lambda d: d.update(optimal=not d["optimal"])))),
        ("expected length off", lambda op, out: True,
         lambda op, rc, out: (rc, corrupt_json(
             out, lambda d: d.update(expected_length="1/7")))),
        ("witness A and B swapped",
         lambda op, out: json.loads(out)["witness"] is not None,
         lambda op, rc, out: (rc, corrupt_json(out, swap_witness))),
        ("exit code flipped", lambda op, out: True,
         lambda op, rc, out: (1 - rc, out)),
    ],
    "check_sync": [
        ("sync string emptied", lambda op, out: json.loads(out)["exists"],
         lambda op, rc, out: (rc, corrupt_json(
             out, lambda d: d.update(string="")))),
    ],
    "check_swaps": [
        ("closure gains a member of another class",
         lambda op, out: op.expect["mode"] == "closure",
         lambda op, rc, out: (rc, corrupt_json(out, add_wrong_member(op)))),
        ("certificate loses its last move",
         lambda op, out: (op.expect["mode"] == "reachable"
                          and json.loads(out)["certificate"]),
         lambda op, rc, out: (rc, corrupt_json(
             out, lambda d: d["certificate"].pop()))),
        ("unreachable target reported equivalent",
         lambda op, out: op.expect["mode"] == "unreachable",
         lambda op, rc, out: (0, json.dumps(
             {"equivalent": True, "certificate": []}))),
    ],
    "check_build": [
        ("one codeword bit flipped", lambda op, out: True,
         lambda op, rc, out: (rc, corrupt_json(out, flip_first_codeword))),
    ],
}


def check_checkers() -> None:
    used = set()
    for workload in WORKLOADS.values():
        workdir = run.WORK / "selftest" / workload.name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        files = Files(workdir)
        schedule = workload.build(random.Random(7), files, True)
        files.write()
        for op in schedule.rounds[0]:
            result = run.run_op(cli.main, workload, op)
            expect(result.failure is None, "%s failed: %s" % (
                op.kind, result.failure))
            for argv, checker, rc, out in result.steps:
                try:
                    checker(op, rc, out)
                except ref.WrongAnswer as exc:
                    expect(False, "correct answer rejected: %s" % exc)
                for what, applies, corrupt in CORRUPTIONS[checker.__name__]:
                    if applies(op, out):
                        used.add(what)
                        bad_rc, bad_out = corrupt(op, rc, out)
                        rejects(checker, op, bad_rc, bad_out,
                                "%s on %s" % (what, op.kind))
    every = {what for cases in CORRUPTIONS.values() for what, _, _ in cases}
    expect(used == every, "corruptions never tried: %s" % (every - used))
    print("checkers checked: %d corruptions" % len(used))


def check_bare_directory() -> None:
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + [
            "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect('"correct"' not in proc.stdout, "bare directory printed a result")
    shutil.rmtree(bare)
    print("bare directory checked")


if __name__ == "__main__":
    check_checkers()
    check_result_lines()
    check_bare_directory()
    print("selftest %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)
