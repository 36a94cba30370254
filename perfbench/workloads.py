"""Seeded inputs, op schedules and output checks for the four workloads.

A schedule is a list of rounds, run in turn until the run's time is up.
Every round of a workload holds the same op classes in the same numbers;
the seed only draws the weights, the symbol order, codes and swap
targets.  So every round and every seed has the same cost structure, a
run of whole rounds has an exact op mix, and its latency percentiles
fall inside fixed op classes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

import reference as ref
from reference import require

ROUNDS = 12  # generated rounds; a run that needs more reuses them


@dataclass
class Op:
    kind: str               # op class, e.g. "verify n=5"
    argv: List[str]
    n: int
    tie_share: float
    regime: str
    expect: dict = field(default_factory=dict)


@dataclass
class Schedule:
    rounds: List[List[Op]]

    def cycle(self) -> Iterator[List[Op]]:
        while True:
            yield from self.rounds

    def ops(self) -> Iterator[Op]:
        for ops in self.cycle():
            yield from ops


def tie_share(weights: Sequence[int]) -> float:
    """Fraction of symbols whose weight another symbol shares."""
    counts: Dict[int, int] = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    return sum(1 for w in weights if counts[w] > 1) / len(weights)


class Files:
    """Numbered source and code files for one directory, held in memory
    until `write` puts them on disk."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.texts: Dict[str, str] = {}

    def _add(self, suffix: str, text: str) -> str:
        path = str(self.workdir / ("%05d.%s" % (len(self.texts) + 1, suffix)))
        self.texts[path] = text
        return path

    def source(self, symbols: Sequence[str], values: Sequence) -> str:
        return self._add("src", "".join(
            "%s %s\n" % (s, v) for s, v in zip(symbols, values)))

    def code(self, words: Dict[str, str]) -> str:
        return self._add("code", "".join(
            "%s %s\n" % kv for kv in words.items()))

    def write(self) -> None:
        for path, text in self.texts.items():
            Path(path).write_text(text)


def symbols_for(n: int) -> List[str]:
    return ["s%d" % i for i in range(n)]


def grouped_weights(rng: random.Random, pattern: Sequence[int],
                    top: int) -> List[int]:
    """Weights whose tie groups have the given sizes, shuffled."""
    values = rng.sample(range(1, top + 1), len(pattern))
    weights = [v for v, size in zip(values, pattern) for _ in range(size)]
    rng.shuffle(weights)
    return weights


def distinct_weights(rng: random.Random, n: int) -> List[int]:
    """n distinct weights from a range wide enough that merged sums
    (almost) never tie, so the merge loop has one choice per step."""
    return rng.sample(range(1, 1 << 20), n)


def draw(make, accept, what: str):
    """First value of `make()` that `accept` takes, within 1000 draws."""
    for _ in range(1000):
        value = make()
        if accept(value):
            return value
    raise RuntimeError("no acceptable %s in 1000 draws" % what)


# -- verify -----------------------------------------------------------------

F = Fraction
# The library's builtin verification corpus, restated, less `uniform5`
# (2.6 s), `tied6a` and `tied6b` (6-10 s): one such op would take a
# fifth to a third of a run.
CORPUS = {
    "coin": [F(1, 2), F(1, 2)],
    "dyadic4": [F(1, 2), F(1, 4), F(1, 8), F(1, 8)],
    "tied4": [F(3, 8), F(3, 8), F(1, 8), F(1, 8)],
    "thirds4": [F(1, 3), F(1, 3), F(1, 6), F(1, 6)],
    "ninths5": [F(1, 3), F(1, 3), F(1, 9), F(1, 9), F(1, 9)],
}
N4_PATTERNS = ((2, 1, 1), (2, 2), (3, 1), (4,))
N5_PATTERNS = ((2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2))


def _verify_op(files: Files, kind: str, regime: str, values) -> Op:
    den = lcm(*(F(v).denominator for v in values))
    weights = [int(F(v) * den) for v in values]
    path = files.source(symbols_for(len(values)), values)
    return Op(kind, ["verify", path, "--json"], len(values),
              tie_share(weights), regime, {"path": path})


def build_verify(rng: random.Random, files: Files, tiny: bool) -> Schedule:
    def corpus(name: str) -> Op:
        return _verify_op(files, "verify corpus n=%d" % len(CORPUS[name]),
                          "corpus", CORPUS[name])

    def seeded(patterns) -> Op:
        pattern = rng.choice(patterns)
        weights = grouped_weights(rng, pattern, 9)
        return _verify_op(files, "verify seeded n=%d ties %s" % (
            len(weights), "+".join(map(str, pattern))), "seeded-tied", weights)

    if tiny:
        return Schedule([[corpus("coin"), seeded(N4_PATTERNS)]])
    rounds = []
    for k in range(ROUNDS):
        # One n = 5 source per round, in turn; each takes about 1-1.7 s.
        big = (corpus("ninths5") if k % 5 == 4
               else seeded([N5_PATTERNS[k % 5]]))
        small = [corpus(name) for name in ("coin", "dyadic4", "tied4",
                                           "thirds4")]
        small += [seeded([pattern]) for pattern in N4_PATTERNS for _ in "abcd"]
        ops = [big] + small
        rng.shuffle(ops)
        rounds.append(ops)
    return Schedule(rounds)


def check_verify(op: Op, rc: int, out: str) -> None:
    require(rc == 0, "verify exited %d" % rc)
    report = json.loads(out)
    require(len(report) == 1 and report[0]["source"] == op.expect["path"],
            "verify reported the wrong source")
    require(report[0]["all_passed"] is True, "verify: all_passed is false")
    require(report[0]["checks"] and all(c["passed"]
                                        for c in report[0]["checks"]),
            "verify: a theorem check failed")


# -- check-sync -------------------------------------------------------------

def _perturbed(rng: random.Random, words: Dict[str, str],
               weight: Dict[str, int]):
    """Swap the codewords of a heavier shorter and a lighter longer symbol.

    The result is complete and strictly worse.  None if no such pair.
    """
    pairs = [(a, b) for a in words for b in words
             if len(words[a]) < len(words[b]) and weight[a] > weight[b]]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    out = dict(words)
    out[a], out[b] = words[b], words[a]
    return out


# Tie-heavy weight multisets (counts 1-4); one check-and-sync op on them
# takes 15-500 ms.  Drawn at random, tie-heavy sources vary 500-fold in
# cost at n = 8, which no run length averages out; the seed shuffles
# which symbol gets which weight.  (1, 1, 2, 2, 2, 2, 3, 4) is left out:
# at 0.8 s an op it would make p90 a class of its own.
TIED_MULTISETS = {
    6: ((1, 1, 1, 2, 2, 4), (1, 1, 2, 2, 3, 4)),
    7: ((1, 1, 1, 2, 2, 4, 4), (1, 1, 1, 3, 3, 3, 4)),
    8: ((1, 1, 1, 2, 2, 3, 4, 4),),
}


def shuffled(rng: random.Random, multiset: Sequence[int]) -> List[int]:
    weights = list(multiset)
    rng.shuffle(weights)
    return weights


def _check_sync_ops(rng: random.Random, files: Files, n: int, regime,
                    codes: Sequence[str]) -> List[Op]:
    """Ops on one source; `regime` is "distinct" or a tied multiset."""
    symbols = symbols_for(n)

    def make():
        if regime == "distinct":
            weights = distinct_weights(rng, n)
        else:
            weights = shuffled(rng, regime)
        weight = dict(zip(symbols, weights))
        huff = ref.codewords(ref.huffman_shape(symbols, weights))
        return weights, weight, huff, _perturbed(rng, huff, weight)

    weights, weight, huff, worse = draw(make, lambda v: v[3] is not None,
                                        "perturbable source")
    regime_name = "distinct" if regime == "distinct" else "tied"
    src = files.source(symbols, weights)
    ops = []
    for which in codes:
        words = huff if which == "huffman" else worse
        code = files.code(words)
        expect = {"weight": weight, "words": words,
                  "best": ref.weighted_length(
                      {s: len(w) for s, w in huff.items()}, weight)}
        ops.append(Op("check-sync %s n=%d %s" % (regime_name, n, which),
                      ["check", src, code, "--json"], n,
                      tie_share(weights), regime_name, expect))
    return ops


def build_check_sync(rng: random.Random, files: Files, tiny: bool
                     ) -> Schedule:
    both = ("huffman", "perturbed")
    if tiny:
        return Schedule([
            _check_sync_ops(rng, files, 6, "distinct", both)
            + _check_sync_ops(rng, files, 6, TIED_MULTISETS[6][0], both)])
    rounds = []
    for _ in range(ROUNDS):
        ops = []
        for n in (6, 7, 8, 9, 10, 10, 10, 12, 12):
            ops += _check_sync_ops(rng, files, n, "distinct", both)
        for multiset in (TIED_MULTISETS[6] + TIED_MULTISETS[7]
                         + TIED_MULTISETS[8]):
            ops += _check_sync_ops(rng, files, len(multiset), multiset, both)
        rng.shuffle(ops)
        rounds.append(ops)
    return Schedule(rounds)


def sync_argv(op: Op) -> List[str]:
    return ["sync"] + op.argv[1:]


def check_check(op: Op, rc: int, out: str) -> None:
    words, weight = op.expect["words"], op.expect["weight"]
    total = sum(weight.values())
    length = ref.weighted_length({s: len(w) for s, w in words.items()},
                                 weight)
    optimal = length == op.expect["best"]
    report = json.loads(out)
    require(rc == (0 if optimal else 1),
            "check exited %d for an %soptimal code"
            % (rc, "" if optimal else "non-"))
    require(report["optimal"] is optimal, "check: wrong 'optimal'")
    require(report["expected_length"] == str(F(length, total)),
            "check: wrong expected length")
    require(report["huffman_length"] == str(F(op.expect["best"], total)),
            "check: wrong Huffman length")
    require(report["complete"] is True and report["kraft_total"] == "1",
            "check: a complete code reported incomplete")
    witness = report["witness"]
    require((witness is None) == report["strongly_monotone"],
            "check: witness and strongly_monotone disagree")
    if witness is not None:
        ref.check_witness(words, weight, witness)


def check_sync(op: Op, rc: int, out: str) -> None:
    report = json.loads(out)
    require(rc == (0 if report["exists"] else 1), "sync: wrong exit code")
    require(report["explored_subsets"] >= 1, "sync: no subsets explored")
    if report["exists"]:
        require(ref.synchronizes(op.expect["words"], report["string"]),
                "sync: the string does not synchronize the decoder")


# -- swaps ------------------------------------------------------------------

KIND_SETS = (("parent", "prob"), ("row",), ("row", "prob"))


def _different_depth_leaf_swap(rng: random.Random, shape,
                               weight: Dict[str, int]):
    depth = ref.depths(shape)
    pairs = [(a, b) for a in depth for b in depth
             if depth[a] < depth[b] and weight[a] != weight[b]]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    words = ref.codewords(shape)
    words[a], words[b] = words[b], words[a]
    return ref.shape_of_code(words)


# Tied weights for swap searches, symbol s<i> getting the i-th weight;
# the closure sizes under {parent,prob} / {row} / {row,prob} are roughly
# 48-336 at n = 5 and 96-288 at n = 6.  The order of the weights sets
# the Huffman start tree's shape, and with it a closure's cost (up to
# twofold), so it is fixed; the seed draws the targets.
SWAP_MULTISETS = {
    5: ((1, 1, 1, 1, 2), (1, 2, 2, 3, 4)),
    6: ((1, 1, 1, 3, 4, 4), (1, 1, 3, 3, 3, 4)),
}
MODES = ("closure", "reachable", "unreachable")
REACHABLE_MOVES = 3  # random admissible moves from the start to a target


def _swaps_source(rng: random.Random, weights: Sequence[int]):
    symbols = symbols_for(len(weights))
    weight = dict(zip(symbols, weights))
    start = ref.huffman_shape(symbols, weights)
    far = _different_depth_leaf_swap(rng, start, weight)
    require(far is not None, "no leaf swap across depths")
    return symbols, list(weights), weight, start, far


def _swaps_ops(rng: random.Random, files: Files, multiset: Sequence[int],
               plan: Sequence[tuple]) -> List[Op]:
    """One source; plan entries are (kinds, mode), mode in MODES."""
    symbols, weights, weight, start, far = _swaps_source(rng, multiset)
    n = len(symbols)
    src = files.source(symbols, weights)
    start_code = files.code(ref.codewords(start))
    ops = []
    for kinds, mode in plan:
        argv = ["swaps", src, "--from", start_code,
                "--kinds", ",".join(kinds), "--json"]
        expect = {"weight": weight, "start": ref.label(start),
                  "kinds": kinds, "mode": mode}
        if mode != "closure":
            target = far
            if mode == "reachable":
                target = start
                for _ in range(REACHABLE_MOVES):
                    move = rng.choice(ref.admissible_moves(target, kinds,
                                                           weight))
                    target = ref.apply_move(target, move, weight)
            argv[4:4] = ["--to", files.code(ref.codewords(target))]
            expect["target"] = ref.label(target)
        ops.append(Op("swaps n=%d %s %s" % (n, ",".join(kinds), mode), argv,
                      n, tie_share(weights), ",".join(kinds), expect))
    return ops


def build_swaps(rng: random.Random, files: Files, tiny: bool) -> Schedule:
    if tiny:
        return Schedule([_swaps_ops(rng, files, SWAP_MULTISETS[5][1], [
            (("row",), "closure"), (("row",), "reachable"),
            (("parent", "prob"), "unreachable")])])
    full = [(kinds, mode) for kinds in KIND_SETS for mode in MODES]
    # Reachable targets at n = 6 only: with them at n = 5 too, p50 fell
    # on the step from the n = 5 searches (~30 ms) to the n = 6 ones
    # (~70 ms); without, it falls inside the n = 6 class.
    searches = [(kinds, mode) for kinds, mode in full if mode != "reachable"]
    rounds = []
    for _ in range(ROUNDS):
        ops = []
        for multiset in SWAP_MULTISETS[5]:
            ops += _swaps_ops(rng, files, multiset, searches)
        for multiset in SWAP_MULTISETS[6]:
            ops += _swaps_ops(rng, files, multiset, full)
        rng.shuffle(ops)
        rounds.append(ops)
    return Schedule(rounds)


def check_swaps(op: Op, rc: int, out: str) -> None:
    weight, kinds = op.expect["weight"], op.expect["kinds"]
    start = ref.parse_label(op.expect["start"])
    invariant = ref.swap_invariant(start, kinds, weight)
    mode = op.expect["mode"]
    if mode == "closure":
        require(rc == 0, "swaps closure exited %d" % rc)
        report = json.loads(out)
        members = report["members"]
        require(report["size"] == len(members) == len(set(members)),
                "closure size does not match its member list")
        require(op.expect["start"] in members, "closure misses its start")
        for member in members:
            shape = ref.parse_label(member)
            require(sorted(ref.depths(shape)) == sorted(weight),
                    "closure member %s has the wrong alphabet" % member)
            require(ref.swap_invariant(shape, kinds, weight) == invariant,
                    "closure member %s breaks the kind's invariant" % member)
        return
    target = ref.parse_label(op.expect["target"])
    if mode == "unreachable":
        require(ref.swap_invariant(target, kinds, weight) != invariant,
                "generator bug: unreachable target keeps the invariant")
        require(rc == 1 and out.strip() == "NOT EQUIVALENT",
                "swaps found a certificate to an unreachable target")
        return
    require(rc == 0, "swaps exited %d for a reachable target" % rc)
    shape = start
    for move in json.loads(out)["certificate"]:
        shape = ref.apply_move(shape, move, weight)
    require(ref.label(shape) == op.expect["target"],
            "certificate does not replay to the target")


# -- build-large ------------------------------------------------------------

def _build_op(rng: random.Random, files: Files, n: int, regime: str,
              policy: str) -> Op:
    symbols = symbols_for(n)
    if regime == "distinct":
        weights = rng.sample(range(1, 1 << 30), n)
    else:
        weights = [rng.randint(1, 8) for _ in range(n)]
    src = files.source(symbols, weights)
    return Op("build-large n=%d %s" % (n, regime),
              ["huffman", src, "--policy", policy, "--json"], n,
              tie_share(weights), regime,
              {"symbols": symbols, "weights": weights, "policy": policy})


def build_large(rng: random.Random, files: Files, tiny: bool) -> Schedule:
    policies = iter(ref.POLICIES * (4 * ROUNDS))
    if tiny:
        return Schedule([[_build_op(rng, files, 16, regime, next(policies))
                              for regime in ("distinct", "tied")]])
    rounds = []
    for _ in range(ROUNDS):
        # p90 falls inside the n = 384 class; a tied source at n = 384
        # runs in two thirds of the time of a distinct one, so the class
        # holds distinct sources only.
        ops = [_build_op(rng, files, 384, "distinct", next(policies))
               for _ in range(2)]
        ops += [_build_op(rng, files, 256, regime, next(policies))
                for regime in ("distinct", "tied") * 4]
        rng.shuffle(ops)
        rounds.append(ops)
    return Schedule(rounds)


def check_build(op: Op, rc: int, out: str) -> None:
    require(rc == 0, "huffman exited %d" % rc)
    report = json.loads(out)
    symbols, weights = op.expect["symbols"], op.expect["weights"]
    words = ref.codewords(ref.huffman_shape(symbols, weights,
                                            op.expect["policy"]))
    require(report["code"] == words,
            "codewords differ from the heap reference")
    length = ref.weighted_length({s: len(w) for s, w in words.items()},
                                 dict(zip(symbols, weights)))
    require(report["expected_length"] == str(F(length, sum(weights))),
            "wrong expected length")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    steps: Callable          # op -> [(argv, checker)], run in sequence


def _one(checker):
    return lambda op: [(op.argv, checker)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify",
        "brute-force oracle: CodeTree built for thousands of tiny trees, "
        "both sibling checks, swap closures",
        build_verify, _one(check_verify)),
    Workload(
        "check-sync",
        "classify dominated by Huffman tie enumeration (distinct n=6-12, "
        "tie-heavy n=6-8), plus the subset scan and the sync BFS",
        build_check_sync,
        lambda op: [(op.argv, check_check), (sync_argv(op), check_sync)]),
    Workload(
        "swaps",
        "swap-move generation, node_swap rebuilds and closure BFS: "
        "closures, certificates and exhaustive negative searches",
        build_swaps, _one(check_swaps)),
    Workload(
        "build-large",
        "one large Huffman merge loop per op (n=256-384, distinct and "
        "tied weights), CLI parse and JSON output of 256-384-line files",
        build_large, _one(check_build)),
)}
