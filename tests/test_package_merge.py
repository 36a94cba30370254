"""Package-merge strong monotonicity against the 2^n subset scan.

`analysis.strong_monotonicity_check` must give the scan's answer,
witness included (the lexicographically first index tuples at the first
violating exponent pair), on every code the scan can run.  Past the
scan's 20 symbols it must give the answer of `walk_check`, which finds
each witness set index by index with one package-merge query per
candidate, and it is checked through `check` on the command line.
"""

import json
import random
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings

from prefixcodes import (
    PrefixCode,
    Source,
    code_from_tree,
    code_lengths,
    expected_length,
    huffman_build,
    improve_from_witness,
    strong_monotonicity_check,
)
from prefixcodes import analysis
from prefixcodes.analysis import (MonotonicityWitness, _least_keys, _subset,
                                  _tie_keys)
from prefixcodes.cli import main, parse_code_text
from prefixcodes.core import _checked_lengths
from prefixcodes.errors import ConsistencyError
from prefixcodes.oracle import strong_monotonicity_scan
from conftest import tree_lengths
from test_properties import any_trees


def _rows(lengths, weights):
    """rows[d]: the sorted weights of the symbols at depth d, for every
    depth down to the deepest."""
    rows = [[] for _ in range(max(lengths) + 1)]
    for ln, w in zip(lengths, weights):
        rows[ln].append(w)
    for row in rows:
        row.sort()
    return rows


def _least(rows, target):
    """Least total weight of a subset with Kraft sum target / 2^depth,
    where depth = len(rows) - 1 and target <= 2^depth; None if no subset
    has that Kraft sum.

    Package-merge (Larmore and Hirschberg 1990): from the deepest row up,
    a row whose bit is set in the target gives up its cheapest entry, and
    the rest pair off, cheapest first, into packages for the row above.
    """
    depth = len(rows) - 1
    total, carry = 0, []
    for d in range(depth, -1, -1):
        bits = target >> (depth - d)  # the target's bits on rows d..0
        if not bits:
            break
        row = sorted(rows[d] + carry)
        if bits & 1:
            if not row:
                return None
            total += row.pop(0)
        carry = [a + b for a, b in zip(row[::2], row[1::2])]
    return total


def _first_subset(lengths, weights, k, best):
    """The lexicographically first sorted index tuple among the subsets
    with Kraft sum 2^-k and total weight `best`, the least such weight.

    Walks the indices in order and takes each time the smallest next
    index that still has a completion of weight `best`, tested by one
    `_least` query on the indices after it.  The walk stops once the
    chosen prefix reaches the Kraft sum (and so weight `best`): every
    extension has a larger Kraft sum, and a prefix precedes its
    extensions.
    """
    depth = max(lengths)
    rows = _rows(lengths, weights)  # the indices not yet passed
    chosen = []
    kraft_left, weight_left = 1 << (depth - k), best
    c = 0
    while kraft_left:
        for c in range(c, len(lengths)):
            row = rows[lengths[c]]
            del row[bisect_left(row, weights[c])]
            kraft_c = 1 << (depth - lengths[c])
            if kraft_c > kraft_left:
                continue
            rest = _least(rows, kraft_left - kraft_c)
            if rest is not None and rest + weights[c] == weight_left:
                break
        else:
            raise ConsistencyError("no subset reaches %d at exponent %d"
                                   % (best, k))
        chosen.append(c)
        kraft_left -= kraft_c
        weight_left -= weights[c]
        c += 1
    return tuple(chosen)


def walk_check(source, lengths):
    """`strong_monotonicity_check` by one `_least` query per exponent
    for the extremes and the `_first_subset` walk for the witness sets:
    quadratic, but with no limit on the alphabet."""
    lengths = _checked_lengths(source, lengths)
    weights = source.weights
    negated = [-w for w in weights]
    depth = max(lengths)
    lo, hi = {}, {}
    for k in range(depth + 1):
        least = _least(_rows(lengths, weights), 1 << (depth - k))
        if least is not None:
            lo[k] = least
            hi[k] = -_least(_rows(lengths, negated), 1 << (depth - k))
    exponents = sorted(lo)
    for a, i in enumerate(exponents):
        j = next((j for j in exponents[a + 1:] if hi[j] > lo[i]), None)
        if j is not None:
            A = _first_subset(lengths, weights, i, lo[i])
            B = _first_subset(lengths, negated, j, -hi[j])
            return MonotonicityWitness(
                A=tuple(source.symbols[t] for t in A),
                B=tuple(source.symbols[t] for t in B), i=i, j=j)
    return None


def random_words(rng, n):
    """The codewords of a random complete tree on n leaves, in leaf order
    of a random merge sequence."""
    nodes = list(range(n))
    while len(nodes) > 1:
        a = nodes.pop(rng.randrange(len(nodes)))
        b = nodes.pop(rng.randrange(len(nodes)))
        nodes.append((a, b))
    words = {}
    stack = [(nodes[0], "")]
    while stack:
        node, word = stack.pop()
        if isinstance(node, int):
            words[node] = word
        else:
            stack += [(node[0], word + "0"), (node[1], word + "1")]
    return [words[i] for i in range(n)]


def seeded_cases(seed, count, max_n=14, min_n=2):
    """(source, code, complete) with tie-heavy weights 1-4; half of the
    codes are made incomplete by lengthening some codewords."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        weights = [rng.randint(1, 4) for _ in range(n)]
        words = random_words(rng, n)
        complete = rng.random() < 0.5
        if not complete:
            words = [w + rng.choice(["0", "1", "10"])
                     if rng.random() < 0.3 else w for w in words]
        source = Source.from_weights(
            ("s%d" % i, w) for i, w in enumerate(weights))
        code = PrefixCode({"s%d" % i: w for i, w in enumerate(words)})
        yield source, code, complete


def test_least_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        depth = rng.randint(1, 4)
        items = [(rng.randint(1, depth), rng.randint(-5, 9))
                 for _ in range(rng.randint(1, 7))]
        rows = [sorted(w for d, w in items if d == row)
                for row in range(depth + 1)]
        target = rng.randint(0, 1 << depth)
        sums = [sum(w for _, w in subset)
                for r in range(len(items) + 1)
                for subset in combinations(items, r)
                if sum(1 << (depth - d) for d, _ in subset) == target]
        assert _least(rows, target) == (min(sums) if sums else None)


def test_least_keys_match_brute_force():
    # both signs and ties: the least weight at each exponent k from the
    # plain weights, and the first sorted index tuple that reaches it
    # from the tie keys
    rng = random.Random(5)
    for _ in range(300):
        depth = rng.randint(1, 4)
        n = rng.randint(1, 7)
        lengths = [rng.randint(1, depth) for _ in range(n)]
        weights = [rng.randint(-5, 9) for _ in range(n)]
        best = {}
        for r in range(1, n + 1):
            for subset in combinations(range(n), r):  # sorted tuples
                kraft = sum(1 << (depth - lengths[i]) for i in subset)
                if kraft & (kraft - 1) == 0 and kraft <= 1 << depth:
                    k = depth - kraft.bit_length() + 1
                    weight = sum(weights[i] for i in subset)
                    if k not in best or (weight, subset) < best[k]:
                        best[k] = (weight, subset)
        assert _least_keys(lengths, weights) == {
            k: weight for k, (weight, _) in best.items()}
        found = {k: _subset(lengths, weights, k, key) for k, key
                 in _least_keys(lengths, _tie_keys(weights)).items()}
        assert found == {k: subset for k, (_, subset) in best.items()}
        assert all(sum(weights[i] for i in subset) == best[k][0]
                   for k, subset in found.items())


def test_keyed_pass_runs_only_on_a_violation(monkeypatch):
    # the verdict reads the plain weights; the tie keys, n+1 bits wider,
    # are built only to name a violation's witness sets, once per sign
    keyed = []

    def recorded(weights):
        keyed.append(tuple(weights))
        return _tie_keys(weights)

    monkeypatch.setattr(analysis, "_tie_keys", recorded)
    found = set()
    for source, code, _ in seeded_cases(seed=19, count=200):
        lengths = code_lengths(source, code)
        keyed.clear()
        witness = strong_monotonicity_check(source, lengths)
        negated = tuple(-w for w in source.weights)
        assert keyed == ([] if witness is None
                         else [source.weights, negated]), source.weights
        found.add(witness is None)
    assert found == {True, False}
    for n in (21, 300):
        source = Source.from_weights(("s%d" % i, 1 + i % 5) for i in range(n))
        keyed.clear()
        lengths = tree_lengths(huffman_build(source))
        assert strong_monotonicity_check(source, lengths) is None
        assert keyed == []


def test_subset_checks_its_decoding():
    lengths, weights = (1, 1, 2), (3, 1, 2)
    key = _least_keys(lengths, _tie_keys(weights))[1]
    assert _subset(lengths, weights, 1, key) == (1,)
    with pytest.raises(ConsistencyError):
        _subset(lengths, weights, 0, key)  # K = 1/2, not 1
    with pytest.raises(ConsistencyError):
        _subset(lengths, weights, 1, key - 4 * 16)  # weight 4 too small


def test_agrees_with_walk_past_the_scan():
    found = set()
    for source, code, complete in seeded_cases(seed=13, count=24,
                                               min_n=21, max_n=300):
        lengths = code_lengths(source, code)
        witness = strong_monotonicity_check(source, lengths)
        assert witness == walk_check(source, lengths), (
            source.weights, code.words)
        found.add((complete, witness is not None))
    rng = random.Random(17)
    for n in (21, 64, 300):
        source = Source.from_weights(
            ("s%d" % i, rng.randint(1, 9)) for i in range(n))
        lengths = tree_lengths(huffman_build(source))
        assert strong_monotonicity_check(source, lengths) is None
        assert walk_check(source, lengths) is None
    assert {(True, True), (False, True)} <= found


def test_agrees_with_scan_on_seeded_codes():
    seen = {(complete, witness) for complete in (True, False)
            for witness in (True, False)}
    found = set()
    for source, code, complete in seeded_cases(seed=11, count=700):
        lengths = code_lengths(source, code)
        witness = strong_monotonicity_check(source, lengths)
        assert witness == strong_monotonicity_scan(source, lengths), (
            source.weights, code.words)
        found.add((complete, witness is not None))
    assert found == seen


@settings(max_examples=300, deadline=None)
@given(any_trees())
def test_agrees_with_scan_on_any_tree(tree):
    lengths = tree_lengths(tree)
    assert (strong_monotonicity_check(tree.source, lengths)
            == strong_monotonicity_scan(tree.source, lengths))


def test_witness_ties_break_to_first_index_tuple():
    # K(A) = 1/2 with the least P(A) = 3: {s3, s5}, {s0, s1, s3},
    # {s0, s2, s3} and {s1, s2, s3}; the first sorted index tuple is
    # (0, 1, 3), though {s3, s5} is smaller.  K(B) = 1/4 with the
    # greatest P(B) = 4: {s0, s4}, {s1, s4} and {s2, s4}.
    source = Source.from_weights(
        ("s%d" % i, w) for i, w in enumerate([1, 1, 1, 1, 3, 2]))
    lengths = (3, 3, 3, 2, 3, 2)
    witness = strong_monotonicity_check(source, lengths)
    assert witness == MonotonicityWitness(A=("s0", "s1", "s3"),
                                          B=("s0", "s4"), i=1, j=2)
    assert witness == strong_monotonicity_scan(source, lengths)


class TestLargeAlphabet:
    """`check` past the scan's 20 symbols: no size limit remains."""
    N = 400

    def files(self, tmp_path, words):
        rng = random.Random(7)
        weights = rng.sample(range(1, 20 * self.N), self.N)
        src = tmp_path / "s.src"
        src.write_text("".join("s%d %d\n" % (i, w)
                               for i, w in enumerate(weights)))
        source = Source.from_weights(
            ("s%d" % i, w) for i, w in enumerate(weights))
        tree = huffman_build(source)
        code = dict(code_from_tree(tree).words)
        if words is not None:
            code = words(source, code)
        path = tmp_path / "c.code"
        path.write_text("".join("%s %s\n" % kv for kv in code.items()))
        return source, str(src), str(path)

    def test_huffman_code_is_optimal(self, tmp_path, capsys):
        _, src, code = self.files(tmp_path, None)
        assert main(["check", src, code, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["strongly_monotone"] and report["witness"] is None

    def test_perturbed_code_has_improving_witness(self, tmp_path, capsys):
        def perturb(source, words):
            # the heaviest symbol trades codewords with the lightest
            by_weight = sorted(source.symbols, key=source.weight_of.get)
            light, heavy = by_weight[0], by_weight[-1]
            words[light], words[heavy] = words[heavy], words[light]
            return words

        source, src, path = self.files(tmp_path, perturb)
        assert main(["check", src, path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["strongly_monotone"]
        witness = MonotonicityWitness(A=tuple(report["witness"]["A"]),
                                      B=tuple(report["witness"]["B"]),
                                      i=report["witness"]["i"],
                                      j=report["witness"]["j"])
        with open(path) as f:
            lengths = code_lengths(source, parse_code_text(f.read()))
        better = improve_from_witness(source, lengths, witness)
        assert (expected_length(source, better)
                < expected_length(source, lengths))
