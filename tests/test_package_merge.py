"""Package-merge strong monotonicity against the 2^n subset scan.

`analysis.strong_monotonicity_check` must give the scan's answer,
witness included (the lexicographically first index tuples at the first
violating exponent pair), on every code the scan can run; past the
scan's 20 symbols it is checked through `check` on the command line.
"""

import json
import random
from itertools import combinations

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
from prefixcodes.analysis import MonotonicityWitness, _least
from prefixcodes.cli import main, parse_code_text
from prefixcodes.oracle import strong_monotonicity_scan
from conftest import tree_lengths
from test_properties import any_trees


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


def seeded_cases(seed, count, max_n=14):
    """(source, code, complete) with tie-heavy weights 1-4; half of the
    codes are made incomplete by lengthening some codewords."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
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
