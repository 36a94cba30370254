import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from prefixcodes import (
    MonotonicityWitness,
    PrefixCode,
    Source,
    builtin_corpus,
    classify,
    code_from_tree,
    code_lengths,
    enumerate_complete_trees,
    expected_length,
    huffman_build,
    huffman_enumerate,
    improve_from_witness,
    is_complete,
    is_monotone,
    is_optimal,
    kraft_sum,
    strong_monotonicity_check,
    tree_from_code,
)
from prefixcodes import analysis
from prefixcodes.cli import main
from prefixcodes.errors import (
    AlphabetMismatch,
    ConsistencyError,
    InvalidWitness,
)
from prefixcodes.huffman import _sibling_pairs
from conftest import (FIXTURES, complete_trees_up_to_six, load_code,
                      load_lengths, load_tree)
from test_properties import any_trees


class TestIsComplete:
    def test_ex3_c(self, ex3):
        _, tree = load_tree("ex3.src", "ex3_c.code")
        assert is_complete(tree)

    def test_one_child(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        assert not is_complete(tree)
        assert kraft_sum(code_lengths(src, code_from_tree(tree))) < 1

    def test_ex2_h2(self, ex2):
        _, tree = load_tree("ex2.src", "ex2_h2.code")
        assert is_complete(tree)

    def test_matches_kraft_sum(self, ex3):
        _, tree = load_tree("ex3.src", "ex3_c.code")
        assert is_complete(tree) == (
            kraft_sum(code_lengths(ex3, code_from_tree(tree))) == 1)


class TestIsMonotone:
    def test_ex3_both(self, ex3):
        _, c = load_tree("ex3.src", "ex3_c.code")
        _, h = load_tree("ex3.src", "ex3_h.code")
        assert is_monotone(c)
        assert is_monotone(h)

    def test_leaf_swap_breaks_it(self, ex3):
        # the fixed-length code with a (3/8) and c (1/8) exchanged keeps
        # all leaves on one row, so it stays monotone
        swapped = PrefixCode({"c": "00", "a": "01", "b": "10", "d": "11"})
        tree = tree_from_code(ex3, swapped)
        assert is_monotone(tree)  # same rows, still monotone
        # a genuine violation: push a high-probability symbol down
        bad = PrefixCode({"c": "0", "a": "10", "b": "110", "d": "111"})
        tree = tree_from_code(ex3, bad)
        assert not is_monotone(tree)


def monotone_by_rows(tree):
    """`is_monotone` from each row's least and greatest weight."""
    rows, weights = tree.rows(), tree.weights
    row_min = [min(weights[i] for i in row) for row in rows]
    row_max = [max(weights[i] for i in row) for row in rows]
    return all(row_max[d] <= min(row_min[:d]) for d in range(1, len(rows)))


class TestOnePassMonotone:
    """The one pass of `is_monotone` against each row's extremes."""

    def test_every_complete_tree_up_to_six_symbols(self):
        found = Counter()
        for tree in complete_trees_up_to_six():
            found[is_monotone(tree)] += 1
            assert is_monotone(tree) == monotone_by_rows(tree), tree.label
        assert found[True] > 100 and found[False] > 10000

    @settings(max_examples=300, deadline=None)
    @given(any_trees())
    def test_any_tree(self, tree):
        assert is_monotone(tree) == monotone_by_rows(tree)


class TestStrongMonotonicity:
    def test_ex3_c_witness(self, ex3):
        w = strong_monotonicity_check(ex3, load_lengths(ex3, "ex3_c.code"))
        assert w == MonotonicityWitness(A=("c", "d"), B=("a",), i=1, j=2)

    def test_ex3_h_none(self, ex3):
        assert strong_monotonicity_check(
            ex3, load_lengths(ex3, "ex3_h.code")) is None

    def test_two_symbol_complete(self):
        src = Source([("x", Fraction(1, 3)), ("y", Fraction(2, 3))])
        assert strong_monotonicity_check(src, (1, 1)) is None


class TestIsOptimal:
    def test_example4_c(self, ex4):
        assert is_optimal(ex4, load_lengths(ex4, "ex4_c.code"))

    def test_example3(self, ex3):
        assert not is_optimal(ex3, load_lengths(ex3, "ex3_c.code"))
        assert is_optimal(ex3, load_lengths(ex3, "ex3_h.code"))


class TestLengthEquivalent:
    def test_example4(self, ex4):
        h1 = load_lengths(ex4, "ex4_h1.code")
        h2 = load_lengths(ex4, "ex4_h2.code")
        c = load_lengths(ex4, "ex4_c.code")
        assert h2 == c
        assert h1 != h2
        assert h1 == h1

    def test_codes_over_other_symbols(self, ex4):
        with pytest.raises(AlphabetMismatch):
            code_lengths(ex4, PrefixCode({"x": "0", "y": "1"}))


class TestImproveFromWitness:
    def test_ex3_improvement(self, ex3):
        code = load_lengths(ex3, "ex3_c.code")
        w = strong_monotonicity_check(ex3, code)
        better = improve_from_witness(ex3, code, w)
        assert better == (1, 2, 3, 3)  # a, b, c, d
        assert expected_length(ex3, better) == Fraction(15, 8)
        # exact drop: (j - i) * (P(B-A) - P(A-B))
        drop = (w.j - w.i) * (ex3.prob_of(set(w.B) - set(w.A))
                              - ex3.prob_of(set(w.A) - set(w.B)))
        assert expected_length(ex3, code) - expected_length(ex3, better) == drop

    def test_disjoint_witness_keeps_kraft_one(self, ex3):
        code = load_lengths(ex3, "ex3_c.code")
        w = strong_monotonicity_check(ex3, code)
        assert not set(w.A) & set(w.B)
        better = improve_from_witness(ex3, code, w)
        assert kraft_sum(better) == 1

    def test_invalid_witness(self, ex3):
        code = load_lengths(ex3, "ex3_c.code")
        bogus = MonotonicityWitness(A=("a",), B=("c", "d"), i=2, j=1)
        with pytest.raises(InvalidWitness):
            improve_from_witness(ex3, code, bogus)
        not_violating = MonotonicityWitness(A=("a", "b"), B=("c",), i=1, j=2)
        with pytest.raises(InvalidWitness):
            improve_from_witness(ex3, code, not_violating)

    @pytest.mark.parametrize("A, B, i, j, fault", [
        (("c", "z"), ("a",), 1, 2, "witness symbols outside the alphabet"),
        (("a",), ("c", "z"), 1, 2, "witness symbols outside the alphabet"),
        (("c",), ("a",), 1, 2, "K(A) != 2^-i"),  # K(A) = 1/4
        (("c", "d"), ("a",), 2, 3, "K(A) != 2^-i"),  # 1/2, not 1/4
        ((), ("a",), 0, 2, "K(A) != 2^-i"),  # the empty set's sum is 0
        (("c", "d"), ("a", "b"), 1, 2, "K(B) != 2^-j"),  # K(B) = 1/2
        (("c", "d"), ("a",), 1, 3, "K(B) != 2^-j"),  # 1/4, not 1/8
    ])
    def test_each_invalid_witness_branch(self, ex3, A, B, i, j, fault):
        code = load_lengths(ex3, "ex3_c.code")  # every length 2
        witness = MonotonicityWitness(A=A, B=B, i=i, j=j)
        with pytest.raises(InvalidWitness, match="^%s$" % re.escape(fault)):
            improve_from_witness(ex3, code, witness)

    @pytest.mark.parametrize("i, j", [(1, 10 ** 9), (10 ** 9, 10 ** 9 + 1)])
    def test_exponent_past_the_longest_codeword(self, ex3, i, j):
        # rejected from the lengths alone, with no 2^j built
        code = load_lengths(ex3, "ex3_c.code")
        witness = strong_monotonicity_check(ex3, code)
        assert (witness.i, witness.j) == (1, 2)
        bogus = MonotonicityWitness(A=witness.A, B=witness.B, i=i, j=j)
        with pytest.raises(InvalidWitness):
            improve_from_witness(ex3, code, bogus)


class TestClassify:
    def test_ex3_c(self, ex3):
        report = classify(ex3, load_code("ex3_c.code"))
        assert report.complete
        assert report.monotone
        assert not report.strongly_monotone
        assert not report.optimal
        assert report.expected_len == 2
        assert report.huffman_len == Fraction(15, 8)
        assert not report.huffman_member
        assert not report.length_equivalent_to_huffman

    def test_ex4_c(self, ex4):
        report = classify(ex4, load_code("ex4_c.code"))
        assert report.complete
        assert report.strongly_monotone
        assert report.optimal
        assert not report.huffman_member
        assert report.length_equivalent_to_huffman

    def test_ex3_h(self, ex3):
        report = classify(ex3, load_code("ex3_h.code"))
        assert report.complete and report.monotone
        assert report.strongly_monotone and report.optimal
        assert report.huffman_member
        assert report.length_equivalent_to_huffman

    def test_complete_code_needs_kraft_sum_one(self, ex3, monkeypatch):
        monkeypatch.setattr(analysis, "kraft_sum",
                            lambda lengths: Fraction(1, 2))
        with pytest.raises(ConsistencyError,
                           match="^complete code with Kraft sum 1/2$"):
            classify(ex3, load_code("ex3_h.code"))

    def test_non_complete_code(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        report = classify(src, PrefixCode({"a": "0", "b": "10"}))
        assert not report.complete
        assert not report.optimal
        assert report.kraft_total == Fraction(3, 4)
        assert not report.length_equivalent_to_huffman


def _tied_sources(count, seed=7):
    rng = random.Random(seed)
    sources = []
    for k in range(count):
        n = rng.randint(2, 5)
        sources.append(("tied%d" % k, Source.from_weights(
            ("s%d" % i, rng.randint(1, 4)) for i in range(n))))
    return sources


def _write(path, lines):
    path.write_text("".join("%s %s\n" % pair for pair in lines))
    return str(path)


class TestLengthEquivalenceCertificate:
    """The row-sorted Huffman certificate against full enumeration."""

    def test_agrees_with_enumeration(self):
        sources = [(name, src) for name, src in builtin_corpus()
                   if len(src) <= 5] + _tied_sources(30)
        profiles_checked = 0
        for name, src in sources:
            huffman_profiles = {
                tuple(h.depth_of(s) for s in src.symbols)
                for h in huffman_enumerate(src)}
            seen = {}
            for tree in enumerate_complete_trees(src).members:
                profile = tuple(tree.depth_of(s) for s in src.symbols)
                if profile not in seen:
                    seen[profile] = code_from_tree(tree)
            for profile, code in seen.items():
                report = classify(src, code)
                assert report.length_equivalent_to_huffman == (
                    profile in huffman_profiles), (name, profile)
            profiles_checked += len(seen)
        assert profiles_checked > 1000

    def test_check_on_18_distinct_symbols(self, tmp_path):
        weights = [("s%d" % i, i * i + 1) for i in range(18)]
        code = code_from_tree(huffman_build(Source.from_weights(weights)))
        src_file = _write(tmp_path / "s.src", weights)
        good = _write(tmp_path / "h.code", code.words.items())
        assert main(["check", src_file, good]) == 0
        # give the most probable symbol the least probable one's word
        words = dict(code.words)
        words["s0"], words["s17"] = words["s17"], words["s0"]
        bad = _write(tmp_path / "p.code", words.items())
        assert main(["check", src_file, bad]) == 1

    def test_incomplete_code_json(self, tmp_path, capsys):
        src_file = _write(tmp_path / "s.src", [("a", 2), ("b", 1), ("c", 1)])
        code = _write(tmp_path / "c.code",
                      [("a", "0"), ("b", "10"), ("c", "110")])
        assert main(["check", src_file, code, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["complete"] is False
        assert data["length_equivalent_to_huffman"] is False

    def test_cross_check_fires(self, ex4, monkeypatch, capsys):
        # without the row sort, ex4_c (optimal, not Huffman) fails the leg:
        # the certificate's pairs are then the tree's own
        monkeypatch.setattr("prefixcodes.analysis._row_sort", lambda tree: (
            [(hi, lo) for hi, lo, _, _ in _sibling_pairs(tree)], tree.shape))
        with pytest.raises(ConsistencyError):
            classify(ex4, load_code("ex4_c.code"))
        assert main(["check", str(FIXTURES / "ex4.src"),
                     str(FIXTURES / "ex4_c.code")]) == 4
        assert "length_equivalent=False" in capsys.readouterr().err
