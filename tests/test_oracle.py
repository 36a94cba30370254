from fractions import Fraction

import pytest

from prefixcodes import (
    MonotonicityWitness,
    PrefixCode,
    Source,
    SwapKind,
    builtin_corpus,
    enumerate_complete_trees,
    min_expected_length,
    optimal_set,
    strong_monotonicity_check,
    swap_closure,
    tree_from_code,
    verify_theorems,
)
from prefixcodes import oracle
from prefixcodes.errors import AlphabetTooLarge
from prefixcodes.oracle import catalan, strong_monotonicity_scan
from conftest import load_code, load_tree, tree_for_label


class TestEnumeration:
    def test_counts(self):
        two = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        three = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 4)),
                        ("z", Fraction(1, 4))])
        four = Source([("w", Fraction(1, 4)), ("x", Fraction(1, 4)),
                       ("y", Fraction(1, 4)), ("z", Fraction(1, 4))])
        for src, expected in [(two, 2), (three, 12), (four, 120)]:
            enum = enumerate_complete_trees(src)
            members = list(enum.members)
            assert enum.count == expected
            assert len(members) == expected
            labels = {t.label for t in members}
            assert len(labels) == expected  # all distinct

    def test_count_formula(self):
        # n! * Catalan(n-1) complete trees on n labeled leaves
        assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
        five = Source([("s%d" % i, Fraction(1, 5)) for i in range(5)])
        assert enumerate_complete_trees(five).count == 120 * 14

    def test_all_members_complete(self, ex3):
        for tree in enumerate_complete_trees(ex3).members:
            assert tree.is_complete

    def test_guard(self):
        n = 8
        src = Source([("s%d" % i, Fraction(1, n)) for i in range(n)])
        with pytest.raises(AlphabetTooLarge):
            enumerate_complete_trees(src)


class TestMinExpectedLength:
    def test_known_values(self, ex1, ex3):
        assert min_expected_length(ex1) == Fraction(7, 4)
        assert min_expected_length(ex3) == Fraction(15, 8)

    def test_two_symbols(self):
        src = Source([("x", Fraction(1, 3)), ("y", Fraction(2, 3))])
        assert min_expected_length(src) == 1


class TestOptimalSet:
    def test_example4_members(self, ex4):
        labels = optimal_set(ex4)
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        _, c = load_tree("ex4.src", "ex4_c.code")
        assert {h1.label, h2.label, c.label} <= labels

    def test_ex1_optimal_set_is_sibling_closure(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        closure = swap_closure(ex1, h1, {SwapKind.SAME_PARENT})
        assert optimal_set(ex1) == set(closure.members)
        assert len(closure.members) == 8

    def test_example5_rows_of_c(self, ex5):
        # the same symbol sits at different depths across optimal trees
        depths = set()
        for label in optimal_set(ex5):
            depths.add(tree_for_label(ex5, label).depth_of("c"))
        assert {2, 4} <= depths


class TestStrongMonotonicityScan:
    def test_ex3_c_witness(self, ex3):
        w = strong_monotonicity_scan(ex3, load_code("ex3_c.code"))
        assert w == MonotonicityWitness(A=("c", "d"), B=("a",), i=1, j=2)

    def test_guard(self):
        n = 21
        src = Source([("s%d" % i, Fraction(1, n)) for i in range(n)])
        code = PrefixCode({"s%d" % i: format(i, "b").rjust(5, "0")
                           for i in range(n)})
        with pytest.raises(AlphabetTooLarge):
            strong_monotonicity_scan(src, code)


class TestVerifyTheorems:
    @pytest.mark.parametrize("name", ["dyadic4", "tied4", "thirds4"])
    def test_corpus_small(self, name):
        src = dict(builtin_corpus())[name]
        report = verify_theorems(src)
        assert report.all_passed, [c for c in report.checks if not c.passed]

    def test_check_names(self, ex4):
        report = verify_theorems(ex4)
        names = {c.name for c in report.checks}
        assert "huffman-achieves-minimum" in names
        assert "optimal-iff-strongly-monotone-iff-length-equivalent" in names
        assert "sibling-property-iff-huffman" in names
        assert "complete-kraft-sum-one" in names
        assert "huffman-trees-monotone" in names
        assert "huffman-swap-equivalence" in names
        assert "optimal-swap-equivalence" in names
        assert "length-equivalent-iff-same-row-swap-equivalent" in names

    def test_example5(self, ex5):
        report = verify_theorems(ex5)
        assert report.all_passed

    def test_guard(self):
        n = 7
        src = Source([("s%d" % i, Fraction(1, n)) for i in range(n)])
        with pytest.raises(AlphabetTooLarge):
            verify_theorems(src)

    def test_flags_a_witness_that_differs_from_the_scan(self, ex3,
                                                          monkeypatch):
        # same verdicts as the scan, but a witness with A and B exchanged
        def swapped(source, code):
            w = strong_monotonicity_check(source, code)
            return w and MonotonicityWitness(A=w.B, B=w.A, i=w.i, j=w.j)

        monkeypatch.setattr(oracle, "strong_monotonicity_check", swapped)
        checks = {c.name: c.passed for c in verify_theorems(ex3).checks}
        assert not checks[
            "optimal-iff-strongly-monotone-iff-length-equivalent"]
        assert sum(checks.values()) == len(checks) - 1


class TestBuiltinCorpus:
    def test_shape(self):
        corpus = builtin_corpus()
        names = [name for name, _ in corpus]
        assert len(names) == len(set(names))
        assert all(2 <= len(src) <= 6 for _, src in corpus)
        assert len(corpus) >= 8


class TestTreeForLabel:
    def test_deep_caterpillar_round_trip(self):
        # codewords 1^i 0 for i < n - 1, then 1^(n-1): nesting depth n - 1
        n = 1100
        src = Source.from_weights([("s%d" % i, 1) for i in range(n)])
        words = {"s%d" % i: "1" * i + "0" for i in range(n - 1)}
        words["s%d" % (n - 1)] = "1" * (n - 1)
        tree = tree_from_code(src, words)
        back = tree_for_label(src, tree.label)
        assert back.label == tree.label
        assert back.depth_of("s%d" % (n - 1)) == n - 1
