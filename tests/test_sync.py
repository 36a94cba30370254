import random
from fractions import Fraction

import pytest

from prefixcodes import (
    Source,
    code_from_tree,
    decoder_step,
    huffman_build,
    run_string,
    shortest_sync_string,
    tree_from_code,
)
from prefixcodes.errors import NotComplete, NotInternal, SubsetCapExceeded
from conftest import FIXTURES, fold_decoder_step, load_tree


class TestDecoderStep:
    def test_leaf_edge_resets_to_root(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        assert decoder_step(h1, h1.root, 0) == h1.root  # consumed "a"

    def test_internal_edge_advances(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        mid = decoder_step(h1, h1.root, 1)
        assert mid != h1.root
        assert h1.symbols[mid] is None

    def test_run_string_decodes_codewords(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        # "10 110 0" decodes b, c, a and ends at the root
        assert run_string(h1, h1.root, "101100") == h1.root

    def test_rejects_leaf_state(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        with pytest.raises(NotInternal):
            decoder_step(h1, h1.leaf_id("a"), 0)

    def test_rejects_bits_other_than_0_and_1(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        for bit in (2, -1):
            with pytest.raises(ValueError, match="bit must be 0 or 1"):
                decoder_step(h1, h1.root, bit)
        for bits in ("2", "x", "0x"):
            with pytest.raises(ValueError,
                               match="^bit must be 0 or 1, not '.'$"):
                run_string(h1, h1.root, bits)

    def test_rejects_states_outside_the_tree(self):
        # five nodes: ids 0-4; -1 would index the last node from the end
        src = Source.from_weights([("a", 2), ("b", 1), ("c", 1)])
        tree = huffman_build(src)
        assert len(tree.symbols) == 5
        for state in (5, 6, -1, -5):
            for bit in (0, 1):
                with pytest.raises(NotInternal,
                                   match="^node %d is not in the tree$"
                                   % state):
                    decoder_step(tree, state, bit)
            with pytest.raises(NotInternal, match="not in the tree"):
                run_string(tree, state, "0")

    def test_rejects_incomplete_tree(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        with pytest.raises(NotComplete):
            decoder_step(tree, tree.root, 0)


class TestRunStringErrors:
    """`run_string` fails as its fold of `decoder_step` does."""

    @staticmethod
    def outcomes(tree, state, bits):
        results = []
        for run in (run_string, fold_decoder_step):
            try:
                results.append(run(tree, state, bits))
            except (NotComplete, NotInternal) as exc:
                results.append((type(exc), str(exc)))
        return results

    def test_leaf_state(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        leaf = h1.leaf_id("a")
        first, second = self.outcomes(h1, leaf, "01")
        assert first == second == (NotInternal, "node %d is a leaf" % leaf)
        assert self.outcomes(h1, leaf, "") == [leaf, leaf]

    def test_incomplete_tree(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        for state in (tree.root, tree.leaf_id("a")):
            first, second = self.outcomes(tree, state, "1")
            assert first == second
            assert first[0] is NotComplete
            assert self.outcomes(tree, state, "") == [state, state]


class TestShortestSyncString:
    def test_ex1_h1(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        result = shortest_sync_string(h1)
        assert result.exists
        assert result.string == "0"

    def test_ex1_h2(self, ex1):
        _, h2 = load_tree("ex1.src", "ex1_h2.code")
        result = shortest_sync_string(h2)
        assert result.exists
        assert result.string == "00"

    def test_ex2_h1_exists(self, ex2):
        _, h1 = load_tree("ex2.src", "ex2_h1.code")
        result = shortest_sync_string(h1)
        assert result.exists
        # "0011" synchronizes this tree; the shortest witness cannot beat it
        for state in h1.internal_ids:
            assert run_string(h1, state, "0011") == h1.root
        assert len(result.string) <= 4

    def test_ex2_h2_has_none(self, ex2):
        _, h2 = load_tree("ex2.src", "ex2_h2.code")
        result = shortest_sync_string(h2)
        assert not result.exists
        assert result.string is None
        assert result.explored_subsets > 1

    def test_witness_is_sound(self, ex1, ex5):
        for src_name, code_name in [("ex1.src", "ex1_h1.code"),
                                    ("ex1.src", "ex1_h2.code"),
                                    ("ex5.src", "ex5_h1.code"),
                                    ("ex5.src", "ex5_h2.code")]:
            _, tree = load_tree(src_name, code_name)
            result = shortest_sync_string(tree)
            if not result.exists:
                continue
            for state in tree.internal_ids:
                assert run_string(tree, state, result.string) == tree.root

    def test_minimality_and_lex_order(self, ex1):
        # brute force over all strings shorter than or equal to the witness
        for src_name, code_name in [("ex1.src", "ex1_h2.code"),
                                    ("ex2.src", "ex2_h1.code"),
                                    ("ex5.src", "ex5_h1.code")]:
            _, tree = load_tree(src_name, code_name)
            witness = shortest_sync_string(tree).string
            assert self.least_sync_string(tree, len(witness)) == witness

    @staticmethod
    def least_sync_string(tree, max_length):
        def synchronizes(bits):
            return all(run_string(tree, s, bits) == tree.root
                       for s in tree.internal_ids)

        for length in range(max_length + 1):
            for value in range(1 << length):
                bits = format(value, "b").rjust(length, "0") if length else ""
                if synchronizes(bits):
                    return bits
        pytest.fail("brute force never reached the witness")

    def test_two_leaf_tree_synchronizes_trivially(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        tree = tree_from_code(src, {"x": "0", "y": "1"})
        result = shortest_sync_string(tree)
        assert result.exists
        assert result.string == ""

    def test_subset_cap(self, ex2):
        _, h2 = load_tree("ex2.src", "ex2_h2.code")
        with pytest.raises(SubsetCapExceeded):
            shortest_sync_string(h2, subset_cap=2)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_cap_below_one(self, cap):
        # the string '0' is found after 2 subsets, before any cap test
        tree = huffman_build(Source.from_weights(zip("abcd", (4, 3, 2, 1))))
        assert shortest_sync_string(tree, subset_cap=1).string == "0"
        with pytest.raises(ValueError, match="at least 1, got %d" % cap):
            shortest_sync_string(tree, subset_cap=cap)

    def test_rejects_incomplete(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        with pytest.raises(NotComplete):
            shortest_sync_string(tree)


def caterpillar(n):
    """The complete tree with codewords 0, 10, 110, ... and 1^(n-1)."""
    names = ["s%d" % i for i in range(n)]
    words = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1)]
    return tree_from_code(Source.from_weights((s, 1) for s in names),
                          dict(zip(names, words)))


def drives_to_root(words, bits):
    """Decode `bits` over the codewords from every internal state, each a
    proper prefix of a codeword, and report whether all end at the root."""
    leaves = set(words)
    for state in {w[:k] for w in words for k in range(len(w))}:
        for bit in bits:
            state += bit
            if state in leaves:
                state = ""
        if state:
            return False
    return True


class TestSearchGuards:
    def test_largest_caterpillar_synchronizes(self):
        # "0" takes every internal node to a leaf: {all}, then {root}
        tree = caterpillar(1025)
        assert len(tree.internal_ids) == 1024
        result = shortest_sync_string(tree)
        assert (result.string, result.explored_subsets) == ("0", 2)

    def test_node_guard_past_1024_internal_nodes(self):
        with pytest.raises(SubsetCapExceeded,
                           match="^tree has 1025 internal nodes; the subset "
                                 "search supports 1024$"):
            shortest_sync_string(caterpillar(1026))

    def test_huffman_tree_of_300_symbols(self):
        rng = random.Random(300)
        weights = rng.sample(range(1, 6001), 300)
        tree = huffman_build(Source.from_weights(
            ("s%d" % i, w) for i, w in enumerate(weights)))
        words = list(code_from_tree(tree).words.values())
        result = shortest_sync_string(tree)
        assert result.exists and result.explored_subsets > 2
        assert drives_to_root(words, result.string)
        assert not drives_to_root(words, result.string[:-1])
        # {root} is the last subset visited, and the cap is tested after it
        explored = result.explored_subsets
        assert shortest_sync_string(tree, subset_cap=explored - 1) == result
        with pytest.raises(SubsetCapExceeded,
                           match="^visited more than %d state subsets$"
                                 % (explored - 2)):
            shortest_sync_string(tree, subset_cap=explored - 2)

    @pytest.mark.parametrize("code", sorted(
        path.name for path in FIXTURES.glob("ex*_*.code")))
    def test_exists_iff_string(self, code):
        _, tree = load_tree(code.split("_")[0] + ".src", code)
        result = shortest_sync_string(tree)
        assert result.exists == (result.string is not None)
