import re
from fractions import Fraction

import pytest

from prefixcodes import (
    Source,
    SwapKind,
    SwapMove,
    available_swaps,
    code_from_tree,
    huffman_enumerate,
    is_huffman,
    move_from_text,
    move_to_text,
    node_swap,
    replay,
    swap_closure,
    swap_equivalent,
    tree_from_code,
)
from prefixcodes.errors import (
    AlphabetMismatch,
    AncestryViolation,
    KindViolation,
    ParseError,
    Truncated,
)
from conftest import (caterpillar, load_tree, random_trees, swapped_code,
                      tree_for_label)

PARENT_PROB = {SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY}
ROW_PROB = {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY}
KIND_ORDER = (SwapKind.SAME_PARENT, SwapKind.SAME_ROW,
              SwapKind.SAME_PROBABILITY)


class TestNodeSwap:
    def test_ex1_sibling_swap(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        _, h2 = load_tree("ex1.src", "ex1_h2.code")
        b = h1.leaf_id("b")
        sibling = h1.rights[h1.parents[b]]
        out = node_swap(h1, SwapMove(b, sibling, SwapKind.SAME_PARENT))
        assert out.label == h2.label

    def test_ex4_same_row_swap(self, ex4):
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        _, c = load_tree("ex4.src", "ex4_c.code")
        u, v = sorted((h2.leaf_id("b"), h2.leaf_id("c")))
        out = node_swap(h2, SwapMove(u, v, SwapKind.SAME_ROW))
        assert out.label == c.label

    def test_ex5_cross_row_probability_swap(self, ex5):
        _, h1 = load_tree("ex5.src", "ex5_h1.code")
        a = h1.leaf_id("a")
        parent_c = h1.parents[h1.leaf_id("c")]
        assert h1.prob(a) == h1.prob(parent_c) == Fraction(1, 3)
        assert h1.depths[a] != h1.depths[parent_c]
        u, v = sorted((a, parent_c))
        out = node_swap(h1, SwapMove(u, v, SwapKind.SAME_PROBABILITY))
        assert out.depth_of("a") == 1   # a moved up to row 1
        assert out.depth_of("c") == 3   # c rode its parent down one row
        assert out.expected_length() == h1.expected_length()

    def test_purity(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        before = h1.label
        b = h1.leaf_id("b")
        sibling = h1.rights[h1.parents[b]]
        node_swap(h1, SwapMove(b, sibling, SwapKind.SAME_PARENT))
        assert h1.label == before

    def test_ancestry_violation(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        child_of_root = h1.rights[h1.root]
        grandchild = h1.rights[child_of_root]
        with pytest.raises(AncestryViolation):
            node_swap(h1, SwapMove(child_of_root, grandchild,
                                   SwapKind.SAME_PROBABILITY))

    # ex1_h1 in breadth-first ids: 0 = root, 1 = a, 2 = (b,(c,d)), 3 = b,
    # 4 = (c,d), 5 = c, 6 = d; weights a 4, b 2, c 1, d 1 (over 8)
    @pytest.mark.parametrize("u, v, kind, error, message", [
        (3, 3, "parent", AncestryViolation, "cannot swap a node with itself"),
        (7, 7, "row", AncestryViolation, "cannot swap a node with itself"),
        (-1, 3, "row", AncestryViolation, "node id out of range"),
        (3, 7, "row", AncestryViolation, "node id out of range"),
        (0, 7, "prob", AncestryViolation, "node id out of range"),
        (0, 3, "prob", AncestryViolation,
         "one swap endpoint is a descendant of the other"),
        (1, 0, "parent", AncestryViolation,
         "one swap endpoint is a descendant of the other"),
        (2, 5, "prob", AncestryViolation,
         "one swap endpoint is a descendant of the other"),
        (5, 2, "row", AncestryViolation,
         "one swap endpoint is a descendant of the other"),
        (1, 3, "parent", KindViolation, "nodes 1 and 3 are not siblings"),
        (5, 3, "row", KindViolation, "nodes 5 and 3 are on different rows"),
        (3, 5, "prob", KindViolation, "nodes 3 and 5 differ in probability"),
    ], ids=["self", "self-out-of-range", "negative-id", "id-len-nodes",
            "root-and-out-of-range", "root", "root-second", "ancestor-first",
            "ancestor-second", "parent", "row-u-after-v", "prob"])
    def test_rejects_move(self, u, v, kind, error, message):
        # checked in order: self-swap, range, ancestry, kind
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        move = SwapMove(u, v, SwapKind(kind))
        with pytest.raises(error, match="^%s$" % message) as info:
            node_swap(h1, move)
        assert type(info.value) is error

    def test_kind_violation(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        a, b = h1.leaf_id("a"), h1.leaf_id("b")
        with pytest.raises(KindViolation):
            node_swap(h1, SwapMove(a, b, SwapKind.SAME_ROW))

    def test_involution(self, ex4, ex5):
        # swapping the same two positions back recovers the original tree
        for src_name, code_name in [("ex4.src", "ex4_h1.code"),
                                    ("ex5.src", "ex5_h1.code")]:
            src, tree = load_tree(src_name, code_name)
            for move in available_swaps(
                    tree, {SwapKind.SAME_PARENT, SwapKind.SAME_ROW,
                           SwapKind.SAME_PROBABILITY}):
                once = node_swap(tree, move)
                u = _id_at_path(once, tree.path(move.u))
                v = _id_at_path(once, tree.path(move.v))
                back = SwapMove(min(u, v), max(u, v), move.kind)
                assert node_swap(once, back).label == tree.label

    def test_expected_length_preserved(self, ex4, ex5):
        for src_name, code_name in [("ex4.src", "ex4_h2.code"),
                                    ("ex5.src", "ex5_h1.code")]:
            src, tree = load_tree(src_name, code_name)
            base = tree.expected_length()
            for move in available_swaps(
                    tree, {SwapKind.SAME_PARENT, SwapKind.SAME_ROW,
                           SwapKind.SAME_PROBABILITY}):
                assert node_swap(tree, move).expected_length() == base

    def test_exchanges_codeword_prefixes(self, ex4, ex5):
        # the incomplete trees have one-child nodes on the rebuilt paths
        trees = [*huffman_enumerate(ex4), *huffman_enumerate(ex5),
                 *(tree for tree in random_trees() if not tree.is_complete)]
        for tree in trees:
            for kind in KIND_ORDER:
                for move in available_swaps(tree, {kind}):
                    swapped = node_swap(tree, move)
                    assert code_from_tree(swapped) == swapped_code(tree, move)

    def test_deep_caterpillar_sibling_swap(self):
        # codewords 1^i 0 for i < n - 1, then 1^(n-1): path length n - 1
        n = 1100
        src = Source.from_weights([("s%d" % i, 1) for i in range(n)])
        words = {"s%d" % i: "1" * i + "0" for i in range(n - 1)}
        words["s%d" % (n - 1)] = "1" * (n - 1)
        tree = tree_from_code(src, words)
        last, prev = "s%d" % (n - 1), "s%d" % (n - 2)
        u, v = sorted((tree.leaf_id(last), tree.leaf_id(prev)))
        out = node_swap(tree, SwapMove(u, v, SwapKind.SAME_PARENT))
        assert out.depth_of(last) == n - 1
        assert out.path(out.leaf_id(last)) == words[prev]
        assert out.path(out.leaf_id(prev)) == words[last]


class TestSwapMove:
    def test_value_semantics(self):
        move = SwapMove(1, 2, SwapKind.SAME_ROW)
        assert (repr(move)
                == "SwapMove(u=1, v=2, kind=<SwapKind.SAME_ROW: 'row'>)")
        same = SwapMove(u=1, v=2, kind=SwapKind.SAME_ROW)
        assert move == same and hash(move) == hash(same)
        assert (move.u, move.v, move.kind) == (1, 2, SwapKind.SAME_ROW)
        assert move != SwapMove(1, 2, SwapKind.SAME_PROBABILITY)
        assert move != SwapMove(1, 3, SwapKind.SAME_ROW)
        for field in ("u", "v", "kind"):
            with pytest.raises(AttributeError):
                setattr(move, field, 3)
        assert move == SwapMove(1, 2, SwapKind.SAME_ROW)

    @pytest.mark.parametrize("text", [
        "", "row 1 0 1", "row 1 0 1 1 1", "parent"])
    def test_move_text_needs_five_fields(self, ex4, text):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        with pytest.raises(ParseError,
                           match="^expected 'kind row_u idx_u row_v idx_v': "
                           "%s$" % re.escape(repr(text))):
            move_from_text(h1, text)

    def test_listed_moves_round_trip_through_text(self, ex4, ex5):
        for source in (ex4, ex5):
            for tree in huffman_enumerate(source):
                for kinds in [{kind} for kind in KIND_ORDER] + [set(SwapKind)]:
                    for move in available_swaps(tree, kinds):
                        text = move_to_text(tree, move)
                        assert move_from_text(tree, text) == move


class TestAvailableSwaps:
    def test_two_leaf_tree(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        tree = tree_from_code(src, {"x": "0", "y": "1"})
        moves = available_swaps(tree, {SwapKind.SAME_PARENT})
        assert len(moves) == 1

    def test_ex1_same_parent_count(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        moves = available_swaps(h1, {SwapKind.SAME_PARENT})
        assert len(moves) == len(ex1) - 1 == 3

    def test_ex3_prob_swap_includes_ab(self, ex3):
        _, c = load_tree("ex3.src", "ex3_c.code")
        pairs = {(m.u, m.v) for m in
                 available_swaps(c, {SwapKind.SAME_PROBABILITY})}
        a, b = sorted((c.leaf_id("a"), c.leaf_id("b")))
        assert (a, b) in pairs

    def test_same_prob_moves_on_huffman_stay_near(self, ex5):
        # nodes of equal probability in a Huffman tree lie in the same
        # or adjacent rows
        for tree in huffman_enumerate(load_tree("ex5.src",
                                                "ex5_h1.code")[0]):
            for move in available_swaps(tree,
                                        {SwapKind.SAME_PROBABILITY}):
                du = tree.depths[move.u]
                dv = tree.depths[move.v]
                assert abs(du - dv) <= 1

    def test_one_move_per_pair_with_first_kind(self, ex4, ex5):
        for source in (ex4, ex5):
            for tree in huffman_enumerate(source):
                moves = available_swaps(tree, set(KIND_ORDER))
                pairs = [(m.u, m.v) for m in moves]
                assert len(pairs) == len(set(pairs))
                for move in moves:
                    assert move.kind is _first_kind(tree, move.u, move.v)
                single = set()
                for kind in KIND_ORDER:
                    single |= {(m.u, m.v)
                               for m in available_swaps(tree, {kind})}
                assert set(pairs) == single


class TestClosure:
    def test_ex1_same_parent_closure(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        closure = swap_closure(ex1, h1, {SwapKind.SAME_PARENT})
        assert len(closure.members) == 2 ** (len(ex1) - 1) == 8
        assert not closure.truncated
        for label in closure.members:
            assert is_huffman(tree_for_label(ex1, label))

    def test_example4_closures(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        _, c = load_tree("ex4.src", "ex4_c.code")
        parent_prob = swap_closure(ex4, h1, PARENT_PROB)
        assert h2.label in parent_prob.members
        assert c.label not in parent_prob.members
        assert c.label not in swap_closure(ex4, h2, PARENT_PROB).members
        row_prob = swap_closure(ex4, h2, ROW_PROB)
        assert c.label in row_prob.members

    def test_huffman_closed_under_parent_prob(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        closure = swap_closure(ex4, h1, PARENT_PROB)
        for label in closure.members:
            assert is_huffman(tree_for_label(ex4, label))

    def test_moves_back_are_not_new_members(self, ex4):
        # the 24-tree class closes well below the cap only if every move
        # back to a recorded tree is recognised as one
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        closure = swap_closure(ex4, h1, PARENT_PROB, cap=100)
        assert not closure.truncated
        assert len(set(closure.members)) == len(closure.members) == 24

    def test_truncation_flagged(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        closure = swap_closure(ex4, h1, PARENT_PROB, cap=2)
        assert closure.truncated
        assert len(closure.members) == 2

    def test_cap_counts_recorded_members(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        closure = swap_closure(ex4, h1, PARENT_PROB, cap=7)
        assert closure.truncated
        assert len(closure.members) == 7

    @pytest.mark.parametrize("cap", [0, -5])
    def test_rejects_cap_below_one(self, ex4, cap):
        # the start tree is always recorded, so no closure fits in cap < 1
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        with pytest.raises(ValueError, match="at least 1, got %d" % cap):
            swap_closure(ex4, h1, {SwapKind.SAME_ROW}, cap=cap)

    def test_rejects_tree_over_another_source(self, ex4):
        # prob swaps depend on the weights, so the tree's must be the source's
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        uniform = Source.from_weights((sym, 1) for sym in ex4.symbols)
        with pytest.raises(AlphabetMismatch):
            swap_closure(uniform, h1, {SwapKind.SAME_PROBABILITY})


class TestSwapEquivalent:
    def test_example4_certificate(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        moves = swap_equivalent(ex4, h1, h2, PARENT_PROB)
        assert moves is not None
        assert replay(h1, moves).label == h2.label

    def test_example4_not_row_equivalent(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        assert swap_equivalent(ex4, h1, h2, {SwapKind.SAME_ROW}) is None

    def test_reflexive(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        assert swap_equivalent(ex4, h1, h1, PARENT_PROB) == []

    def test_rejects_trees_over_another_source(self, ex4):
        # same shape, other weights: the trees differ, so [] would be wrong
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        uniform = Source.from_weights((sym, 1) for sym in ex4.symbols)
        other = tree_from_code(uniform, code_from_tree(h1))
        assert other.shape == h1.shape and other != h1
        with pytest.raises(AlphabetMismatch):
            swap_equivalent(ex4, h1, other, {SwapKind.SAME_ROW})
        with pytest.raises(AlphabetMismatch):
            swap_equivalent(uniform, h1, other, {SwapKind.SAME_ROW})

    def test_deep_caterpillar(self):
        # shapes 1,099 levels deep: comparing two equal nested tuples built
        # apart, or two that differ only at the bottom, would recurse past
        # the default recursion limit
        src, words = caterpillar(1100)
        tree = tree_from_code(src, words)
        copy = tree_from_code(src, words)
        assert swap_equivalent(src, tree, copy, {SwapKind.SAME_PARENT}) == []
        bottom = tree.parents[-1]
        move = SwapMove(tree.lefts[bottom], tree.rights[bottom],
                        SwapKind.SAME_PARENT)
        target = node_swap(tree, move)
        # every other neighbour is compared with the target, then skipped
        assert swap_equivalent(src, tree, target, {SwapKind.SAME_PARENT},
                               cap=1) == [move]
        closure = swap_closure(src, target, {SwapKind.SAME_PARENT}, cap=3)
        assert closure.truncated and len(closure.members) == 3

    def test_certificate_round_trips_through_text(self, ex4):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        moves = swap_equivalent(ex4, h1, h2, PARENT_PROB)
        current = h1
        for move in moves:
            text = move_to_text(current, move)
            assert move_from_text(current, text) == SwapMove(
                min(move.u, move.v), max(move.u, move.v), move.kind)
            current = node_swap(current, move)
        assert current.label == h2.label

    def test_move_text_rejects_negative_numbers(self, ex4):
        # Python indexing would resolve -1 from the end of a row
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        for text in ("row -1 -1 -1 -2", "row 2 0 -2 1", "prob 1 -1 2 0"):
            with pytest.raises(ParseError, match="negative"):
                move_from_text(h1, text)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_rejects_cap_below_one(self, ex4, cap):
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        for target in (h1, h2):  # equal trees too, which need no search
            with pytest.raises(ValueError, match="at least 1, got %d" % cap):
                swap_equivalent(ex4, h1, target, PARENT_PROB, cap=cap)

    def test_cap_shared_with_closure(self, ex4):
        # h2 is first reached from the 7th recorded tree, so a cap of 7
        # decides the question and a cap of 6 does not
        _, h1 = load_tree("ex4.src", "ex4_h1.code")
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        with pytest.raises(Truncated):
            swap_equivalent(ex4, h1, h2, PARENT_PROB, cap=6)
        moves = swap_equivalent(ex4, h1, h2, PARENT_PROB, cap=7)
        assert len(moves) == 3
        assert replay(h1, moves).label == h2.label


def _first_kind(tree, u, v):
    if tree.parents[u] == tree.parents[v]:
        return SwapKind.SAME_PARENT
    if tree.depths[u] == tree.depths[v]:
        return SwapKind.SAME_ROW
    return SwapKind.SAME_PROBABILITY


def _id_at_path(tree, path):
    node = tree.root
    for bit in path:
        node = (tree.lefts if bit == "0" else tree.rights)[node]
    return node
