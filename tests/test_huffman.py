import random
from fractions import Fraction

import pytest

from prefixcodes import (
    Source,
    TiePolicy,
    code_from_tree,
    code_lengths,
    expected_length,
    huffman_build,
    huffman_enumerate,
    huffman_length,
    huffmanize,
    is_huffman,
    sibling_property,
    sibling_property_exhaustive,
    tree_from_code,
)
from prefixcodes import huffman
from prefixcodes.core import CodeTree, Oriented, interned, orbit, shape_label
from prefixcodes.huffman import row_sorted
from prefixcodes.errors import CapExceeded, NotComplete, NotOptimal
from prefixcodes.oracle import min_expected_length
from conftest import load_code, load_tree

ALL_POLICIES = list(TiePolicy)


def enumerate_by_resorting(source, cap):
    """Sorted labels of every Huffman tree, or a CapExceeded message, from
    a depth-first search that memoises each state's set of trees and uses
    the plain successor step: every pair of nodes is tested against the
    re-sorted weights, and every successor state is re-sorted by label."""
    memo = {}

    def successors(state):
        weights = sorted(w for _, w, _ in state)
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                wi, wj = state[i][1], state[j][1]
                if sorted((wi, wj)) != weights[:2]:
                    continue
                rest = state[:i] + state[i + 1:j] + state[j + 1:]
                for left, right in ((state[i], state[j]),
                                    (state[j], state[i])):
                    merged = ("(%s,%s)" % (left[0], right[0]), wi + wj,
                              (left[2], right[2]))
                    yield tuple(sorted(rest + (merged,),
                                       key=lambda t: t[0]))

    def fold(out, trees):
        out.update(trees)
        if len(out) > cap:
            raise CapExceeded("at least %d distinct Huffman trees exceed "
                              "cap %d" % (len(out), cap))

    start = tuple(sorted(zip(source.symbols, source.weights,
                             source.symbols)))
    stack = [(start, successors(start), set())]
    try:
        while stack:
            state, todo, out = stack[-1]
            for nxt in todo:
                key = tuple(t[0] for t in nxt)
                trees = (nxt[0][2],) if len(nxt) == 1 else memo.get(key)
                if trees is None:
                    stack.append((nxt, successors(nxt), set()))
                    break
                fold(out, trees)
            else:
                stack.pop()
                trees = memo[tuple(t[0] for t in state)] = frozenset(out)
                if stack:
                    fold(stack[-1][2], trees)
    except CapExceeded as exc:
        return str(exc)
    return sorted(map(shape_label, trees))


class TestBuild:
    def test_policies_are_named_as_on_the_command_line(self):
        assert [p.value for p in ALL_POLICIES] == [
            "first-left", "first-right", "last-left", "last-right"]
        for policy in ALL_POLICIES:
            assert TiePolicy(policy.value) is policy

    def test_each_policy_on_three_tied_symbols(self):
        # first or last of the equal least nodes in pool order, where a
        # merged node joins the end; the node taken first on either side
        src = Source.from_weights([("a", 1), ("b", 1), ("c", 1)])
        labels = {p.value: huffman_build(src, p).label for p in ALL_POLICIES}
        assert labels == {"first-left": "(c,(a,b))",
                          "first-right": "((b,a),c)",
                          "last-left": "(a,(c,b))",
                          "last-right": "((b,c),a)"}

    def test_dyadic_lengths(self, ex1):
        tree = huffman_build(ex1)
        lengths = code_lengths(ex1, code_from_tree(tree))
        assert sorted(lengths) == [1, 2, 3, 3]
        assert expected_length(ex1, lengths) == Fraction(7, 4)

    def test_two_symbols(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        assert code_from_tree(huffman_build(src)).lengths() == {"x": 1, "y": 1}

    def test_example3_length(self, ex3):
        tree = huffman_build(ex3)
        lengths = code_lengths(ex3, code_from_tree(tree))
        assert expected_length(ex3, lengths) == Fraction(15, 8)

    def test_always_complete_and_sibling(self, ex1, ex3, ex4, ex5):
        for src in (ex1, ex3, ex4, ex5):
            for policy in ALL_POLICIES:
                tree = huffman_build(src, policy)
                assert tree.is_complete
                assert sibling_property(tree) is not None

    def test_build_in_enumeration(self, ex1, ex3, ex4, ex5):
        for src in (ex1, ex3, ex4, ex5):
            labels = {t.label for t in huffman_enumerate(src)}
            for policy in ALL_POLICIES:
                assert huffman_build(src, policy).label in labels


def tie_heavy_sources(seed, count, max_n):
    """Sources of 2 to max_n symbols with weights 1-3, so most merges tie."""
    rng = random.Random(seed)
    for _ in range(count):
        yield Source.from_weights(("s%d" % i, rng.randint(1, 3))
                                  for i in range(rng.randint(2, max_n)))


class TestLength:
    def test_matches_every_policy(self, ex1, ex2, ex3, ex4, ex5):
        sources = [ex1, ex2, ex3, ex4, ex5, *tie_heavy_sources(3, 60, 40)]
        rng = random.Random(4)
        sources += [Source.from_weights(("s%d" % i, rng.randint(1, 10 ** 6))
                                        for i in range(n))
                    for n in (2, 3, 50, 300)]
        for src in sources:
            for policy in ALL_POLICIES:
                assert (huffman_length(src)
                        == huffman_build(src, policy).expected_length()), src

    def test_matches_brute_force_minimum(self, ex1, ex3, ex4, ex5):
        for src in (ex1, ex3, ex4, ex5, *tie_heavy_sources(5, 40, 7)):
            assert huffman_length(src) == min_expected_length(src), src

    def test_builds_no_tree(self, monkeypatch, ex4):
        expected = huffman_build(ex4).expected_length()

        def no_tree(*args):
            raise AssertionError("huffman_length built a tree")

        monkeypatch.setattr(CodeTree, "__init__", no_tree)
        assert huffman_length(ex4) == expected


class TestEnumerate:
    def test_no_merge_ambiguity_count(self, ex1):
        # one merge order, two sibling orientations per internal node
        assert len(huffman_enumerate(ex1)) == 2 ** (len(ex1) - 1)

    def test_two_symbols(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        assert [t.label for t in huffman_enumerate(src)] == ["(x,y)", "(y,x)"]

    def test_contains_both_example4_trees(self, ex4):
        labels = {t.label for t in huffman_enumerate(ex4)}
        h1 = tree_from_code(ex4, load_code("ex4_h1.code"))
        h2 = tree_from_code(ex4, load_code("ex4_h2.code"))
        c = tree_from_code(ex4, load_code("ex4_c.code"))
        assert h1.label in labels
        assert h2.label in labels
        assert c.label not in labels

    def test_deterministic_order(self, ex4):
        labels = [t.label for t in huffman_enumerate(ex4)]
        assert labels == sorted(labels)

    def test_cap(self, ex4):
        with pytest.raises(CapExceeded, match="^at least 2 distinct Huffman "
                           "trees exceed cap 1$"):
            huffman_enumerate(ex4, cap=1)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_cap_below_one(self, ex2, cap):
        with pytest.raises(ValueError, match="^Huffman tree cap must be at "
                           "least 1, got %d$" % cap):
            huffman_enumerate(ex2, cap=cap)

    def test_cap_trips_during_search(self):
        # 10 equiprobable symbols have more Huffman trees than the
        # default cap; the search stops once its partial result passes it
        src = Source.from_weights([("s%d" % i, 1) for i in range(10)])
        with pytest.raises(CapExceeded, match=r"^at least \d+ distinct "
                           r"Huffman trees exceed cap 100000$"):
            huffman_enumerate(src)

    @pytest.mark.parametrize("cap", [1, 3, 16, 100, 100_000])
    def test_matches_resorting_successor_step(self, cap):
        # tied sources: the same distinct trees in the same order, and
        # the cap trips on the same sources, as soon as it is passed
        rng = random.Random(cap)
        for _ in range(40):
            n = rng.randint(2, 7)
            src = Source.from_weights(
                ("s%d" % i, rng.randint(1, 3)) for i in range(n))
            want = enumerate_by_resorting(src, cap)
            if isinstance(want, str):
                with pytest.raises(CapExceeded) as info:
                    huffman_enumerate(src, cap)
                assert str(info.value) == (
                    "at least %d distinct Huffman trees exceed cap %d"
                    % (cap + 1, cap)), src.weights
                continue
            got = [t.label for t in huffman_enumerate(src, cap)]
            assert len(set(got)) == len(got), src.weights
            assert got == want, src.weights

    def test_equal_subtrees_are_one_shape(self, ex2):
        # the search interns every merged subtree, so across all trees it
        # returns, internal nodes with equal labels hold one shape object
        shapes = {id(tree.shapes[nid]): tree.shapes[nid]
                  for tree in huffman_enumerate(ex2)
                  for nid in tree.internal_ids}
        labels = {shape_label(shape) for shape in shapes.values()}
        assert len(shapes) == len(labels) == 37_872

    @pytest.mark.parametrize("n, entered", [(10, 780), (16, 462)])
    def test_cap_trips_on_forms_before_any_tree(self, monkeypatch, n,
                                                entered):
        # every leaf and merge is entered once, oriented, through the
        # `Oriented` table, and the guard counts 2^(n-1) trees per form,
        # so it trips after a few forms and builds no tree
        calls = []

        class Counted(Oriented):
            def setdefault(self, key, shape):
                calls.append(shape)
                return super().setdefault(key, shape)

        def no_tree(*args):
            raise AssertionError("a tree was built before the cap tripped")

        monkeypatch.setattr(huffman, "Oriented", Counted)
        monkeypatch.setattr(huffman, "CodeTree", no_tree)
        src = Source.from_weights([("s%d" % i, 1) for i in range(n)])
        with pytest.raises(CapExceeded, match="^at least 100001 distinct "
                           "Huffman trees exceed cap 100000$"):
            huffman_enumerate(src)
        assert calls[:n] == list(src.symbols)
        assert len(calls) == entered

    def test_trees_are_whole_flip_orbits(self, monkeypatch, ex1, ex2, ex3,
                                         ex4, ex5):
        # each canonical form stands for all 2^(n-1) of its orientations,
        # and the forms the search expands are its trees' canonical forms
        expanded = []

        def recorded(form, join):
            expanded.append(shape_label(form))
            return orbit(form, join)

        monkeypatch.setattr(huffman, "orbit", recorded)
        for src in (ex1, ex2, ex3, ex4, ex5):
            expanded.clear()
            trees = huffman_enumerate(src)
            table = Oriented({}, src)
            forms = {shape_label(interned(tree, table)) for tree in trees}
            assert len(forms) * 2 ** (len(src) - 1) == len(trees), src
            assert sorted(expanded) == sorted(forms), src

    def test_members_all_pass_sibling_property(self, ex4, ex5):
        for src in (ex4, ex5):
            for tree in huffman_enumerate(src):
                assert sibling_property(tree) is not None


class TestSiblingProperty:
    def test_ex3_huffman_has_listing(self, ex3):
        _, tree = load_tree("ex3.src", "ex3_h.code")
        listing = sibling_property(tree)
        assert listing is not None
        # non-increasing probabilities, siblings adjacent
        probs = [tree.prob(i) for i in listing.order]
        assert probs == sorted(probs, reverse=True)
        assert set(listing.order) == set(range(1, len(tree.parents)))
        for k in range(0, len(listing.order), 2):
            u, v = listing.order[k], listing.order[k + 1]
            assert tree.parents[u] == tree.parents[v]

    def test_ex3_c_has_none(self, ex3):
        _, tree = load_tree("ex3.src", "ex3_c.code")
        assert sibling_property(tree) is None
        assert sibling_property_exhaustive(tree) is None

    def test_two_leaves(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        tree = tree_from_code(src, {"x": "0", "y": "1"})
        assert sibling_property(tree).order == (1, 2)

    def test_not_complete(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        with pytest.raises(NotComplete):
            sibling_property(tree)

    def test_exhaustive_not_complete(self):
        src = Source.from_weights([("a", 2), ("b", 1), ("c", 1)])
        tree = tree_from_code(src, {"a": "0", "b": "10", "c": "110"})
        with pytest.raises(NotComplete,
                           match="^a non-root node lacks a sibling$"):
            sibling_property_exhaustive(tree)

    def test_greedy_matches_backtracking(self, ex1, ex3, ex4, ex5):
        from prefixcodes.oracle import enumerate_complete_trees
        for src in (ex1, ex3, ex4, ex5):
            for tree in enumerate_complete_trees(src).members:
                greedy = sibling_property(tree)
                full = sibling_property_exhaustive(tree)
                assert (greedy is None) == (full is None), tree.label


class TestIsHuffman:
    def test_example4(self, ex4):
        _, h2 = load_tree("ex4.src", "ex4_h2.code")
        _, c = load_tree("ex4.src", "ex4_c.code")
        assert is_huffman(h2)
        assert not is_huffman(c)

    def test_example2_h1(self, ex2):
        _, h1 = load_tree("ex2.src", "ex2_h1.code")
        assert is_huffman(h1)

    def test_non_complete_is_not_huffman(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        assert not is_huffman(tree)


class TestHuffmanize:
    def test_ex4_c(self, ex4):
        _, c = load_tree("ex4.src", "ex4_c.code")
        out = huffmanize(c)
        assert is_huffman(out)
        assert all(out.depth_of(s) == 2 for s in ex4.symbols)
        assert (code_lengths(ex4, code_from_tree(c))
                == code_lengths(ex4, code_from_tree(out)))

    def test_ex3_h(self, ex3):
        _, h = load_tree("ex3.src", "ex3_h.code")
        out = huffmanize(h)
        assert is_huffman(out)
        assert (code_lengths(ex3, code_from_tree(h))
                == code_lengths(ex3, code_from_tree(out)))

    def test_row_sorted_huffman_is_fixed_point(self, ex1):
        _, h1 = load_tree("ex1.src", "ex1_h1.code")
        assert huffmanize(h1).label == h1.label

    def test_rejects_non_optimal(self, ex3):
        _, c = load_tree("ex3.src", "ex3_c.code")
        with pytest.raises(NotOptimal):
            huffmanize(c)

    def test_rejects_non_complete(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        with pytest.raises(NotComplete):
            huffmanize(tree)

    def test_row_sorted_rejects_non_complete(self):
        src = Source.from_weights([("a", 2), ("b", 1), ("c", 1)])
        tree = tree_from_code(src, {"a": "0", "b": "10", "c": "110"})
        with pytest.raises(NotComplete,
                           match="^a non-root node lacks a sibling$"):
            row_sorted(tree)


class TestTreeChecksReadTheTreesSource:
    """The tree checks take no source: a tree over weights (1, 2, 3, 4)
    with the Huffman shape of weights (4, 3, 2, 1) over the same symbols
    is judged by its own weights."""

    @pytest.fixture
    def trees(self):
        a = Source.from_weights(zip("abcd", (4, 3, 2, 1)))
        b = Source.from_weights(zip("abcd", (1, 2, 3, 4)))
        t = huffman_build(a)
        return t, tree_from_code(b, code_from_tree(t))

    def test_foreign_huffman_shape_is_not_huffman(self, trees):
        t, over_b = trees
        assert is_huffman(t)
        assert not is_huffman(over_b)
        assert sibling_property(over_b) is None
        assert sibling_property_exhaustive(over_b) is None

    def test_huffmanize_rejects_the_foreign_shape(self, trees):
        _, over_b = trees
        assert over_b.expected_length() == Fraction(13, 5)
        assert huffman_build(over_b.source).expected_length() == Fraction(
            19, 10)
        with pytest.raises(NotOptimal):
            huffmanize(over_b)

    def test_results_keep_the_trees_source(self, trees):
        t, over_b = trees
        assert huffmanize(t).source is t.source
        assert row_sorted(over_b).source is over_b.source
