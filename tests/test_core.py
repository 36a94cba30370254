import random
import re
from fractions import Fraction

import pytest

from prefixcodes import (
    CodeTree,
    MonotonicityWitness,
    PrefixCode,
    Source,
    SwapKind,
    code_from_lengths,
    code_from_tree,
    code_lengths,
    expected_length,
    improve_from_witness,
    is_optimal,
    kraft_sum,
    strong_monotonicity_check,
    enumerate_complete_trees,
    tree_from_code,
)
from prefixcodes import swaps
from prefixcodes.core import Oriented, interned, orbit, shape_label
from prefixcodes.oracle import strong_monotonicity_scan
from prefixcodes.swaps import closure_shapes
from prefixcodes.errors import (
    AlphabetMismatch,
    DuplicateSymbol,
    InvalidSource,
    InvalidTree,
    KraftExceeded,
    PrefixViolation,
    UnknownSymbol,
)
from conftest import (
    caterpillar,
    code_by_paths,
    kraft_sum_by_fractions,
    load_code,
    load_lengths,
    load_source,
    load_tree,
    random_trees,
    reference_arena,
)
from test_package_merge import random_words


class TestSource:
    def test_valid(self, ex1):
        assert ex1.symbols == ("a", "b", "c", "d")
        assert ex1.prob("a") == Fraction(1, 2)
        assert ex1.prob_of(["c", "d"]) == Fraction(1, 4)

    def test_from_weights(self):
        src = Source.from_weights([("x", 3), ("y", 1)])
        assert src.prob("x") == Fraction(3, 4)

    @pytest.mark.parametrize("weights", [(3, 1), (2, 4, 6), (5, 5),
                                         (6, 10, 14), (7, 2, 1)])
    def test_from_weights_matches_reduced_fractions(self, weights):
        # weights with a common factor reduce as their Fractions do
        pairs = [("s%d" % i, w) for i, w in enumerate(weights)]
        total = sum(weights)
        by_weight = Source.from_weights(pairs)
        by_prob = Source((s, Fraction(w, total)) for s, w in pairs)
        assert by_weight == by_prob
        assert hash(by_weight) == hash(by_prob)
        assert repr(by_weight) == repr(by_prob)
        assert by_weight.den == by_prob.den
        assert by_weight.weights == by_prob.weights
        assert [by_weight.prob(s) for s, _ in pairs] == [
            Fraction(w, total) for w in weights]

    def test_error_messages(self):
        with pytest.raises(InvalidSource, match=r"^probabilities sum to "
                           r"3/4, expected 1$"):
            Source([("x", Fraction(1, 2)), ("y", Fraction(1, 4))])
        for make in (lambda: Source([("x", 0), ("y", 1)]),
                     lambda: Source.from_weights([("x", 0), ("y", 1)])):
            with pytest.raises(InvalidSource, match=r"^probability of 'x' "
                               r"is not positive$"):
                make()
        with pytest.raises(InvalidSource, match="^weights must be positive$"):
            Source.from_weights([("x", 0), ("y", 0)])
        # checked before any arithmetic, so no TypeError from `gcd`
        for weights in ([("a", 1.5), ("b", 2.5)], [("a", True), ("b", 1)],
                        [("a", 1), ("b", Fraction(2))]):
            bad = next(sym for sym, w in weights if type(w) is not int)
            with pytest.raises(InvalidSource, match="^weight of '%s' is not "
                               "an integer$" % bad):
                Source.from_weights(weights)
        # a float never enters the core, even one that sums exactly
        for probs, kind in (([("a", 0.5), ("b", 0.5)], "float"),
                            ([("a", 0.1), ("b", 0.9)], "float"),
                            ([("a", True), ("b", False)], "bool")):
            with pytest.raises(InvalidSource, match="^probability of 'a' is "
                               "a %s, not a Fraction$" % kind):
                Source(probs)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSource):
            Source([("x", Fraction(1, 2)), ("y", Fraction(1, 4))])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSource):
            Source([("x", Fraction(0)), ("y", Fraction(1))])

    def test_rejects_single_symbol(self):
        with pytest.raises(InvalidSource):
            Source([("x", Fraction(1))])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateSymbol, match="^duplicate symbol 'x'$"):
            Source([("x", Fraction(1, 2)), ("x", Fraction(1, 2))])
        with pytest.raises(DuplicateSymbol, match="^duplicate symbol 'x'$"):
            Source.from_weights([("x", 1), ("x", 1)])

    def test_rejects_an_empty_symbol(self):
        with pytest.raises(InvalidSource,
                           match="^symbols must be nonempty strings$"):
            Source.from_weights([("", 1), ("y", 1)])

    @pytest.mark.parametrize("char", ["(", ")", ",", "_", " ", "\t", "\n"])
    def test_rejects_reserved_characters(self, char):
        # label syntax in a symbol would let two distinct shapes share a label
        sym = "a%sb" % char
        message = "^symbol %s contains a reserved character$" % re.escape(
            repr(sym))
        for make in (lambda: Source([(sym, Fraction(1, 2)),
                                     ("y", Fraction(1, 2))]),
                     lambda: Source.from_weights([(sym, 1), ("y", 1)])):
            with pytest.raises(InvalidSource, match=message):
                make()


class TestPrefixCode:
    def test_prefix_free_enforced(self):
        with pytest.raises(PrefixViolation):
            PrefixCode({"a": "0", "b": "00"})

    def test_empty_word_rejected(self):
        with pytest.raises(PrefixViolation):
            PrefixCode({"a": "", "b": "1"})

    def test_duplicate_symbol(self):
        with pytest.raises(DuplicateSymbol, match="^duplicate symbol 'a'$"):
            PrefixCode([("a", "0"), ("a", "1")])

    def test_non_string_word_rejected(self):
        with pytest.raises(PrefixViolation, match="^codeword for 'a' must be "
                           "a nonempty 0/1 string$"):
            PrefixCode({"a": 10, "b": "0"})

    def test_hash_and_repr(self):
        code = PrefixCode({"a": "0", "b": "10", "c": "11"})
        same = PrefixCode([("c", "11"), ("a", "0"), ("b", "10")])
        assert code == same and hash(code) == hash(same)
        assert code != PrefixCode({"a": "1", "b": "00", "c": "01"})
        assert repr(code) == "PrefixCode(a:0, b:10, c:11)"


class TestCodeTree:
    ABC = Source.from_weights([("a", 1), ("b", 1), ("c", 2)])

    @pytest.mark.parametrize("shape, message", [
        ("a", "the root of a code tree cannot be a leaf"),
        ((("a", "b"), ("a", "c")), "duplicate leaf symbols"),
        ((("a", "b"), ("c", "x")),
         "tree leaves do not match the source alphabet"),
        (("a", "b"), "tree leaves do not match the source alphabet"),
        ((("a", "b"), ("c", (None, None))), "internal node with no children"),
        (("a", "b", "c"), "tree node is neither a symbol nor a pair"),
        (("a", 3), "tree node is neither a symbol nor a pair"),
        (None, "tree node is neither a symbol nor a pair"),
        ((("a", "b"), ("c",)), "tree node is neither a symbol nor a pair"),
        (["a", ["b", "c"]], "tree node is neither a symbol nor a pair"),
        (("a", ["b", "c"]), "tree node is neither a symbol nor a pair"),
    ], ids=["leaf-root", "duplicate-leaf", "unknown-leaf", "missing-leaf",
            "no-children", "triple", "int-child", "none-root",
            "one-tuple-child", "list-root", "list-child"])
    def test_rejects_malformed_shape(self, shape, message):
        for build in (CodeTree, reference_arena):
            with pytest.raises(InvalidTree, match="^%s$" % message):
                build(self.ABC, shape)

    def test_hash_and_repr(self):
        tree = CodeTree(self.ABC, ("c", ("a", "b")))
        same = CodeTree(Source.from_weights([("a", 2), ("b", 2), ("c", 4)]),
                        ("c", ("a", "b")))
        assert tree == same and hash(tree) == hash(same)
        assert tree != CodeTree(self.ABC, (("a", "b"), "c"))
        assert repr(tree) == "CodeTree((c,(a,b)))"


def _unordered(shape):
    """A shape with the two children of each node as an unordered pair."""
    if isinstance(shape, tuple):
        if None in shape:
            return tuple(map(_unordered, shape))
        return frozenset(map(_unordered, shape))
    return shape


def _least_index(source, shape):
    if isinstance(shape, tuple):
        return min(_least_index(source, child) for child in shape
                   if child is not None)
    return source.index(shape)


def _is_canonical(source, shape):
    """Each node with two children holds the least index on its left."""
    if not isinstance(shape, tuple):
        return True
    left, right = shape
    if None not in shape and (_least_index(source, left)
                              > _least_index(source, right)):
        return False
    return all(_is_canonical(source, child) for child in shape
               if child is not None)


class TestCanonicalOrientation:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_one_form_per_flip_class(self, n):
        # every ordered tree: trees that differ only by sibling swaps (the
        # same unordered tree) share one form, one object in the table,
        # and trees that differ otherwise do not
        src = Source.from_weights(("s%d" % i, 1) for i in range(n))
        trees = list(enumerate_complete_trees(src).members)
        table, forms = Oriented({}, src), {}  # unordered tree -> its form
        for tree in trees:
            form = interned(tree, table)
            assert forms.setdefault(_unordered(tree.shape), form) is form
            assert _unordered(form) == _unordered(tree.shape)
            assert _is_canonical(src, form)
        assert len(set(map(id, forms.values()))) == len(forms) == (
            len(trees) >> (n - 1))

    @pytest.mark.parametrize("n, seed", [(6, 1), (6, 2), (7, 3), (7, 4)])
    def test_seeded_flip_class_has_one_form(self, n, seed):
        # a random tree's flip class is its closure under sibling swaps
        rng = random.Random(seed)
        src = Source.from_weights(("s%d" % i, rng.randint(1, 4))
                                  for i in range(n))
        nodes = list(src.symbols)
        while len(nodes) > 1:
            left = nodes.pop(rng.randrange(len(nodes)))
            nodes.append((left, nodes.pop(rng.randrange(len(nodes)))))
        shapes, truncated = closure_shapes(CodeTree(src, nodes[0]),
                                           {SwapKind.SAME_PARENT})
        assert not truncated and len(shapes) == 1 << (n - 1)
        table = Oriented({}, src)
        forms = {id(interned(CodeTree(src, shape), table))
                 for shape in shapes}
        assert len(forms) == 1
        form = interned(CodeTree(src, shapes[-1]), table)
        assert _is_canonical(src, form)

    def test_idempotent(self):
        for tree in random_trees():  # complete and incomplete
            table = Oriented({}, tree.source)
            form = interned(tree, table)
            again = CodeTree(tree.source, form)
            assert interned(again, table) is form
            assert interned(again, Oriented({}, tree.source)) == form
            assert _unordered(form) == _unordered(tree.shape)

    def test_equal_forms_are_one_object(self, ex4):
        tree = tree_from_code(ex4, load_code("ex4_h1.code"))
        flipped = CodeTree(ex4, (tree.shape[1], tree.shape[0]))
        table = Oriented({}, ex4)
        assert interned(tree, table) is interned(flipped, table)
        apart = interned(flipped, Oriented({}, ex4))
        assert apart == interned(tree, table)
        assert apart is not interned(tree, table)

    @pytest.mark.parametrize("shape, form", [
        ((("c", None), ("b", "a")), (("a", "b"), ("c", None))),
        ((None, (("c", "b"), "a")), (None, ("a", ("b", "c")))),
        ((((None, "c"), "b"), "a"), ("a", ("b", (None, "c")))),
    ])
    def test_a_node_with_one_child_keeps_its_side(self, shape, form):
        src = Source.from_weights([("a", 1), ("b", 1), ("c", 1)])
        assert interned(CodeTree(src, shape), Oriented({}, src)) == form


def _wrapped(rng, shape):
    """`shape` below 0 to 2 one-child nodes, each on a random side."""
    for _ in range(rng.randint(0, 2)):
        shape = (shape, None) if rng.random() < 0.5 else (None, shape)
    return shape


class TestOrbit:
    @staticmethod
    def _orbit(tree, n):
        """Both joins' orbits of `tree`: one tree per flip pattern, and the
        labels the label join renders are those of the tuples."""
        labels = orbit(tree.shape, swaps._join_labels)
        shapes = orbit(tree.shape, tuple)
        assert labels == [shape_label(shape) for shape in shapes]
        assert len(set(labels)) == len(labels) == 1 << (n - 1)
        return shapes

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_tree_is_its_parent_closure(self, n):
        src = Source.from_weights(("s%d" % i, 1) for i in range(n))
        classes = {}  # shape -> the ordered {parent} closure holding it
        for tree in enumerate_complete_trees(src).members:
            shapes = self._orbit(tree, n)
            if tree.shape not in classes:
                closure, truncated = closure_shapes(tree,
                                                    {SwapKind.SAME_PARENT})
                assert not truncated
                classes.update(dict.fromkeys(closure, set(closure)))
            assert set(shapes) == classes[tree.shape]

    def test_seeded_incomplete_trees(self):
        # one-child nodes never flip, whichever side their child is on
        rng, sides = random.Random(27), set()
        for _ in range(30):
            n = rng.randint(2, 6)
            src = Source.from_weights(("s%d" % i, rng.randint(1, 4))
                                      for i in range(n))
            nodes = [_wrapped(rng, symbol) for symbol in src.symbols]
            while len(nodes) > 1:
                left = nodes.pop(rng.randrange(len(nodes)))
                right = nodes.pop(rng.randrange(len(nodes)))
                nodes.append(_wrapped(rng, (left, right)))
            tree = CodeTree(src, nodes[0])
            sides.update("left" if left is None else "right"
                         for left, right in zip(tree.lefts, tree.rights)
                         if (left is None) != (right is None))
            closure, truncated = closure_shapes(tree, {SwapKind.SAME_PARENT})
            assert not truncated
            assert set(self._orbit(tree, n)) == set(closure)
        assert sides == {"left", "right"}

    def test_deep_chain(self):
        # 1,100 one-child nodes, their child on alternating sides, above
        # two leaves: nothing may recurse over the shape
        src = Source.from_weights([("a", 1), ("b", 2), ("c", 1)])
        chain = "0" + "01" * 550
        tree = tree_from_code(src, {"c": "1", "a": chain + "0",
                                    "b": chain + "1"})
        shapes = self._orbit(tree, 3)
        closure, truncated = closure_shapes(tree, {SwapKind.SAME_PARENT})
        assert not truncated
        assert sorted(map(shape_label, shapes)) == sorted(
            map(shape_label, closure))


class TestTreeFromCode:
    def test_ex1_h1(self, ex1):
        tree = tree_from_code(ex1, load_code("ex1_h1.code"))
        assert tree.label == "(a,(b,(c,d)))"
        assert tree.prob(tree.root) == 1

    def test_two_leaves(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        tree = tree_from_code(src, {"x": "0", "y": "1"})
        assert tree.label == "(x,y)"
        assert tree.max_depth == 1

    def test_prefix_violation(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        with pytest.raises(PrefixViolation):
            tree_from_code(src, {"a": "0", "b": "00"})

    def test_alphabet_mismatch(self, ex1):
        with pytest.raises(AlphabetMismatch):
            tree_from_code(ex1, {"a": "0", "b": "1"})

    def test_one_child_nodes_representable(self):
        src = Source([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
        tree = tree_from_code(src, {"a": "0", "b": "10"})
        assert not tree.is_complete
        assert tree.label == "(a,(b,_))"

    def test_paths_spell_incomplete_codes(self):
        # codewords lengthened at random leave one-child nodes at every
        # depth; the tree must hold exactly the codewords' prefixes
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 40)
            words = {"s%d" % i: word + rng.choice(["", "", "0", "1", "01"])
                     for i, word in enumerate(random_words(rng, n))}
            source = Source.from_weights((s, 1) for s in words)
            tree = tree_from_code(source, words)
            assert code_from_tree(tree).words == words

    def test_node_probability_consistency(self, ex1):
        tree = tree_from_code(ex1, load_code("ex1_h1.code"))
        for nid in tree.internal_ids:
            kids = [tree.prob(c) for c in (tree.lefts[nid], tree.rights[nid])
                    if c is not None]
            assert tree.prob(nid) == sum(kids)


class TestCodeFromTree:
    def test_ex1_h2(self, ex1):
        tree = tree_from_code(ex1, load_code("ex1_h2.code"))
        code = code_from_tree(tree)
        assert code.words == {"a": "0", "b": "11", "c": "100", "d": "101"}

    def test_ex4_c(self, ex4):
        _, tree = load_tree("ex4.src", "ex4_c.code")
        assert code_from_tree(tree).words == {"a": "00", "c": "01",
                                              "b": "10", "d": "11"}

    def test_mirror_two_leaves(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        tree = tree_from_code(src, {"x": "1", "y": "0"})
        assert code_from_tree(tree).words == {"x": "1", "y": "0"}

    def test_round_trip(self, ex1, ex3, ex4):
        for src, name in [(ex1, "ex1_h1.code"), (ex3, "ex3_h.code"),
                          (ex4, "ex4_c.code")]:
            code = load_code(name)
            tree = tree_from_code(src, code)
            assert code_from_tree(tree) == code
            assert tree_from_code(src, code_from_tree(tree)).label == tree.label

    def test_deep_caterpillar_matches_paths(self):
        source, words = caterpillar(1100)
        tree = tree_from_code(source, words)
        code = code_from_tree(tree)
        assert code.words == words
        assert list(code.words.items()) == list(
            code_by_paths(tree).words.items())


class TestCanonicalLabel:
    def test_known_labels(self, ex1):
        h1 = tree_from_code(ex1, load_code("ex1_h1.code"))
        h2 = tree_from_code(ex1, load_code("ex1_h2.code"))
        assert h1.label == "(a,(b,(c,d)))"
        assert h2.label == "(a,((c,d),b))"
        assert h1.label != h2.label


class TestCodeFromLengths:
    def test_canonical_assignment(self, ex1):
        code = code_from_lengths(ex1, (1, 2, 3, 3))
        assert code.words == {"a": "0", "b": "10", "c": "110", "d": "111"}

    def test_forced(self):
        src = Source([("x", Fraction(1, 2)), ("y", Fraction(1, 2))])
        assert code_from_lengths(src, (1, 1)).words == {"x": "0", "y": "1"}

    def test_kraft_exceeded(self):
        src = Source([("x", Fraction(1, 3)), ("y", Fraction(1, 3)),
                      ("z", Fraction(1, 3))])
        with pytest.raises(KraftExceeded):
            code_from_lengths(src, (1, 1, 1))

    def test_lengths_and_prefix_freeness_preserved(self, ex3):
        lengths = (2, 2, 3, 3)
        code = code_from_lengths(ex3, lengths)
        assert code_lengths(ex3, code) == lengths  # PrefixCode checked freeness

    def test_ties_keep_source_order(self, ex3):
        code = code_from_lengths(ex3, (3, 2, 3, 1))
        assert code.words == {"a": "110", "b": "10", "c": "111", "d": "0"}
        assert code.symbols == ex3.symbols


# every public function that takes a length vector over a source
VECTOR_ENTRY_POINTS = {
    "code_from_lengths": code_from_lengths,
    "expected_length": expected_length,
    "is_optimal": is_optimal,
    "strong_monotonicity_check": strong_monotonicity_check,
    "strong_monotonicity_scan": strong_monotonicity_scan,
    "improve_from_witness": lambda source, lengths: improve_from_witness(
        source, lengths, MonotonicityWitness(A=("x",), B=("y",), i=1, j=2)),
}


class TestLengthVectorChecks:
    @pytest.fixture
    def thirds(self):
        return Source.from_weights([("x", 1), ("y", 1), ("z", 1)])

    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
    @pytest.mark.parametrize("lengths", [(1, 2), (1, 2, 3, 3), ()])
    def test_wrong_count(self, thirds, entry, lengths):
        with pytest.raises(AlphabetMismatch):
            VECTOR_ENTRY_POINTS[entry](thirds, lengths)

    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
    @pytest.mark.parametrize("lengths", [(0, 1, 1), (1, 2, -1), (1, 2, 2.0),
                                         (1, 2, "2")])
    def test_entry_not_a_positive_integer(self, thirds, entry, lengths):
        with pytest.raises(KraftExceeded, match="not a positive integer"):
            VECTOR_ENTRY_POINTS[entry](thirds, lengths)

    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
    def test_kraft_sum_above_one(self, thirds, entry):
        with pytest.raises(KraftExceeded, match="Kraft sum 3/2 exceeds 1"):
            VECTOR_ENTRY_POINTS[entry](thirds, (1, 1, 1))

    @pytest.mark.parametrize("entry", sorted(
        set(VECTOR_ENTRY_POINTS) - {"improve_from_witness"}))
    def test_a_list_reads_as_its_tuple(self, thirds, entry):
        assert (VECTOR_ENTRY_POINTS[entry](thirds, [1, 2, 2])
                == VECTOR_ENTRY_POINTS[entry](thirds, (1, 2, 2)))

    def test_kraft_sum_checks_entries_only(self):
        assert kraft_sum((1, 1, 1)) == Fraction(3, 2)  # a sum, not a code
        for lengths in [(0, 1, 1), (1, -1), (2.0,), ("1",)]:
            with pytest.raises(KraftExceeded, match="not a positive integer"):
                kraft_sum(lengths)


class TestKraftSum:
    def test_ex3_values(self, ex3):
        lengths = dict(zip(ex3.symbols, load_lengths(ex3, "ex3_c.code")))
        assert kraft_sum(lengths[s] for s in ("c", "d")) == Fraction(1, 2)
        assert kraft_sum([lengths["a"]]) == Fraction(1, 4)
        assert kraft_sum([]) == 0
        assert kraft_sum(lengths.values()) == 1

    def test_unknown_symbol(self, ex3):
        unknown = "^unknown symbol 'zz'$"
        with pytest.raises(UnknownSymbol, match=unknown):
            ex3.index("zz")  # how a subset of a vector is picked
        with pytest.raises(UnknownSymbol, match=unknown):
            load_code("ex3_c.code").word("zz")
        with pytest.raises(UnknownSymbol, match=unknown):
            ex3.prob_of(["a", "zz"])
        _, tree = load_tree("ex3.src", "ex3_c.code")
        with pytest.raises(UnknownSymbol, match=unknown):
            tree.leaf_id("zz")

    def test_empty_subset_is_fraction_zero(self, ex3):
        total = kraft_sum([])
        assert total == Fraction(0) and isinstance(total, Fraction)

    def test_reads_any_iterable_once(self):
        assert kraft_sum(iter([1, 2, 2])) == 1
        assert kraft_sum(ln for ln in (2, 2)) == Fraction(1, 2)

    def test_deep_caterpillar_matches_fractions(self):
        source, words = caterpillar(1100)
        code = PrefixCode(words)
        lengths = code_lengths(source, code)
        assert kraft_sum(lengths) == kraft_sum_by_fractions(code, words) == 1
        deep = ["s1099", "s1098", "s3"]
        assert (kraft_sum(lengths[source.index(s)] for s in deep)
                == kraft_sum_by_fractions(code, deep))


class TestExpectedLength:
    def test_ex3(self, ex3):
        h = load_lengths(ex3, "ex3_h.code")
        assert expected_length(ex3, h) == Fraction(15, 8)
        assert expected_length(ex3, load_lengths(ex3, "ex3_c.code")) == 2

    def test_two_symbols(self):
        src = Source([("x", Fraction(1, 3)), ("y", Fraction(2, 3))])
        assert expected_length(src, (1, 1)) == 1

    def test_mismatch(self, ex3):
        with pytest.raises(AlphabetMismatch):
            code_lengths(ex3, PrefixCode({"a": "0", "b": "1"}))
        with pytest.raises(AlphabetMismatch):
            expected_length(ex3, (1, 1))


class TestCodeLengths:
    def test_source_order(self, ex3):
        code = PrefixCode({"d": "111", "c": "110", "b": "10", "a": "0"})
        assert code_lengths(ex3, code) == (1, 2, 3, 3)

    def test_extra_symbol(self, ex3):
        code = PrefixCode({"a": "00", "b": "01", "c": "10", "d": "110",
                           "e": "111"})
        with pytest.raises(AlphabetMismatch):
            code_lengths(ex3, code)
