from fractions import Fraction

from hypothesis import given, settings, strategies as st

from prefixcodes import (
    Source,
    SwapKind,
    available_swaps,
    code_from_lengths,
    code_from_tree,
    code_lengths,
    expected_length,
    huffman_build,
    is_complete,
    is_monotone,
    kraft_sum,
    node_swap,
    run_string,
    sibling_property,
    sibling_property_exhaustive,
    strong_monotonicity_check,
    tree_from_code,
)
from prefixcodes.oracle import min_expected_length
from conftest import (
    code_by_paths,
    fold_decoder_step,
    kraft_sum_by_fractions,
    reference_arena,
    swapped_code,
    tree_lengths,
)


@st.composite
def sources(draw, min_symbols=2, max_symbols=6):
    n = draw(st.integers(min_symbols, max_symbols))
    weights = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    return Source.from_weights(
        ("s%d" % i, w) for i, w in enumerate(weights))


@st.composite
def trees(draw):
    """A random complete code tree: a Huffman tree, then random swaps."""
    source = draw(sources())
    tree = huffman_build(source)
    for _ in range(draw(st.integers(0, 4))):
        moves = available_swaps(tree, {SwapKind.SAME_PARENT,
                                       SwapKind.SAME_ROW})
        if not moves:
            break
        tree = node_swap(tree, draw(st.sampled_from(moves)))
    return tree


@st.composite
def any_trees(draw):
    """A random code tree, often incomplete: leaves of a growing code are
    replaced by one or both children."""
    words = ["0", "1"]
    for _ in range(draw(st.integers(0, 6))):
        word = words.pop(draw(st.integers(0, len(words) - 1)))
        bits = draw(st.sampled_from(["0", "1", "01"]))
        words += [word + bit for bit in bits]
    weights = draw(st.lists(st.integers(1, 4), min_size=len(words),
                            max_size=len(words)))
    source = Source.from_weights(
        ("s%d" % i, w) for i, w in enumerate(weights))
    return tree_from_code(source, {"s%d" % i: word
                                   for i, word in enumerate(words)})


@given(sources())
def test_huffman_tree_is_complete_with_kraft_one(source):
    tree = huffman_build(source)
    assert tree.is_complete
    assert kraft_sum(tree_lengths(tree)) == 1


@given(sources(max_symbols=5))
@settings(max_examples=40, deadline=None)
def test_huffman_matches_brute_force_minimum(source):
    lengths = tree_lengths(huffman_build(source))
    assert expected_length(source, lengths) == min_expected_length(source)


@given(sources())
def test_huffman_tree_is_monotone_and_strongly_monotone(source):
    tree = huffman_build(source)
    assert is_monotone(tree)
    assert strong_monotonicity_check(source, tree_lengths(tree)) is None


@given(trees())
@settings(max_examples=60, deadline=None)
def test_tree_code_round_trip(tree):
    code = code_from_tree(tree)
    again = tree_from_code(tree.source, code)
    assert again.label == tree.label
    assert code_from_tree(again) == code
    for nid, weight in enumerate(tree.weights):
        assert tree.prob(nid) == Fraction(weight, tree.source.den)
    assert tree.expected_length() == expected_length(
        tree.source, code_lengths(tree.source, code))


@given(trees())
@settings(max_examples=60, deadline=None)
def test_code_from_lengths_reproduces_lengths(tree):
    lengths = tree_lengths(tree)
    rebuilt = code_from_lengths(tree.source, lengths)
    assert code_lengths(tree.source, rebuilt) == lengths  # ctor: prefix-free


@given(trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_swaps_preserve_rows_and_expected_length(tree, data):
    moves = available_swaps(tree, {SwapKind.SAME_PARENT, SwapKind.SAME_ROW,
                                   SwapKind.SAME_PROBABILITY})
    if not moves:
        return
    move = data.draw(st.sampled_from(moves))
    swapped = node_swap(tree, move)
    assert swapped.expected_length() == tree.expected_length()
    assert is_complete(swapped)
    if move.kind in (SwapKind.SAME_PARENT, SwapKind.SAME_ROW):
        rows_before = [len(r) for r in tree.rows()]
        rows_after = [len(r) for r in swapped.rows()]
        assert rows_before == rows_after


@given(any_trees())
@settings(max_examples=60, deadline=None)
def test_node_swap_exchanges_codeword_prefixes(tree):
    for kind in SwapKind:
        for move in available_swaps(tree, {kind}):
            assert code_from_tree(node_swap(tree, move)) == swapped_code(
                tree, move)


@given(trees())
@settings(max_examples=40, deadline=None)
def test_greedy_sibling_check_matches_backtracking(tree):
    greedy = sibling_property(tree)
    full = sibling_property_exhaustive(tree)
    assert (greedy is None) == (full is None)


@given(sources())
def test_source_probabilities_sum_to_one(source):
    assert sum(source.prob(s) for s in source.symbols) == Fraction(1)


@given(any_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_code_and_kraft_sum_match_per_symbol_forms(tree, data):
    code = code_from_tree(tree)
    assert list(code.words.items()) == list(
        code_by_paths(tree).words.items())
    subset = data.draw(st.lists(st.sampled_from(tree.source.symbols),
                                unique=True))
    lengths = code_lengths(tree.source, code)
    assert (kraft_sum(lengths[tree.source.index(s)] for s in subset)
            == kraft_sum_by_fractions(code, subset))
    assert kraft_sum(lengths) == kraft_sum_by_fractions(code, code.words)


@given(trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_run_string_is_a_fold_of_decoder_step(tree, data):
    bits = data.draw(st.text(alphabet="01", max_size=40))
    for state in tree.internal_ids:
        assert (run_string(tree, state, bits)
                == fold_decoder_step(tree, state, bits))


@given(any_trees())
@settings(max_examples=120, deadline=None)
def test_arena_matches_node_objects(tree):
    nodes = reference_arena(tree.source, tree.shape)
    assert tree.parents == tuple(n.parent for n in nodes)
    assert tree.lefts == tuple(n.left for n in nodes)
    assert tree.rights == tuple(n.right for n in nodes)
    assert tree.depths == tuple(n.depth for n in nodes)
    assert tree.weights == tuple(n.weight for n in nodes)
    assert tree.symbols == tuple(n.symbol for n in nodes)
    assert all(a is n.shape for a, n in zip(tree.shapes, nodes))
    assert tree.is_complete == all(
        n.symbol is not None or None not in (n.left, n.right) for n in nodes)
