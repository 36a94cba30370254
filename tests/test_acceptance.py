"""End-to-end acceptance checks.

Each test reproduces a known result or exhaustively verifies a
characterization at desk scale, asserts the stated runtime budget, and
prints one PASS line for the log.
"""

import random
import time
from fractions import Fraction

import pytest

from prefixcodes import (
    MonotonicityWitness,
    Source,
    SwapKind,
    builtin_corpus,
    code_from_tree,
    enumerate_complete_trees,
    expected_length,
    huffman_build,
    huffman_enumerate,
    improve_from_witness,
    is_complete,
    is_huffman,
    kraft_sum,
    min_expected_length,
    node_swap,
    available_swaps,
    replay,
    run_string,
    shortest_sync_string,
    strong_monotonicity_check,
    swap_closure,
    swap_equivalent,
    tree_from_code,
    verify_theorems,
)
from conftest import (catalan, load_lengths, load_tree, tree_for_label,
                      tree_lengths)

PARENT_PROB = {SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY}
ROW_PROB = {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY}


@pytest.fixture(scope="module")
def corpus_reports():
    """verify_theorems over the whole builtin corpus, with total runtime."""
    start = time.monotonic()
    reports = [(name, verify_theorems(src)) for name, src in builtin_corpus()]
    return reports, time.monotonic() - start


def _corpus_check(reports, check_name):
    for name, report in reports:
        match = [c for c in report.checks if c.name == check_name]
        assert match, "%s missing check %s" % (name, check_name)
        assert match[0].passed, "%s: %s (%s)" % (name, check_name,
                                                 match[0].detail)


def test_criterion_01_sync_strings_of_two_dyadic_trees(ex1):
    start = time.monotonic()
    _, h1 = load_tree("ex1.src", "ex1_h1.code")
    _, h2 = load_tree("ex1.src", "ex1_h2.code")
    assert shortest_sync_string(h1).string == "0"
    assert shortest_sync_string(h2).string == "00"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("PASS criterion 1: sync strings '0' and '00' (%.3fs)" % elapsed)


def test_criterion_02_nine_symbol_sync_existence(ex2):
    start = time.monotonic()
    _, h1 = load_tree("ex2.src", "ex2_h1.code")
    _, h2 = load_tree("ex2.src", "ex2_h2.code")
    # "0011" drives every internal state of the first tree to the root
    for state in h1.internal_ids:
        assert run_string(h1, state, "0011") == h1.root
    assert shortest_sync_string(h1).exists
    assert shortest_sync_string(h2).exists is False
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("PASS criterion 2: 9-symbol sync existence (%.3fs)" % elapsed)


def test_criterion_03_witness_driven_improvement(ex3):
    start = time.monotonic()
    h = load_lengths(ex3, "ex3_h.code")
    c = load_lengths(ex3, "ex3_c.code")
    assert expected_length(ex3, h) == Fraction(15, 8)
    assert expected_length(ex3, c) == 2
    witness = strong_monotonicity_check(ex3, c)
    assert witness == MonotonicityWitness(A=("c", "d"), B=("a",), i=1, j=2)
    improved = improve_from_witness(ex3, c, witness)
    assert expected_length(ex3, improved) == Fraction(15, 8)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("PASS criterion 3: improvement 2 -> 15/8 (%.3fs)" % elapsed)


def test_criterion_04_swap_equivalences(ex4):
    start = time.monotonic()
    _, h1 = load_tree("ex4.src", "ex4_h1.code")
    _, h2 = load_tree("ex4.src", "ex4_h2.code")
    _, c = load_tree("ex4.src", "ex4_c.code")
    assert min_expected_length(ex4) == 2
    cert = swap_equivalent(ex4, h1, h2, PARENT_PROB)
    assert cert is not None
    assert replay(h1, cert).label == h2.label
    assert swap_equivalent(ex4, h1, h2, {SwapKind.SAME_ROW}) is None
    assert swap_equivalent(ex4, h2, c, {SwapKind.SAME_ROW}) is not None
    assert c.label not in swap_closure(ex4, h1, PARENT_PROB).members
    assert c.label not in swap_closure(ex4, h2, PARENT_PROB).members
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("PASS criterion 4: swap equivalences and certificate (%.3fs)"
          % elapsed)


def test_criterion_05_probability_swap_moves_symbol_across_rows(ex5):
    start = time.monotonic()
    _, h1 = load_tree("ex5.src", "ex5_h1.code")
    assert h1.depth_of("c") == 2
    closure = swap_closure(ex5, h1, {SwapKind.SAME_PROBABILITY})
    depths = {tree_for_label(ex5, label).depth_of("c")
              for label in closure.members}
    assert 4 in depths
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("PASS criterion 5: symbol c reaches depth 4 (%.3fs)" % elapsed)


def test_criterion_06_optimality_characterization(corpus_reports):
    reports, elapsed = corpus_reports
    _corpus_check(reports, "optimal-iff-strongly-monotone-iff-length-equivalent")
    assert elapsed < 300.0
    print("PASS criterion 6: optimality characterization, %d sources (%.1fs)"
          % (len(reports), elapsed))


def test_criterion_07_huffman_swap_equivalence(corpus_reports):
    reports, elapsed = corpus_reports
    _corpus_check(reports, "huffman-swap-equivalence")
    assert elapsed < 300.0
    print("PASS criterion 7: Huffman closure == enumeration (%.1fs)" % elapsed)


def test_criterion_08_optimal_swap_equivalence(corpus_reports):
    reports, elapsed = corpus_reports
    _corpus_check(reports, "optimal-swap-equivalence")
    # corollary direction: every optimal same-row class holds a Huffman tree
    _corpus_check(reports, "length-equivalent-iff-same-row-swap-equivalent")
    assert elapsed < 300.0
    print("PASS criterion 8: optimal closure == brute-force optimal set "
          "(%.1fs)" % elapsed)


def test_criterion_09_length_equivalence_is_same_row_equivalence():
    start = time.monotonic()
    small = [(name, src) for name, src in builtin_corpus() if len(src) <= 5]
    assert small
    for name, src in small:
        report = verify_theorems(src)
        match = [c for c in report.checks
                 if c.name == "length-equivalent-iff-same-row-swap-equivalent"]
        assert match[0].passed, name
        assert match[0].detail == "closures verified", name
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("PASS criterion 9: pairwise same-row closures, n <= 5 (%.1fs)"
          % elapsed)


def test_criterion_10_counting():
    start = time.monotonic()
    # 2^(n-1) same-parent variants when every merge pair is forced
    dyadic = {
        2: [("s0", Fraction(1, 2)), ("s1", Fraction(1, 2))],
        4: [("s0", Fraction(1, 2)), ("s1", Fraction(1, 4)),
            ("s2", Fraction(1, 8)), ("s3", Fraction(1, 8))],
        5: [("s0", Fraction(1, 2)), ("s1", Fraction(1, 4)),
            ("s2", Fraction(1, 8)), ("s3", Fraction(1, 16)),
            ("s4", Fraction(1, 16))],
        6: [("s0", Fraction(1, 2)), ("s1", Fraction(1, 4)),
            ("s2", Fraction(1, 8)), ("s3", Fraction(1, 16)),
            ("s4", Fraction(1, 32)), ("s5", Fraction(1, 32))],
    }
    for n, entries in dyadic.items():
        src = Source(entries)
        closure = swap_closure(src, huffman_build(src),
                               {SwapKind.SAME_PARENT})
        assert len(closure.members) == 2 ** (n - 1), n
        assert len(huffman_enumerate(src)) == 2 ** (n - 1), n
    # n! * Catalan(n-1) complete trees, counted by full enumeration
    for n in range(2, 8):
        src = Source([("s%d" % i, Fraction(1, n)) for i in range(n)])
        enum = enumerate_complete_trees(src)
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        expected *= catalan(n - 1)
        assert enum.count == expected, n
        assert sum(1 for _ in enum.members) == expected, n
    elapsed = time.monotonic() - start
    print("PASS criterion 10: closure and enumeration counts (%.1fs)"
          % elapsed)


def _random_source(rng):
    n = rng.randint(2, 6)
    return Source.from_weights(
        ("s%d" % i, rng.randint(1, 50)) for i in range(n))


def _random_complete_tree(rng, source=None):
    src = source if source is not None else _random_source(rng)
    tree = huffman_build(src)
    for _ in range(rng.randint(0, 5)):
        moves = available_swaps(tree, {SwapKind.SAME_PARENT,
                                       SwapKind.SAME_ROW})
        if not moves:
            break
        tree = node_swap(tree, rng.choice(moves))
    return tree


def test_criterion_11_lemma_suite():
    rng = random.Random(20250823)
    # completeness iff Kraft sum exactly 1, on complete and broken trees
    for k in range(1000):
        tree = _random_complete_tree(rng)
        if k % 2:
            # pull one codeword deeper, leaving a one-child node behind
            code = dict(code_from_tree(tree).words)
            sym = rng.choice(sorted(code))
            code[sym] = code[sym] + rng.choice("01")
            tree = tree_from_code(tree.source, code)
        assert is_complete(tree) == (kraft_sum(tree_lengths(tree)) == 1)
    # every admissible swap preserves expected length exactly
    checked = 0
    while checked < 1000:
        tree = _random_complete_tree(rng)
        moves = available_swaps(tree, {SwapKind.SAME_PARENT,
                                       SwapKind.SAME_ROW,
                                       SwapKind.SAME_PROBABILITY})
        if not moves:
            continue
        move = rng.choice(moves)
        assert node_swap(tree, move).expected_length() == \
            tree.expected_length()
        checked += 1
    # same-probability swaps never leave the Huffman class
    verified = 0
    for _ in range(200):
        src = _random_source(rng)
        tree = huffman_build(src)
        for move in available_swaps(tree, {SwapKind.SAME_PROBABILITY}):
            assert is_huffman(node_swap(tree, move))
            verified += 1
    assert verified > 0
    print("PASS criterion 11: lemma suite, %d probability swaps checked"
          % verified)
