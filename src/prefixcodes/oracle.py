"""Brute-force ground truth: enumerate every complete code tree over a
small source and cross-check every characterization against it."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .analysis import (
    MonotonicityWitness,
    is_monotone,
    strong_monotonicity_check,
)
from .core import CodeTree, Shape, Source, _checked_lengths, shape_label
from .errors import AlphabetTooLarge
from .huffman import (
    huffman_build,
    huffman_enumerate,
    sibling_property,
    sibling_property_exhaustive,
)
from .swaps import SwapKind, swap_closure

ENUMERATION_MAX_SYMBOLS = 7
VERIFY_MAX_SYMBOLS = 6
SUBSET_SCAN_MAX_SYMBOLS = 20

_SLOT = "?"  # leaf placeholder inside shape templates


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _shape_templates(n: int) -> Tuple[Shape, ...]:
    """All ordered complete binary tree shapes with n leaf slots."""
    if n == 1:
        return (_SLOT,)
    shapes: List[Shape] = []
    for k in range(1, n):
        for left in _shape_templates(k):
            for right in _shape_templates(n - k):
                shapes.append((left, right))
    return tuple(shapes)


def _leaf_depths(template: Shape, depth: int = 0) -> Tuple[int, ...]:
    if template == _SLOT:
        return (depth,)
    left, right = template
    return _leaf_depths(left, depth + 1) + _leaf_depths(right, depth + 1)


def _fill(depths: Tuple[int, ...], symbols: Tuple[str, ...]) -> Shape:
    """The complete tree with leaves `symbols` at `depths`, left to right:
    each subtree joins the one before it while the two are at one depth."""
    stack: List[Tuple[Shape, int]] = []
    for shape, depth in zip(symbols, depths):
        while stack and stack[-1][1] == depth:
            shape, depth = (stack.pop()[0], shape), depth - 1
        stack.append((shape, depth))
    return stack[0][0]


def _guard(source: Source, limit: int) -> None:
    if len(source) > limit:
        raise AlphabetTooLarge(
            "brute force supports at most %d symbols, got %d"
            % (limit, len(source)))


@dataclass
class TreeEnumeration:
    source: Source
    members: Iterator[CodeTree]
    count: int


def enumerate_complete_trees(source: Source) -> TreeEnumeration:
    """Stream every complete, leaf-labeled, orientation-distinct tree."""
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    n = len(source)
    templates = [_leaf_depths(t) for t in _shape_templates(n)]

    def gen() -> Iterator[CodeTree]:
        for depths in templates:
            for perm in permutations(source.symbols):
                yield CodeTree(source, _fill(depths, perm))

    return TreeEnumeration(source=source, members=gen(),
                           count=factorial(n) * catalan(n - 1))


_Fill = Tuple[Tuple[int, ...], Tuple[int, ...]]  # leaf depths, symbol ids


def _optimum(source: Source) -> Tuple[int, List[_Fill]]:
    """Minimum weighted depth sum over all complete trees, and the fill of
    every tree that reaches it."""
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    weights = source.weights
    best: Optional[int] = None
    fills: List[_Fill] = []
    for template in _shape_templates(len(source)):
        depths = _leaf_depths(template)
        for perm in permutations(range(len(source))):
            total = sum(weights[s] * d for s, d in zip(perm, depths))
            if best is None or total < best:
                best = total
                fills = []
            if total == best:
                fills.append((depths, perm))
    return best, fills


def min_expected_length(source: Source) -> Fraction:
    """Exact minimum expected length over all complete trees."""
    return Fraction(_optimum(source)[0], source.den)


def optimal_set(source: Source) -> Set[str]:
    """Canonical labels of every minimum-expected-length complete tree."""
    return set(map(shape_label, _fill_shapes(source, _optimum(source)[1])))


def _fill_shapes(source: Source, fills: List[_Fill]) -> Set[Shape]:
    symbols = source.symbols
    return {_fill(d, tuple(symbols[s] for s in perm)) for d, perm in fills}


def strong_monotonicity_scan(source: Source, lengths: Sequence[int]
                             ) -> Optional[MonotonicityWitness]:
    """`analysis.strong_monotonicity_check` by scanning all 2^n subsets.

    Groups subsets by the exponent k of their (power-of-two) Kraft sum
    and keeps each exponent's probability extremes, so the doubly
    quantified definition costs O(2^n) rather than O(4^n).  Returns the
    lexicographically first witness (by sorted index tuple) at the first
    violating exponent pair, or None if the lengths are strongly monotone.
    """
    _guard(source, SUBSET_SCAN_MAX_SYMBOLS)
    symbols = source.symbols
    n = len(symbols)
    lengths = _checked_lengths(source, lengths)
    weight_bits = max(lengths)
    kraft_w = [1 << (weight_bits - l) for l in lengths]
    prob_w = source.weights  # probabilities as integers over source.den

    size = 1 << n
    ksum = [0] * size
    psum = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        idx = low.bit_length() - 1
        ksum[mask] = ksum[rest] + kraft_w[idx]
        psum[mask] = psum[rest] + prob_w[idx]

    def subset_key(mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    min_p: Dict[int, Tuple[int, int]] = {}  # exponent -> (psum, mask)
    max_p: Dict[int, Tuple[int, int]] = {}
    for mask in range(1, size):
        num = ksum[mask]
        if num & (num - 1):
            continue  # not a power of two
        k = weight_bits - num.bit_length() + 1  # ksum = 2^-k
        cur = min_p.get(k)
        if (cur is None or psum[mask] < cur[0]
                or (psum[mask] == cur[0]
                    and subset_key(mask) < subset_key(cur[1]))):
            min_p[k] = (psum[mask], mask)
        cur = max_p.get(k)
        if (cur is None or psum[mask] > cur[0]
                or (psum[mask] == cur[0]
                    and subset_key(mask) < subset_key(cur[1]))):
            max_p[k] = (psum[mask], mask)

    exponents = sorted(min_p)
    for a, i in enumerate(exponents):
        for j in exponents[a + 1:]:
            if min_p[i][0] < max_p[j][0]:
                amask, bmask = min_p[i][1], max_p[j][1]
                return MonotonicityWitness(
                    A=tuple(symbols[t] for t in subset_key(amask)),
                    B=tuple(symbols[t] for t in subset_key(bmask)),
                    i=i, j=j)
    return None


@dataclass
class TheoremCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    source: Source
    checks: List[TheoremCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _tally(tree: CodeTree, index: Dict[str, int]
           ) -> Tuple[Tuple[int, ...], int, bool]:
    """One pass over `tree`'s leaves: its length vector (codeword lengths
    in source order), its weighted depth sum (expected length times `den`)
    and whether its Kraft sum is 1."""
    top = tree.depths[-1]  # ids are breadth-first: the last node is deepest
    lengths = [0] * len(index)
    total = kraft = 0
    for symbol, depth, weight in zip(tree.symbols, tree.depths, tree.weights):
        if symbol is not None:
            lengths[index[symbol]] = depth
            total += weight * depth
            kraft += 1 << (top - depth)
    return tuple(lengths), total, kraft == 1 << top


def _note(bad: List[str], tree: CodeTree) -> None:
    """Keep the labels of the first three counterexamples."""
    if len(bad) < 3:
        bad.append(tree.label)


def verify_theorems(source: Source) -> VerificationReport:
    """Exhaustively cross-check every characterization on one source.

    Runs the optimality / Huffman / swap-equivalence statements against
    the full enumeration of complete trees, each read in one pass over
    its nodes.  Only the strong-monotonicity verdict is shared by a
    length class; trees and closures are compared as sets of shapes.
    The pairwise same-row swap check is skipped above 5 symbols to stay
    at desk scale; every other check runs up to 6 symbols.
    """
    _guard(source, VERIFY_MAX_SYMBOLS)
    report = VerificationReport(source=source)
    checks = report.checks
    index = {s: i for i, s in enumerate(source.symbols)}

    # Shapes are compared and hashed by value, which recurses once per
    # level; VERIFY_MAX_SYMBOLS = 6 bounds the depth at 5.
    huffman_trees = huffman_enumerate(source)
    huffman_shapes = {t.shape for t in huffman_trees}
    huffman_length_keys = {_tally(t, index)[0] for t in huffman_trees}
    best, fills = _optimum(source)  # one brute-force pass for both
    opt_shapes = _fill_shapes(source, fills)
    min_len = Fraction(best, source.den)

    # Huffman optimality, independently of the sibling property.
    built = huffman_build(source)
    checks.append(TheoremCheck(
        "huffman-achieves-minimum",
        built.expected_length() == min_len,
        "huffman %s vs brute-force %s" % (built.expected_length(), min_len)))

    # Per-length-assignment verdicts are shared by all trees that induce
    # the same codeword lengths, so memoize on the assignment: the
    # `_tally` key, a length vector both checks take as is.  None marks
    # an assignment where package-merge and the subset scan differ
    # (verdict or witness); it equals no verdict, so it fails the check.
    sm_by_lengths: Dict[Tuple[int, ...], Optional[bool]] = {}

    def strongly_monotone(key: Tuple[int, ...]) -> Optional[bool]:
        if key not in sm_by_lengths:
            witness = strong_monotonicity_check(source, key)
            agree = witness == strong_monotonicity_scan(source, key)
            sm_by_lengths[key] = (witness is None) if agree else None
        return sm_by_lengths[key]

    row_class_checked = len(source) <= 5
    equivalence_bad: List[str] = []
    sibling_bad: List[str] = []
    kraft_bad: List[str] = []
    monotone_bad: List[str] = []
    sibling_shapes: Set[Shape] = set()
    # length key -> (first tree of the class, whether `_optimum` lists it)
    reps: Dict[Tuple[int, ...], Tuple[CodeTree, bool]] = {}
    classes: Dict[Tuple[int, ...], Set[Shape]] = {}  # only if row-checked

    for tree in enumerate_complete_trees(source).members:
        key, total, kraft_one = _tally(tree, index)
        if not kraft_one:  # the checks below presuppose a complete tree
            _note(kraft_bad, tree)
            continue
        shape = tree.shape
        in_opt = shape in opt_shapes
        optimal = total == best
        if not (optimal == strongly_monotone(key)
                == (key in huffman_length_keys) == in_opt):
            _note(equivalence_bad, tree)
        greedy = sibling_property(tree)
        exhaustive = sibling_property_exhaustive(tree)
        if (greedy is None) != (exhaustive is None):
            _note(sibling_bad, tree)
        if greedy is not None:
            sibling_shapes.add(shape)
        if shape in huffman_shapes and not is_monotone(tree):
            _note(monotone_bad, tree)
        if key not in reps:
            reps[key] = (tree, in_opt)
        if row_class_checked:
            classes.setdefault(key, set()).add(shape)

    checks.append(TheoremCheck(
        "optimal-iff-strongly-monotone-iff-length-equivalent",
        not equivalence_bad,
        "counterexamples: %s" % equivalence_bad if equivalence_bad
        else "%d trees checked" % (factorial(len(source))
                                   * catalan(len(source) - 1))))
    checks.append(TheoremCheck(
        "sibling-property-iff-huffman",
        not sibling_bad and sibling_shapes == huffman_shapes,
        "greedy/backtracking disagreements: %s; listing-set == "
        "merge-enumeration: %s" % (sibling_bad,
                                   sibling_shapes == huffman_shapes)))
    checks.append(TheoremCheck(
        "complete-kraft-sum-one",
        not kraft_bad,
        "counterexamples: %s" % kraft_bad if kraft_bad else ""))
    checks.append(TheoremCheck(
        "huffman-trees-monotone",
        not monotone_bad,
        "counterexamples: %s" % monotone_bad if monotone_bad else ""))

    # All Huffman trees form one {same-parent, same-probability} class.
    closure_hp = swap_closure(
        source, huffman_trees[0],
        {SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY})
    checks.append(TheoremCheck(
        "huffman-swap-equivalence",
        not closure_hp.truncated and set(closure_hp.shapes) == huffman_shapes,
        "closure size %d vs %d enumerated Huffman trees"
        % (len(closure_hp.shapes), len(huffman_shapes))))

    # All optimal trees form one {same-row, same-probability} class.
    closure_rp = swap_closure(
        source, huffman_trees[0],
        {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY})
    checks.append(TheoremCheck(
        "optimal-swap-equivalence",
        not closure_rp.truncated and set(closure_rp.shapes) == opt_shapes,
        "closure size %d vs %d optimal trees"
        % (len(closure_rp.shapes), len(opt_shapes))))

    # Every optimal tree's same-row class contains a Huffman tree.
    corollary_ok = True
    detail = ""
    for key, (_, optimal) in reps.items():
        if optimal and key not in huffman_length_keys:
            corollary_ok = False
            detail = "optimal class %s has no Huffman member" % (key,)
            break
    if row_class_checked:
        for key, (rep, optimal) in reps.items():
            closure_row = set(swap_closure(source, rep,
                                           {SwapKind.SAME_ROW}).shapes)
            if closure_row != classes[key]:
                corollary_ok = False
                detail = "same-row closure of %s != its length class" % (
                    rep.label)
                break
            if optimal and closure_row.isdisjoint(huffman_shapes):
                corollary_ok = False
                detail = "optimal same-row class without a Huffman tree"
                break
    checks.append(TheoremCheck(
        "length-equivalent-iff-same-row-swap-equivalent",
        corollary_ok,
        detail or ("closures verified" if row_class_checked
                   else "profile comparison only (n > 5)")))
    return report


def builtin_corpus() -> List[Tuple[str, Source]]:
    """Verification sources: desk-scale examples plus tied small sources."""
    f = Fraction
    return [
        ("coin", Source([("x", f(1, 2)), ("y", f(1, 2))])),
        ("dyadic4", Source([("a", f(1, 2)), ("b", f(1, 4)),
                            ("c", f(1, 8)), ("d", f(1, 8))])),
        ("tied4", Source([("a", f(3, 8)), ("b", f(3, 8)),
                          ("c", f(1, 8)), ("d", f(1, 8))])),
        ("thirds4", Source([("a", f(1, 3)), ("b", f(1, 3)),
                            ("c", f(1, 6)), ("d", f(1, 6))])),
        ("ninths5", Source([("a", f(1, 3)), ("b", f(1, 3)), ("c", f(1, 9)),
                            ("d", f(1, 9)), ("e", f(1, 9))])),
        ("uniform5", Source.from_weights(
            [("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", 1)])),
        ("tied6a", Source.from_weights(
            [("a", 4), ("b", 3), ("c", 3), ("d", 2), ("e", 2), ("f", 2)])),
        ("tied6b", Source.from_weights(
            [("a", 6), ("b", 5), ("c", 4), ("d", 4), ("e", 3), ("f", 2)])),
    ]
