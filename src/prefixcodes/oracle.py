"""Brute-force ground truth: enumerate every complete code tree over a
small source and cross-check every characterization against it."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import mul
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from .analysis import (
    MonotonicityWitness,
    is_monotone,
    strong_monotonicity_check,
)
from .core import (CodeTree, Shape, Source, _checked_lengths, _kraft, orbit,
                   shape_label)
from .errors import AlphabetTooLarge
from .huffman import (
    _greedy_listing,
    huffman_build,
    huffman_enumerate,
    huffman_length,
    sibling_property_exhaustive,
)
from .swaps import SwapKind, closure_shapes

ENUMERATION_MAX_SYMBOLS = 8  # also `verify_theorems`, which enumerates
SUBSET_SCAN_MAX_SYMBOLS = 20


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


_JOIN = -1  # an internal node in a post-order code
_Code = Tuple[int, ...]  # a tree in post-order: symbol ids and joins
_Read = Tuple[_Code, Tuple[int, ...], List[Tuple[int, int]]]


def _codes(n: int) -> Iterator[_Code]:
    """Every unordered labelled complete tree on symbol ids 0..n-1 once,
    as its post-order code: ids, and `_JOIN`s that each join the two
    subtrees before them, left then right.

    Leaf insertion (Schröder 1870): id k joins a tree on ids 0..k-1 as
    (x, k), in place of any of its 2k - 1 nodes x.  A node's code ends
    with the node, so (k, _JOIN) goes right after x's.  Each tree comes
    once, (2n - 3)!! in all, and in canonical orientation: x holds an id
    below k, so the least id below each node stays in its left subtree.
    """
    stack = [(0,)]
    while stack:
        code = stack.pop()
        k = len(code) // 2 + 1  # a code on k ids has 2k - 1 entries
        if k == n:
            yield code
        else:
            stack.extend(code[:p] + (k, _JOIN) + code[p:]
                         for p in range(len(code), 0, -1))


def _lengths(code: _Code, n: int) -> Tuple[int, ...]:
    """The length vector of a code's tree, read right to left: each entry
    fills the last open child slot, and a join opens two one level down."""
    lengths, slots = [0] * n, [0]
    for t in reversed(code):
        depth = slots.pop()
        if t == _JOIN:
            slots += (depth + 1, depth + 1)
        else:
            lengths[t] = depth
    return tuple(lengths)


def _unordered(source: Source) -> Iterator[_Read]:
    """Per unordered complete tree: its code, its length vector and the
    (hi, lo) weights of each join's two children.  All but the code are
    the same on each of the tree's 2^(n-1) orientations."""
    weights, n = source.weights, len(source)
    for code in _codes(n):
        lengths = _lengths(code, n)
        stack: List[int] = []
        pairs = []
        for t in code:
            if t == _JOIN:
                b, a = stack.pop(), stack.pop()
                stack.append(a + b)
                pairs.append((a, b) if a >= b else (b, a))
            else:
                stack.append(weights[t])
        yield code, lengths, pairs


def _shape(source: Source, code: _Code) -> Shape:
    """The shape of a code's tree, in canonical orientation."""
    symbols, stack = source.symbols, []
    for t in code:
        if t == _JOIN:
            right = stack.pop()
            stack[-1] = (stack[-1], right)
        else:
            stack.append(symbols[t])
    return stack[0]


def enumerate_complete_trees(source: Source) -> TreeEnumeration:
    """Stream every complete, leaf-labeled, orientation-distinct tree: each
    unordered tree (`_codes`) in each of its 2^(n-1) orientations, so
    n! * Catalan(n-1) = 2^(n-1) * (2n - 3)!! trees in all."""
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    n = len(source)
    members = (CodeTree(source, shape) for code in _codes(n)
               for shape in orbit(_shape(source, code), tuple))
    return TreeEnumeration(source=source, members=members,
                           count=(1 << (n - 1)) * prod(range(1, 2 * n - 2, 2)))


def _ordered(source: Source, codes: Iterable[_Code]) -> Set[Shape]:
    """Every ordered tree the codes' unordered trees stand for."""
    return {shape for code in codes
            for shape in orbit(_shape(source, code), tuple)}


def _optimum(source: Source) -> Tuple[int, List[_Code]]:
    """Minimum weighted depth sum over all complete trees, and the code of
    every unordered tree that reaches it."""
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    weights, n = source.weights, len(source)
    best: Optional[int] = None
    codes: List[_Code] = []
    for code in _codes(n):
        total = sum(map(mul, weights, _lengths(code, n)))
        if best is None or total < best:
            best = total
            codes = []
        if total == best:
            codes.append(code)
    return best, codes


def min_expected_length(source: Source) -> Fraction:
    """Exact minimum expected length over all complete trees."""
    return Fraction(_optimum(source)[0], source.den)


def optimal_set(source: Source) -> Set[str]:
    """Canonical labels of every minimum-expected-length complete tree."""
    return set(map(shape_label, _ordered(source, _optimum(source)[1])))


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
    prob_w = source.weights  # probabilities as integers over source.den

    ksum, psum = [0], [0]  # per bit mask, built one symbol at a time
    for length, weight in zip(lengths, prob_w):
        kraft = 1 << (weight_bits - length)
        ksum += [num + kraft for num in ksum]
        psum += [p + weight for p in psum]

    def subset_key(mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    min_p: Dict[int, Tuple[int, int]] = {}  # exponent -> (psum, mask)
    max_p: Dict[int, Tuple[int, int]] = {}
    for mask in range(1, 1 << n):
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


def verify_theorems(source: Source) -> VerificationReport:
    """Exhaustively cross-check every characterization on one source.

    Runs the optimality / Huffman / swap-equivalence statements against
    every complete tree.  Each check reads only what flipping a node's
    children keeps, so one pass reads each unordered labelled tree
    (`_unordered`) once, for its 2^(n-1) orientations, names it by its
    canonical orientation and groups it by length vector.  Theorem 1's
    three properties read the vector alone, so each length class is
    checked once, and a multiset of sibling weight pairs shares the
    backtracking sibling search.  The Huffman trees and the closures are
    compared with the ordered trees the codes stand for.  A
    `CodeTree` is built only to start a closure and to run that search.
    The pairwise same-row swap check is skipped above 5 symbols to stay
    at desk scale; every other check runs up to 8 symbols.
    """
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    report = VerificationReport(source=source)
    checks = report.checks
    flips = 1 << (len(source) - 1)  # the orientations of a tree

    # Shapes are compared and hashed by value, which recurses once per
    # level; ENUMERATION_MAX_SYMBOLS = 8 bounds the depth at 7.
    huffman_trees = huffman_enumerate(source)
    huffman_shapes = {t.shape for t in huffman_trees}
    huffman_length_keys = {tuple(map(t.depth_of, source.symbols))
                           for t in huffman_trees}

    # The first three counterexamples of each check: codes, a Huffman
    # tree's label, or an incomplete length vector.
    bad: Dict[str, list] = {
        name: [] for name in ("equivalence", "sibling", "kraft", "monotone")}

    def note(name: str, counterexample) -> None:
        if len(bad[name]) < 3:
            bad[name].append(counterexample)

    def labels(name: str) -> List[str]:
        return [shape_label(_shape(source, code)) for code in bad[name]]

    # multiset of sibling weight pairs -> whether the backtracking search
    # lists it; the answer depends on the pairs and the root weight alone
    listable: Dict[Tuple[Tuple[int, int], ...], bool] = {}
    sibling_codes: List[_Code] = []
    classes: Dict[Tuple[int, ...], List[_Code]] = {}  # length vector -> codes
    for code, key, pairs in _unordered(source):
        classes.setdefault(key, []).append(code)
        greedy = _greedy_listing(pairs)  # sorts the pairs
        multiset = tuple(pairs)
        if multiset not in listable:
            listable[multiset] = sibling_property_exhaustive(
                CodeTree(source, _shape(source, code))) is not None
        if greedy != listable[multiset]:
            note("sibling", code)
        if greedy:
            sibling_codes.append(code)
    for tree in huffman_trees:
        if not is_monotone(tree):
            note("monotone", tree.label)

    # Theorem 1 presupposes a complete tree: an incomplete class is
    # reported by its vector and dropped, so its trees are not counted.
    for key in list(classes):
        num, top = _kraft(key)
        if num != 1 << top:
            note("kraft", key)
            del classes[key]
    # weighted depth sums, the expected lengths times `den`
    totals = {key: sum(map(mul, source.weights, key)) for key in classes}
    best = min(totals.values())
    min_len = Fraction(best, source.den)
    # None marks a vector where package-merge and the subset scan differ
    # (verdict or witness); it equals no verdict, so it fails the check.
    for key, codes in classes.items():
        witness = strong_monotonicity_check(source, key)
        agree = witness == strong_monotonicity_scan(source, key)
        verdict = (witness is None) if agree else None
        if not (totals[key] == best) == verdict == (
                key in huffman_length_keys):
            note("equivalence", codes[0])
    optimal = [key for key in classes if totals[key] == best]

    # Huffman optimality, independently of the sibling property.
    built = huffman_build(source)
    checks.append(TheoremCheck(
        "huffman-achieves-minimum",
        built.expected_length() == huffman_length(source) == min_len,
        "huffman %s vs brute-force %s" % (built.expected_length(), min_len)))
    checks.append(TheoremCheck(
        "optimal-iff-strongly-monotone-iff-length-equivalent",
        not bad["equivalence"],
        "counterexamples: %s" % labels("equivalence") if bad["equivalence"]
        else "%d trees checked" % (sum(map(len, classes.values())) * flips)))
    # the ordered trees the listed codes stand for, each enumerated once
    same_set = (_ordered(source, sibling_codes) == huffman_shapes
                and len(huffman_trees) == len(huffman_shapes))
    checks.append(TheoremCheck(
        "sibling-property-iff-huffman",
        not bad["sibling"] and same_set,
        "greedy/backtracking disagreements: %s; listing-set == "
        "merge-enumeration: %s" % (labels("sibling"), same_set)))
    checks.append(TheoremCheck(
        "complete-kraft-sum-one",
        not bad["kraft"],
        "counterexamples: %s" % bad["kraft"] if bad["kraft"] else ""))
    checks.append(TheoremCheck(
        "huffman-trees-monotone",
        not bad["monotone"],
        "counterexamples: %s" % bad["monotone"] if bad["monotone"]
        else ""))

    # All Huffman trees form one {same-parent, same-probability} class.
    shapes, truncated = closure_shapes(
        huffman_trees[0], {SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY})
    checks.append(TheoremCheck(
        "huffman-swap-equivalence",
        not truncated and set(shapes) == huffman_shapes,
        "closure size %d vs %d enumerated Huffman trees"
        % (len(shapes), len(huffman_shapes))))

    # All optimal trees form one {same-row, same-probability} class.
    opt_shapes = _ordered(source, (code for key in optimal
                                   for code in classes[key]))
    shapes, truncated = closure_shapes(
        huffman_trees[0], {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY})
    checks.append(TheoremCheck(
        "optimal-swap-equivalence",
        not truncated and set(shapes) == opt_shapes,
        "closure size %d vs %d optimal trees"
        % (len(shapes), len(opt_shapes))))

    # Every optimal tree's same-row class contains a Huffman tree.  At
    # n <= 5 each class is checked to be one same-row closure; such a
    # class holds a Huffman tree iff its vector is a Huffman length
    # vector, which is what this profile comparison checks at every n.
    missing = [key for key in optimal if key not in huffman_length_keys]
    corollary_ok = not missing
    detail = ("optimal class %s has no Huffman member" % (missing[0],)
              if missing else "")
    row_class_checked = len(source) <= 5
    if row_class_checked:
        for codes in classes.values():
            rep = CodeTree(source, _shape(source, codes[0]))
            closure_row = set(closure_shapes(rep, {SwapKind.SAME_ROW})[0])
            if closure_row != _ordered(source, codes):
                corollary_ok = False
                detail = "same-row closure of %s != its length class" % (
                    rep.label)
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
