"""Brute-force ground truth: enumerate every complete code tree over a
small source and cross-check every characterization against it."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from itertools import permutations
from operator import itemgetter, mul
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .analysis import (
    MonotonicityWitness,
    is_monotone,
    strong_monotonicity_check,
)
from .core import CodeTree, Shape, Source, _checked_lengths, shape_label
from .errors import AlphabetTooLarge
from .huffman import (
    _greedy_listing,
    huffman_build,
    huffman_enumerate,
    sibling_property_exhaustive,
)
from .swaps import SwapKind, closure_shapes

ENUMERATION_MAX_SYMBOLS = 7  # also `verify_theorems`, which enumerates
SUBSET_SCAN_MAX_SYMBOLS = 20

_Depths = Tuple[int, ...]  # a tree's leaf depths, left to right


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _templates(n: int) -> Tuple[_Depths, ...]:
    """Every ordered complete binary tree with n leaves, as its leaf depths
    left to right: by left-subtree size, then left subtree, then right."""
    if n == 1:
        return ((0,),)
    return tuple(tuple(d + 1 for d in left + right)
                 for k in range(1, n)
                 for left in _templates(k) for right in _templates(n - k))


def _fill(depths: _Depths, leaves: Iterable,
          join: Callable = lambda left, right: (left, right)):
    """The complete tree with `leaves` at `depths`, left to right: each
    subtree joins the one before it while the two are at one depth.  The
    default `join` builds a shape; joins happen in post-order."""
    stack: List[tuple] = []
    for node, depth in zip(leaves, depths):
        while stack and stack[-1][1] == depth:
            node, depth = join(stack.pop()[0], node), depth - 1
        stack.append((node, depth))
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

    def gen() -> Iterator[CodeTree]:
        for depths in _templates(n):
            for perm in permutations(source.symbols):
                yield CodeTree(source, _fill(depths, perm))

    return TreeEnumeration(source=source, members=gen(),
                           count=factorial(n) * catalan(n - 1))


_Fill = Tuple[_Depths, Tuple[int, ...]]  # a template and its symbol ids
# per permutation of symbol ids into slots: the ids, a getter that reads
# a template's leaf depths in source order, and the slots' weights
_Perm = Tuple[Tuple[int, ...], Callable, Tuple[int, ...]]


def _permutations(source: Source) -> List[_Perm]:
    weights = source.weights
    return [(perm, itemgetter(*sorted(range(len(perm)),
                                      key=perm.__getitem__)),
             tuple(weights[s] for s in perm))
            for perm in permutations(range(len(source)))]


def _optimum(source: Source) -> Tuple[int, List[_Fill]]:
    """Minimum weighted depth sum over all complete trees, and the fill of
    every tree that reaches it."""
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    perms = _permutations(source)
    best: Optional[int] = None
    fills: List[_Fill] = []
    for depths in _templates(len(source)):
        for perm, _, slot_weights in perms:
            total = sum(map(mul, slot_weights, depths))
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


class _Skeleton(NamedTuple):
    """A template as `verify_theorems` reads it: its leaf depths left to
    right, its internal nodes in post-order as (left, right) references
    into a fill's node weights (slot i is i, the k-th internal node is
    n + k), and whether its Kraft sum is 1."""
    depths: _Depths
    nodes: Tuple[Tuple[int, int], ...]
    complete: bool


def _skeleton(depths: _Depths) -> _Skeleton:
    n, nodes = len(depths), []

    def join(left: int, right: int) -> int:
        nodes.append((left, right))
        return n + len(nodes) - 1

    _fill(depths, range(n), join)
    top = max(depths)
    return _Skeleton(depths, tuple(nodes),
                     sum(1 << (top - d) for d in depths) == 1 << top)


@lru_cache(maxsize=None)
def _skeletons(n: int) -> Tuple[_Skeleton, ...]:
    """The skeleton of every template with n leaves, in template order:
    the templates `verify_theorems` reads."""
    return tuple(map(_skeleton, _templates(n)))


def _read(skeleton: _Skeleton, perms: List[_Perm]) -> Iterator[tuple]:
    """One pass per fill of a complete skeleton: the symbol ids, the length
    vector, the weighted depth sum (expected length times `den`) and the
    (hi, lo) weights of each internal node's two children."""
    depths, nodes = skeleton.depths, skeleton.nodes
    for perm, lengths_of, slot_weights in perms:
        weights = list(slot_weights)
        pairs = []
        for left, right in nodes:
            a, b = weights[left], weights[right]
            weights.append(a + b)
            pairs.append((a, b) if a >= b else (b, a))
        yield (perm, lengths_of(depths), sum(map(mul, slot_weights, depths)),
               pairs)


def verify_theorems(source: Source) -> VerificationReport:
    """Exhaustively cross-check every characterization on one source.

    Runs the optimality / Huffman / swap-equivalence statements against
    every complete tree, read as a template (leaf depths, left to right)
    filled by a permutation of the symbols: each template's skeleton is
    built once, and one pass per fill sums the weights up it.  Optimal
    membership is tested by fill, and the sibling and closure sets are
    compared as sets of shapes.  The strong-monotonicity verdict is
    shared by a length class, and the backtracking sibling search by a
    multiset of sibling weight pairs.  A `CodeTree` is built only to
    start a closure and to run that search.  The pairwise same-row swap
    check is skipped above 5 symbols to stay at desk scale; every other
    check runs up to 7 symbols.
    """
    _guard(source, ENUMERATION_MAX_SYMBOLS)
    report = VerificationReport(source=source)
    checks = report.checks
    symbols = source.symbols

    # Shapes are compared and hashed by value, which recurses once per
    # level; ENUMERATION_MAX_SYMBOLS = 7 bounds the depth at 6.
    huffman_trees = huffman_enumerate(source)
    huffman_shapes = {t.shape for t in huffman_trees}
    huffman_length_keys = {tuple(map(t.depth_of, symbols))
                           for t in huffman_trees}
    best, fills = _optimum(source)  # one brute-force pass for both
    opt_at: Dict[Tuple[int, ...], Set[Tuple[int, ...]]] = {}
    for depths, perm in fills:
        opt_at.setdefault(depths, set()).add(perm)
    min_len = Fraction(best, source.den)

    # Huffman optimality, independently of the sibling property.
    built = huffman_build(source)
    checks.append(TheoremCheck(
        "huffman-achieves-minimum",
        built.expected_length() == min_len,
        "huffman %s vs brute-force %s" % (built.expected_length(), min_len)))

    # Per-length-assignment verdicts are shared by all trees that induce
    # the same codeword lengths, so memoize on the length vector, which
    # both checks take as is.  None marks an assignment where
    # package-merge and the subset scan differ (verdict or witness); it
    # equals no verdict, so it fails the check.
    sm_by_lengths: Dict[Tuple[int, ...], Optional[bool]] = {}

    def strongly_monotone(key: Tuple[int, ...]) -> Optional[bool]:
        if key not in sm_by_lengths:
            witness = strong_monotonicity_check(source, key)
            agree = witness == strong_monotonicity_scan(source, key)
            sm_by_lengths[key] = (witness is None) if agree else None
        return sm_by_lengths[key]

    def shape_of(depths: _Depths, perm: Tuple[int, ...]) -> Shape:
        return _fill(depths, [symbols[s] for s in perm])

    # The first three counterexamples of each check: fills, a Huffman
    # tree's label, or an incomplete template's length vector.
    bad: Dict[str, list] = {
        name: [] for name in ("equivalence", "sibling", "kraft", "monotone")}

    def note(name: str, counterexample) -> None:
        if len(bad[name]) < 3:
            bad[name].append(counterexample)

    def labels(name: str) -> List[str]:
        return [shape_label(shape_of(*fill)) for fill in bad[name]]

    row_class_checked = len(source) <= 5
    # multiset of sibling weight pairs -> whether the backtracking search
    # lists it; the answer depends on the pairs and the root weight alone
    listable: Dict[Tuple[Tuple[int, int], ...], bool] = {}
    sibling_fills: Set[_Fill] = set()
    # length key -> (first fill of the class, whether `_optimum` lists it)
    reps: Dict[Tuple[int, ...], Tuple[_Fill, bool]] = {}
    classes: Dict[Tuple[int, ...], List[_Fill]] = {}  # only if row-checked
    perms = _permutations(source)
    checked = 0

    for skeleton in _skeletons(len(source)):
        depths = skeleton.depths
        if not skeleton.complete:  # the checks below presuppose one
            note("kraft", depths)  # its first fill's length vector
            continue
        opt_here = opt_at.get(depths, ())
        for perm, key, total, pairs in _read(skeleton, perms):
            in_opt = perm in opt_here
            if not (total == best) == strongly_monotone(key) == (
                    key in huffman_length_keys) == in_opt:
                note("equivalence", (depths, perm))
            greedy = _greedy_listing(pairs)  # sorts the pairs
            multiset = tuple(pairs)
            if multiset not in listable:
                listable[multiset] = sibling_property_exhaustive(
                    CodeTree(source, shape_of(depths, perm))) is not None
            if greedy != listable[multiset]:
                note("sibling", (depths, perm))
            if greedy:
                sibling_fills.add((depths, perm))
            if key not in reps:
                reps[key] = ((depths, perm), in_opt)
            if row_class_checked:
                classes.setdefault(key, []).append((depths, perm))
        checked += len(perms)
    for tree in huffman_trees:
        if not is_monotone(tree):
            note("monotone", tree.label)

    checks.append(TheoremCheck(
        "optimal-iff-strongly-monotone-iff-length-equivalent",
        not bad["equivalence"],
        "counterexamples: %s" % labels("equivalence") if bad["equivalence"]
        else "%d trees checked" % checked))
    same_set = _fill_shapes(source, sibling_fills) == huffman_shapes
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
    opt_shapes = _fill_shapes(source, fills)
    shapes, truncated = closure_shapes(
        huffman_trees[0], {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY})
    checks.append(TheoremCheck(
        "optimal-swap-equivalence",
        not truncated and set(shapes) == opt_shapes,
        "closure size %d vs %d optimal trees"
        % (len(shapes), len(opt_shapes))))

    # Every optimal tree's same-row class contains a Huffman tree.
    corollary_ok = True
    detail = ""
    for key, (_, optimal) in reps.items():
        if optimal and key not in huffman_length_keys:
            corollary_ok = False
            detail = "optimal class %s has no Huffman member" % (key,)
            break
    if row_class_checked:
        for key, (fill, optimal) in reps.items():
            rep = CodeTree(source, shape_of(*fill))
            closure_row = set(closure_shapes(rep, {SwapKind.SAME_ROW})[0])
            if closure_row != _fill_shapes(source, classes[key]):
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
