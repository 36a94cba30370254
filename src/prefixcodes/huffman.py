"""Huffman construction under one of four tie policies, enumeration over
flip orbits, the sibling property."""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from math import inf
from operator import itemgetter
from typing import List, Optional, Tuple

from .core import CodeTree, Oriented, ShapeTable, Source, orbit, shape_label
from .errors import CapExceeded, NotComplete, NotOptimal

DEFAULT_ENUMERATE_CAP = 100_000


class TiePolicy(enum.Enum):
    """Which run of the merge loop `huffman_build` makes, named as on the
    command line: the first or the last of equally small nodes in pool
    order, and the side the smaller node of a merge lands on."""
    FIRST_LEFT = "first-left"
    FIRST_RIGHT = "first-right"
    LAST_LEFT = "last-left"
    LAST_RIGHT = "last-right"


@dataclass(frozen=True)
class SiblingListing:
    """Non-root node ids in non-increasing probability, siblings adjacent."""
    order: Tuple[int, ...]


def huffman_build(source: Source, policy: TiePolicy = TiePolicy.FIRST_LEFT
                  ) -> CodeTree:
    """One run of the merge loop from the symbols in source order: each
    merged node joins the end of the pool, and the policy says which of
    equal least nodes a merge takes and where the smaller one lands."""
    items = [(source.prob(sym), sym) for sym in source.symbols]
    last = policy in (TiePolicy.LAST_LEFT, TiePolicy.LAST_RIGHT)
    smaller_left = policy in (TiePolicy.FIRST_LEFT, TiePolicy.LAST_LEFT)

    def pick_min(pool):
        best = None
        for idx, (prob, _) in enumerate(pool):
            if best is None or prob < pool[best][0]:
                best = idx
            elif prob == pool[best][0] and last:
                best = idx
        return best

    while len(items) > 1:
        i = pick_min(items)
        small = items.pop(i)
        j = pick_min(items)
        second = items.pop(j)
        merged = ((small[1], second[1]) if smaller_left
                  else (second[1], small[1]))
        items.append((small[0] + second[0], merged))
    return CodeTree(source, items[0][1])


def huffman_length(source: Source) -> Fraction:
    """The expected length of every Huffman tree of the source, with no
    tree built.  A leaf at depth d lies below d internal nodes, so the
    expected length is the sum of the internal nodes' weights, one per
    merge, over `den`.  Every tie choice gives that one cost, so no tie
    policy applies."""
    heap = list(source.weights)
    heapify(heap)
    total = 0
    while len(heap) > 1:
        merged = heappop(heap) + heap[0]
        heapreplace(heap, merged)
        total += merged
    return Fraction(total, source.den)


def huffman_enumerate(source: Source, cap: int = DEFAULT_ENUMERATE_CAP
                      ) -> Tuple[CodeTree, ...]:
    """Every tree some run of the merge loop can build, deduplicated.

    Branches at each merge step over every unordered node pair whose
    weights can be the two least, and enters the merge in canonical
    orientation. Either child order is a run too, so the trees are the
    flip orbits (2^(n-1) trees each) of the forms found, sorted by label.
    Raises CapExceeded once the forms exceed `cap` trees, before any tree
    is built, and ValueError for a cap below 1.
    """
    if cap < 1:  # every source has at least one Huffman tree
        raise ValueError("Huffman tree cap must be at least 1, got %d" % cap)
    forms = Oriented({}, source)  # lives for this call: every id names a form
    start = tuple(sorted((w, id(forms.setdefault(sym, sym)), sym)
                         for sym, w in zip(source.symbols, source.weights)))

    def successors(state):
        # state: sorted (weight, id(form), form) tuples; a state's ids are
        # distinct, so no comparison reaches a form
        least, second = state[0][0], state[1][0]
        end = bisect_right(state, (second, inf))  # the nodes that can merge
        pairs = (combinations(range(end), 2) if least == second
                 else ((0, j) for j in range(1, end)))
        for i, j in pairs:
            form = forms.setdefault((state[i][1], state[j][1]),
                                    (state[i][2], state[j][2]))
            nxt = list(state)
            del nxt[j], nxt[i]
            insort(nxt, (least + second, id(form), form))
            yield tuple(nxt)

    # no form repeats: states expand once; a form's root pair fixes its state
    seen = set()  # id keys of pushed states; `start` is no one's successor
    stack = [start]
    found, flips = [], 2 ** (len(source) - 1)  # each form's tree count
    while stack:
        for nxt in successors(stack.pop()):
            if len(nxt) == 1:
                found.append(nxt[0][2])
                if len(found) * flips > cap:
                    raise CapExceeded(
                        "at least %d distinct Huffman trees exceed cap %d"
                        % (cap + 1, cap))
            elif (k := tuple(i for _, i, _ in nxt)) not in seen:
                seen.add(k)
                stack.append(nxt)
    table: ShapeTable = {}  # one shape per distinct subtree, over all trees
    shapes = [s for f in found for s in orbit(
        f, lambda pair: table.setdefault((id(pair[0]), id(pair[1])), pair))]
    return tuple(CodeTree(source, s) for s in sorted(shapes, key=shape_label))


def _sibling_pairs(tree: CodeTree) -> List[Tuple[int, int, int, int]]:
    """(hi weight, lo weight, hi id, lo id) for the two children of each
    internal node of a complete tree, hi >= lo by probability."""
    if not tree.is_complete:
        raise NotComplete("a non-root node lacks a sibling")
    weights, pairs = tree.weights, []
    for left, right in zip(tree.lefts, tree.rights):
        if left is not None:  # complete: an internal node has both
            w_left, w_right = weights[left], weights[right]
            pairs.append((w_left, w_right, left, right) if w_left >= w_right
                         else (w_right, w_left, right, left))
    return pairs


def sibling_property(tree: CodeTree) -> Optional[SiblingListing]:
    """A sibling listing of the tree if one exists, else None.

    Greedy check: sibling pairs sorted by (hi, lo) descending form a
    valid listing whenever any valid listing exists; the exhaustive
    search in `sibling_property_exhaustive` cross-checks this on small
    trees.
    """
    pairs = _sibling_pairs(tree)
    if not _greedy_listing(pairs):
        return None
    return SiblingListing(tuple(i for _, _, hi, lo in pairs for i in (hi, lo)))


def _greedy_listing(pairs: list) -> bool:
    """Sort sibling pairs, each (hi, lo, ...), by (hi, lo) descending, in
    place (stable: ties keep their order), and say whether that order is
    a listing: no pair outweighs the lo of the pair before it."""
    pairs.sort(key=itemgetter(0, 1), reverse=True)
    prev_lo = pairs[0][0]
    for pair in pairs:
        if pair[0] > prev_lo:
            return False
        prev_lo = pair[1]
    return True


def sibling_property_exhaustive(tree: CodeTree) -> Optional[SiblingListing]:
    """Backtracking search over all tied pair orderings; test oracle.

    Whether a partial listing extends depends only on the weights of the
    pairs left, so each level tries one pair per (hi, lo) weight pair.
    """
    pairs = _sibling_pairs(tree)
    count, top = len(pairs), tree.weights[0]  # the root outweighs any pair
    same, seen = [], {}  # same[k]: bits of the pairs before k with k's weights
    for k, (hi, lo, _, _) in enumerate(pairs):
        same.append(seen.get((hi, lo), 0))
        seen[hi, lo] = same[-1] | 1 << k
    picked: List[int] = []  # the pair placed at each level so far
    left, prev_lo, k = (1 << count) - 1, top, 0  # bits of the pairs left
    while True:
        while k < count and not (left >> k & 1 and pairs[k][0] <= prev_lo
                                 and not same[k] & left):
            k += 1
        if k < count:  # place pair k, then go one level down
            picked.append(k)
            left ^= 1 << k
            if not left:
                return SiblingListing(tuple(i for k in picked
                                            for i in pairs[k][2:]))
            prev_lo, k = pairs[k][1], 0
        elif picked:  # take back this level's pair, try the next one
            k = picked.pop()
            left |= 1 << k
            prev_lo, k = pairs[picked[-1]][1] if picked else top, k + 1
        else:
            return None


def is_huffman(tree: CodeTree) -> bool:
    """True iff the tree could result from some run of the merge loop on
    its source."""
    try:
        return sibling_property(tree) is not None
    except NotComplete:
        return False


def _row_sort(tree: CodeTree) -> Tuple[List[Tuple[int, int]], tuple]:
    """The sibling pairs (w_left, w_right), w_left >= w_right, and the
    shape of the row-sorted tree (see `row_sorted`), in one pass."""
    if not tree.is_complete:
        raise NotComplete("a non-root node lacks a sibling")
    weights, symbols, pairs, below = tree.weights, tree.symbols, [], []
    for row in reversed(tree.rows()):
        feed = iter(below)  # (weight, shape) of the row below, reordered
        current = []
        for nid in row:
            if symbols[nid] is not None:
                current.append((weights[nid], symbols[nid]))
            else:
                (w_left, left), (w_right, right) = next(feed), next(feed)
                pairs.append((w_left, w_right))
                current.append((w_left + w_right, (left, right)))
        below = sorted(current, key=itemgetter(0), reverse=True)
    return pairs, below[0][1]


def row_sorted(tree: CodeTree) -> CodeTree:
    """Row-permute a tree so each row is in non-increasing probability.

    Working upward from the bottom row, each row's nodes (with their
    subtrees) are stably reordered by probability.  Leaf depths are kept,
    so the result is a Huffman tree iff the input is optimal (a Huffman
    tree is optimal; the paper proves the converse).  Raises NotComplete
    on an incomplete tree, which has a node with no sibling to pair.
    """
    return CodeTree(tree.source, _row_sort(tree)[1])


def huffmanize(tree: CodeTree) -> CodeTree:
    """Row-permute an optimal tree into a length-equivalent Huffman tree."""
    if not tree.is_complete:
        raise NotComplete("huffmanize requires a complete tree")
    if tree.expected_length() != huffman_length(tree.source):
        raise NotOptimal("huffmanize requires an optimal code")
    return row_sorted(tree)
