"""Huffman construction, tie-break enumeration, and the sibling property."""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

from .core import CodeTree, ShapeTable, Source, shape_label
from .errors import CapExceeded, NotComplete, NotOptimal

DEFAULT_ENUMERATE_CAP = 100_000


class Selector(enum.Enum):
    """Which of several equally small nodes the merge loop picks."""
    FIRST_INDEX = "first"
    LAST_INDEX = "last"


class ChildOrder(enum.Enum):
    """Which side of a merge the smaller-probability node lands on."""
    SMALLER_LEFT = "smaller-left"
    SMALLER_RIGHT = "smaller-right"


@dataclass(frozen=True)
class TiePolicy:
    """Deterministic resolution of every choice in one merge-loop run."""
    selector: Selector = Selector.FIRST_INDEX
    child_order: ChildOrder = ChildOrder.SMALLER_LEFT


DEFAULT_POLICY = TiePolicy()


@dataclass(frozen=True)
class SiblingListing:
    """Non-root node ids in non-increasing probability, siblings adjacent."""
    order: Tuple[int, ...]


def huffman_build(source: Source, policy: TiePolicy = DEFAULT_POLICY
                  ) -> CodeTree:
    """One deterministic run of the merge loop under a tie policy."""
    items = [(source.prob(sym), sym) for sym in source.symbols]

    def pick_min(pool):
        best = None
        for idx, (prob, _) in enumerate(pool):
            if best is None or prob < pool[best][0]:
                best = idx
            elif prob == pool[best][0] and policy.selector is Selector.LAST_INDEX:
                best = idx
        return best

    while len(items) > 1:
        i = pick_min(items)
        small = items.pop(i)
        j = pick_min(items)
        second = items.pop(j)
        if policy.child_order is ChildOrder.SMALLER_LEFT:
            merged = (small[1], second[1])
        else:
            merged = (second[1], small[1])
        items.append((small[0] + second[0], merged))
    return CodeTree(source, items[0][1])


def huffman_enumerate(source: Source, cap: int = DEFAULT_ENUMERATE_CAP
                      ) -> Tuple[CodeTree, ...]:
    """Every tree some run of the merge loop can build, deduplicated.

    Branches at each merge step over (a) every unordered node pair whose
    probabilities can occupy the two smallest positions of the current
    probability multiset and (b) both left/right child orders.  Results
    are returned sorted by canonical label.  Raises CapExceeded as soon
    as more than `cap` distinct trees are found.
    """
    table: ShapeTable = {}  # lives for this call, so every id names a shape
    start = tuple(sorted(zip(map(id, source.symbols), source.weights,
                             source.symbols)))

    def successors(state):
        # state: tuple of (id(shape), weight, shape), sorted by id; a
        # state's ids are distinct, so no comparison reaches a shape
        least = second = None  # the two least weights, in one pass
        for _, w, _ in state:
            if least is None or w < least:
                least, second = w, least
            elif second is None or w < second:
                second = w
        lows = [i for i, t in enumerate(state) if t[1] == least]
        if least == second:
            pairs = combinations(lows, 2)
        else:  # the one least node with each second-least node, i < j
            pairs = (sorted((lows[0], j)) for j, t in enumerate(state)
                     if t[1] == second)
        for i, j in pairs:
            for left, right in ((state[i], state[j]), (state[j], state[i])):
                shape = table.setdefault((left[0], right[0]),
                                         (left[2], right[2]))
                nxt = list(state)
                del nxt[j], nxt[i]
                insort(nxt, (id(shape), least + second, shape))
                yield tuple(nxt)

    # no shape repeats: states expand once; a shape's root pair fixes its state
    seen = set()  # id keys of pushed states; `start` is no one's successor
    stack = [start]
    shapes = []
    while stack:
        for nxt in successors(stack.pop()):
            if len(nxt) == 1:
                shapes.append(nxt[0][2])
                if len(shapes) > cap:
                    raise CapExceeded(
                        "at least %d distinct Huffman trees exceed cap %d"
                        % (len(shapes), cap))
            elif (k := tuple(i for i, _, _ in nxt)) not in seen:
                seen.add(k)
                stack.append(nxt)
    return tuple(CodeTree(source, s) for s in sorted(shapes, key=shape_label))


def _sibling_pairs(tree: CodeTree):
    """(hi, lo) child pairs of each internal node, hi >= lo by probability."""
    nodes, pairs = tree.nodes, []
    for node in nodes:
        if node.symbol is None:
            left, right = nodes[node.left], nodes[node.right]
            pairs.append((left, right) if left.weight >= right.weight
                         else (right, left))
    return pairs


def sibling_property(source: Source, tree: CodeTree
                     ) -> Optional[SiblingListing]:
    """A sibling listing of the tree if one exists, else None.

    Greedy check: sibling pairs sorted by (hi, lo) descending form a
    valid listing whenever any valid listing exists; the exhaustive
    search in `sibling_property_exhaustive` cross-checks this on small
    trees.
    """
    if not tree.is_complete:
        raise NotComplete("a non-root node lacks a sibling")
    pairs = _sibling_pairs(tree)
    pairs.sort(key=lambda hl: (hl[0].weight, hl[1].weight), reverse=True)
    for (_, lo), (hi, _) in zip(pairs, pairs[1:]):
        if lo.weight < hi.weight:
            return None
    order = []
    for hi, lo in pairs:
        order.extend((hi.id, lo.id))
    return SiblingListing(tuple(order))


def sibling_property_exhaustive(source: Source, tree: CodeTree
                                ) -> Optional[SiblingListing]:
    """Backtracking search over all tied pair orderings; test oracle."""
    if not tree.is_complete:
        raise NotComplete("a non-root node lacks a sibling")
    pairs = _sibling_pairs(tree)

    def search(remaining, prev_lo, acc):
        if not remaining:
            return acc
        for k, (hi, lo) in enumerate(remaining):
            if prev_lo is not None and hi.weight > prev_lo:
                continue
            found = search(remaining[:k] + remaining[k + 1:], lo.weight,
                           acc + [hi.id, lo.id])
            if found is not None:
                return found
        return None

    order = search(pairs, None, [])
    return None if order is None else SiblingListing(tuple(order))


def is_huffman(source: Source, tree: CodeTree) -> bool:
    """True iff the tree could result from some run of the merge loop."""
    try:
        return sibling_property(source, tree) is not None
    except NotComplete:
        return False


def row_sorted(source: Source, tree: CodeTree) -> CodeTree:
    """Row-permute a tree so each row is in non-increasing probability.

    Working upward from the bottom row, each row's nodes (with their
    subtrees) are stably reordered by probability.  Leaf depths are kept,
    so on a complete tree the result is a Huffman tree iff the input is
    optimal (a Huffman tree is optimal; the paper proves the converse).
    """
    below = []
    for row in reversed(tree.rows()):
        feed = iter(below)  # (weight, shape) of the row below, reordered
        current = []
        for nid in row:
            node = tree.node(nid)
            if node.is_leaf:
                current.append((node.weight, node.symbol))
            else:
                (w_left, left), (w_right, right) = next(feed), next(feed)
                current.append((w_left + w_right, (left, right)))
        current.sort(key=lambda ws: ws[0], reverse=True)
        below = current
    return CodeTree(source, below[0][1])


def huffmanize(source: Source, tree: CodeTree) -> CodeTree:
    """Row-permute an optimal tree into a length-equivalent Huffman tree."""
    if not tree.is_complete:
        raise NotComplete("huffmanize requires a complete tree")
    if tree.expected_length() != huffman_build(source).expected_length():
        raise NotOptimal("huffmanize requires an optimal code")
    return row_sorted(source, tree)
