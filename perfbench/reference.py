"""Independent references that check the CLI's answers.

Nothing here imports `prefixcodes`.  Weights are integers, a tree is a
nested tuple (a leaf is its symbol string, an internal node is a
`(left, right)` pair) and a code is a `{symbol: bitstring}` dict.  Every
failed check raises `WrongAnswer`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

POLICIES = ("first-left", "first-right", "last-left", "last-right")


class WrongAnswer(Exception):
    """The program's output disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- trees and codes --------------------------------------------------------

def huffman_shape(symbols: Sequence[str], weights: Sequence[int],
                  policy: str = "first-left"):
    """Huffman tree from a heap keyed on (weight, +/- insertion order).

    `first-*` merges the earliest-inserted of equal weights first and
    `last-*` the latest; merged nodes are inserted after every existing
    node.  `*-left` puts the first node taken on the left.
    """
    selector, _, order = policy.partition("-")
    sign = 1 if selector == "first" else -1
    heap = [(w, sign * i, s) for i, (s, w) in enumerate(zip(symbols, weights))]
    heapq.heapify(heap)
    inserted = len(heap)
    while len(heap) > 1:
        w1, _, small = heapq.heappop(heap)
        w2, _, second = heapq.heappop(heap)
        merged = (small, second) if order == "left" else (second, small)
        heapq.heappush(heap, (w1 + w2, sign * inserted, merged))
        inserted += 1
    return heap[0][2]


def codewords(shape) -> Dict[str, str]:
    words = {}
    stack = [(shape, "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, str):
            words[node] = prefix
        else:
            stack.append((node[0], prefix + "0"))
            stack.append((node[1], prefix + "1"))
    return words


def shape_of_code(words: Dict[str, str]):
    """Complete tree whose root-to-leaf paths spell the codewords."""
    def build(prefix: str):
        if prefix in leaf_at:
            return leaf_at[prefix]
        require(prefix in internal, "code is not complete at %r" % prefix)
        return (build(prefix + "0"), build(prefix + "1"))

    leaf_at = {w: s for s, w in words.items()}
    internal = {w[:k] for w in words.values() for k in range(len(w))}
    return build("")


def label(shape) -> str:
    if isinstance(shape, str):
        return shape
    return "(%s,%s)" % (label(shape[0]), label(shape[1]))


def parse_label(text: str):
    pos = 0

    def parse():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = parse()
            require(text[pos] == ",", "bad tree label %r" % text)
            pos += 1
            right = parse()
            require(text[pos] == ")", "bad tree label %r" % text)
            pos += 1
            return (left, right)
        start = pos
        while pos < len(text) and text[pos] not in ",)":
            pos += 1
        return text[start:pos]

    shape = parse()
    require(pos == len(text), "trailing text in tree label %r" % text)
    return shape


def depths(shape) -> Dict[str, int]:
    return {s: len(w) for s, w in codewords(shape).items()}


def total_weight(shape, weight: Dict[str, int]) -> int:
    return sum(weight[s] for s in codewords(shape))


def weighted_length(lengths: Dict[str, int], weight: Dict[str, int]) -> int:
    """Expected length times the total weight (an exact integer)."""
    return sum(weight[s] * ln for s, ln in lengths.items())


# -- swap moves -------------------------------------------------------------

def rows(shape) -> List[List[Tuple[str, object]]]:
    """(path, subtree) per row, left to right, as breadth-first ids run."""
    out = []
    frontier = [("", shape)]
    while frontier:
        out.append(frontier)
        nxt = []
        for path, node in frontier:
            if not isinstance(node, str):
                nxt.append((path + "0", node[0]))
                nxt.append((path + "1", node[1]))
        frontier = nxt
    return out


def _replace(shape, path: str, sub):
    if not path:
        return sub
    left, right = shape
    if path[0] == "0":
        return (_replace(left, path[1:], sub), right)
    return (left, _replace(right, path[1:], sub))


def apply_move(shape, text: str, weight: Dict[str, int]):
    """Apply one 'kind row_u idx_u row_v idx_v' move, checking its kind."""
    parts = text.split()
    require(len(parts) == 5, "malformed move %r" % text)
    kind = parts[0]
    ru, iu, rv, iv = (int(p) for p in parts[1:])
    table = rows(shape)
    require(ru < len(table) and iu < len(table[ru])
            and rv < len(table) and iv < len(table[rv]),
            "move %r is outside the tree" % text)
    pu, su = table[ru][iu]
    pv, sv = table[rv][iv]
    require(not pu.startswith(pv) and not pv.startswith(pu),
            "move %r swaps a node with its ancestor" % text)
    if kind == "parent":
        require(pu[:-1] == pv[:-1], "parent move %r on non-siblings" % text)
    elif kind == "row":
        require(ru == rv, "row move %r across rows" % text)
    elif kind == "prob":
        require(total_weight(su, weight) == total_weight(sv, weight),
                "prob move %r on unequal weights" % text)
    else:
        raise WrongAnswer("unknown move kind in %r" % text)
    return _replace(_replace(shape, pu, sv), pv, su)


def admissible_moves(shape, kinds: Sequence[str], weight: Dict[str, int]
               ) -> List[str]:
    """Every admissible move of the given kinds, as move text."""
    table = rows(shape)
    nodes = [(r, i, path, sub) for r, row in enumerate(table)
             for i, (path, sub) in enumerate(row) if r > 0]
    moves = []
    for a, (ru, iu, pu, su) in enumerate(nodes):
        for rv, iv, pv, sv in nodes[a + 1:]:
            if pu.startswith(pv) or pv.startswith(pu):
                continue
            for kind in kinds:
                if kind == "parent" and pu[:-1] != pv[:-1]:
                    continue
                if kind == "row" and ru != rv:
                    continue
                if kind == "prob" and (total_weight(su, weight)
                                       != total_weight(sv, weight)):
                    continue
                moves.append("%s %d %d %d %d" % (kind, ru, iu, rv, iv))
    return moves


def swap_invariant(shape, kinds: Sequence[str], weight: Dict[str, int]):
    """What every move of these kinds keeps: depth profile or length."""
    if "prob" in kinds:
        return ("weighted-length", weighted_length(depths(shape), weight))
    return ("depths", tuple(sorted(depths(shape).items())))


# -- strong monotonicity and synchronization --------------------------------

def check_witness(words: Dict[str, str], weight: Dict[str, int],
                  witness: dict) -> None:
    """K(A) = 2^-i, K(B) = 2^-j, i < j and P(A) < P(B), all exact."""
    a, b, i, j = witness["A"], witness["B"], witness["i"], witness["j"]
    require(set(a) <= set(words) and set(b) <= set(words),
            "witness names unknown symbols")
    require(0 <= i < j, "witness needs 0 <= i < j, got %s, %s" % (i, j))
    kraft_a = sum(Fraction(1, 2 ** len(words[s])) for s in set(a))
    kraft_b = sum(Fraction(1, 2 ** len(words[s])) for s in set(b))
    require(kraft_a == Fraction(1, 2 ** i), "K(A) = %s != 2^-%d" % (kraft_a, i))
    require(kraft_b == Fraction(1, 2 ** j), "K(B) = %s != 2^-%d" % (kraft_b, j))
    require(sum(weight[s] for s in set(a)) < sum(weight[s] for s in set(b)),
            "witness does not have P(A) < P(B)")


def synchronizes(words: Dict[str, str], bits: str) -> bool:
    """True iff `bits` drives every internal decoder state to the root."""
    leaves = set(words.values())
    internal = {w[:k] for w in words.values() for k in range(len(w))}
    for state in internal:
        for bit in bits:
            state += bit
            if state in leaves:
                state = ""
            require(state in internal, "decoder left the tree at %r" % state)
        if state != "":
            return False
    return True
