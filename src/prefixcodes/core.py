"""Sources, code trees, prefix codes, and exact-rational helpers.

Nothing in this package ever rounds.  A `Source` scales its rational
probabilities once, to integer weights over one common denominator
`Source.den`, and keeps only those; tree nodes, swap and sibling checks,
subset scans and the brute-force oracle add and compare the integers,
and `fractions.Fraction` values appear where a probability or expected
length is handed back to the caller and in the merges of `huffman_build`.

A code tree is given as a nested "shape" (leaf = symbol string,
internal node = pair of child shapes, a missing child = None) and is
stored as a flat node arena with ids assigned in breadth-first order,
so that (row, index-in-row) addressing is stable across rebuilds of the
same tree.  Each arena node holds the subtree shape rooted at it, so a
rebuild that changes a few subtrees reuses the shapes of the rest.  No
function here recurses, so trees of any depth work.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .errors import (
    AlphabetMismatch,
    DuplicateSymbol,
    InvalidSource,
    InvalidTree,
    KraftExceeded,
    PrefixViolation,
    UnknownSymbol,
)

# Characters that would make canonical labels ambiguous.
_FORBIDDEN_IN_SYMBOLS = set("(),_ \t\n")

Shape = Union[str, Tuple[Optional["Shape"], Optional["Shape"]]]


class Source:
    """An ordered alphabet with strictly positive probabilities summing to 1,
    each held once, as an integer weight over the common denominator `den`."""

    def __init__(self, entries: Iterable[Tuple[str, Fraction]]):
        pairs = [(sym, Fraction(prob)) for sym, prob in entries]
        den = lcm(*(p.denominator for _, p in pairs))
        self._store([(sym, p.numerator * (den // p.denominator))
                     for sym, p in pairs], den)

    @classmethod
    def from_weights(cls, entries: Iterable[Tuple[str, int]]) -> "Source":
        """Build a source from positive integer weights, normalized by their sum."""
        pairs = list(entries)
        total = sum(w for _, w in pairs)
        if total <= 0:
            raise InvalidSource("weights must be positive")
        common = gcd(total, *(w for _, w in pairs))  # least `den`, as Fraction
        source = cls.__new__(cls)
        source._store([(sym, w // common) for sym, w in pairs],
                      total // common)
        return source

    def _store(self, pairs: List[Tuple[str, int]], den: int) -> None:
        """Check and keep integer weights whose probabilities are w / den."""
        if len(pairs) < 2:
            raise InvalidSource("a source needs at least 2 symbols")
        seen = set()
        for sym, weight in pairs:
            if not isinstance(sym, str) or not sym:
                raise InvalidSource("symbols must be nonempty strings")
            if _FORBIDDEN_IN_SYMBOLS & set(sym):
                raise InvalidSource(
                    "symbol %r contains a reserved character" % sym)
            if sym in seen:
                raise DuplicateSymbol(sym)
            seen.add(sym)
            if weight <= 0:
                raise InvalidSource("probability of %r is not positive" % sym)
        total = sum(w for _, w in pairs)
        if total != den:
            raise InvalidSource("probabilities sum to %s, expected 1"
                                % Fraction(total, den))
        self.symbols: Tuple[str, ...] = tuple(s for s, _ in pairs)
        self.weights: Tuple[int, ...] = tuple(w for _, w in pairs)
        self.den: int = den
        self.weight_of: Dict[str, int] = dict(pairs)
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def prob(self, symbol: str) -> Fraction:
        return self.prob_of((symbol,))

    def prob_of(self, symbols: Iterable[str]) -> Fraction:
        try:
            return Fraction(sum(self.weight_of[s] for s in symbols), self.den)
        except KeyError as exc:
            raise UnknownSymbol(exc.args[0]) from None

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(symbol) from None

    def __eq__(self, other) -> bool:  # the weights sum to `den`
        return (isinstance(other, Source) and self.symbols == other.symbols
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((self.symbols, self.weights))

    def __repr__(self) -> str:
        body = ", ".join("%s:%s" % (s, Fraction(w, self.den))
                         for s, w in zip(self.symbols, self.weights))
        return "Source(%s)" % body


class PrefixCode:
    """A prefix-free symbol -> bit-string map."""

    def __init__(self, words):
        if isinstance(words, Mapping):
            pairs = list(words.items())
        else:
            pairs = list(words)
        table = {}
        for sym, word in pairs:
            if sym in table:
                raise DuplicateSymbol(sym)
            if not word or set(word) - {"0", "1"}:
                raise PrefixViolation(
                    "codeword for %r must be a nonempty 0/1 string" % sym)
            table[sym] = word
        by_word = sorted(table.items(), key=lambda kv: kv[1])
        for (s1, w1), (s2, w2) in zip(by_word, by_word[1:]):
            if w2.startswith(w1):
                raise PrefixViolation(
                    "codeword of %r is a prefix of codeword of %r" % (s1, s2))
        self.words: dict = table

    def word(self, symbol: str) -> str:
        try:
            return self.words[symbol]
        except KeyError:
            raise UnknownSymbol(symbol) from None

    @property
    def symbols(self):
        return tuple(self.words)

    def lengths(self) -> dict:
        return {s: len(w) for s, w in self.words.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, PrefixCode) and self.words == other.words

    def __hash__(self) -> int:
        return hash(frozenset(self.words.items()))

    def __repr__(self) -> str:
        body = ", ".join("%s:%s" % kv for kv in self.words.items())
        return "PrefixCode(%s)" % body


class Node:
    """One arena slot of a CodeTree; ids are breadth-first positions.

    `weight` is the node's probability as an integer over the source's
    `den`; `prob` gives it back as a Fraction.  `shape` is the subtree
    shape rooted at the node.
    """

    __slots__ = ("id", "parent", "left", "right", "depth", "weight", "symbol",
                 "den", "shape")

    def __init__(self, id, parent, depth, weight, symbol, den, shape):
        self.id = id
        self.parent = parent
        self.left = None
        self.right = None
        self.depth = depth
        self.weight = weight
        self.symbol = symbol
        self.den = den
        self.shape = shape

    @property
    def prob(self) -> Fraction:
        return Fraction(self.weight, self.den)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def shape_label(shape: Shape) -> str:
    """Nested-pair rendering; identical trees <=> identical labels."""
    parts = []
    stack = [shape]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            parts.append("(")
            stack.extend((")", item[1], ",", item[0]))
        else:  # a symbol, or one of the literal "," and ")" pushed above
            parts.append("_" if item is None else item)
    return "".join(parts)


class CodeTree:
    """A rooted binary code tree over a source, with integer node weights.

    Node ids are assigned in breadth-first, left-to-right order, so id 0
    is always the root and `rows()[r]` lists row r left to right.
    """

    __slots__ = ("source", "shape", "nodes", "root", "_label", "_rows",
                 "_complete", "_leaf_id")

    def __init__(self, source: Source, shape: Shape):
        if isinstance(shape, str):
            raise InvalidTree("the root of a code tree cannot be a leaf")
        weight_of, den = source.weight_of, source.den
        nodes = []
        leaf_id = {}
        queue = deque([(shape, None, 0)])  # (shape, parent id, depth)
        while queue:
            shp, parent, depth = queue.popleft()
            nid = len(nodes)
            if isinstance(shp, str):
                if shp in leaf_id:
                    raise InvalidTree("duplicate leaf symbols")
                if shp not in weight_of:
                    raise InvalidTree(
                        "tree leaves do not match the source alphabet")
                leaf_id[shp] = nid
                nodes.append(Node(nid, parent, depth, weight_of[shp], shp,
                                  den, shp))
                continue
            if not (isinstance(shp, tuple) and len(shp) == 2):
                raise InvalidTree("tree node is neither a symbol nor a pair")
            left, right = shp
            if left is None and right is None:
                raise InvalidTree("internal node with no children")
            node = Node(nid, parent, depth, 0, None, den, shp)
            # the queue holds ids nid+1 .. nid+len(queue) already
            if left is not None:
                node.left = nid + 1 + len(queue)
                queue.append((left, nid, depth + 1))
            if right is not None:
                node.right = nid + 1 + len(queue)
                queue.append((right, nid, depth + 1))
            nodes.append(node)
        if len(leaf_id) != len(weight_of):
            raise InvalidTree("tree leaves do not match the source alphabet")
        for node in reversed(nodes):  # children have larger ids than parents
            if node.parent is not None:
                nodes[node.parent].weight += node.weight
        self.source = source
        self.shape = shape
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.root = 0
        self._label = None
        self._rows = None
        self._complete = None
        self._leaf_id = leaf_id

    @property
    def label(self) -> str:
        if self._label is None:
            self._label = shape_label(self.shape)
        return self._label

    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        if self._rows is None:
            depth_max = max(n.depth for n in self.nodes)
            rows = [[] for _ in range(depth_max + 1)]
            for n in self.nodes:  # id order within a row = left-to-right
                rows[n.depth].append(n.id)
            self._rows = tuple(tuple(r) for r in rows)
        return self._rows

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def leaf_id(self, symbol: str) -> int:
        try:
            return self._leaf_id[symbol]
        except KeyError:
            raise UnknownSymbol(symbol) from None

    def depth_of(self, symbol: str) -> int:
        return self.nodes[self.leaf_id(symbol)].depth

    @property
    def max_depth(self) -> int:
        return len(self.rows()) - 1

    @property
    def internal_ids(self) -> Tuple[int, ...]:
        return tuple(n.id for n in self.nodes if not n.is_leaf)

    @property
    def is_complete(self) -> bool:
        if self._complete is None:  # nothing changes a tree's nodes
            self._complete = all(n.is_leaf or None not in (n.left, n.right)
                                 for n in self.nodes)
        return self._complete

    def path(self, node_id: int) -> str:
        """Bit path from the root to a node (0 = left edge, 1 = right edge)."""
        bits = []
        node = self.nodes[node_id]
        while node.parent is not None:
            parent = self.nodes[node.parent]
            bits.append("0" if parent.left == node.id else "1")
            node = parent
        return "".join(reversed(bits))

    def expected_length(self) -> Fraction:
        return Fraction(sum(n.weight * n.depth for n in self.nodes
                            if n.symbol is not None), self.source.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CodeTree) and self.source == other.source
                and self.label == other.label)

    def __hash__(self) -> int:
        return hash((self.source, self.label))

    def __repr__(self) -> str:
        return "CodeTree(%s)" % self.label


# symbol -> itself, (id(left), id(right)) -> the one shape with those
# children, which the table keeps alive, so no keyed id is reused
ShapeTable = Dict[object, Shape]


def interned(tree: CodeTree, table: ShapeTable) -> Shape:
    """Enter `tree`'s shapes in `table` (its own, where the table holds no
    equal one) and return the root's."""
    held: Dict[Optional[int], Shape] = {}
    for node in reversed(tree.nodes):  # children have larger ids
        shape = key = node.shape
        if node.symbol is None:
            left, right = held.get(node.left), held.get(node.right)
            key = (id(left), id(right))
            if left is not shape[0] or right is not shape[1]:
                shape = (left, right)
        held[node.id] = table.setdefault(key, shape)
    return held[0]


def canonical_label(tree: CodeTree) -> str:
    """Deterministic identity string of a tree (shape, orientation, leaves)."""
    return tree.label


def tree_from_code(source: Source, code) -> CodeTree:
    """Build the code tree whose root-to-leaf paths spell the codewords."""
    if not isinstance(code, PrefixCode):
        code = PrefixCode(code)
    if set(code.words) != set(source.symbols):
        raise AlphabetMismatch(
            "code covers %s, source has %s" %
            (sorted(code.words), sorted(source.symbols)))
    trie: dict = {}
    for sym, word in code.words.items():
        cur = trie
        for bit in word:
            cur = cur.setdefault(bit, {})
        cur["shape"] = sym
    nodes = [trie]
    for node in nodes:  # breadth-first: the list grows while it is read
        nodes.extend(node[bit] for bit in "01" if bit in node)
    for node in reversed(nodes):  # children before their parents
        if "shape" not in node:
            node["shape"] = tuple(node[bit]["shape"] if bit in node else None
                                  for bit in "01")
    return CodeTree(source, trie["shape"])


def code_from_tree(tree: CodeTree) -> PrefixCode:
    """Read codewords off a tree: left edges are 0, right edges are 1."""
    nodes, paths = tree.nodes, [""]
    for node in nodes[1:]:  # breadth-first ids: each parent's path is ready
        bit = "0" if nodes[node.parent].left == node.id else "1"
        paths.append(paths[node.parent] + bit)
    return PrefixCode({s: paths[tree.leaf_id(s)] for s in tree.source.symbols})


def kraft_sum(code: PrefixCode, subset: Optional[Iterable[str]] = None
              ) -> Fraction:
    """Exact sum of 2^-len(word) over a subset of the code's symbols."""
    if subset is None:
        subset = code.words
    lengths = [len(code.word(sym)) for sym in subset]
    top = max(lengths, default=0)
    return Fraction(sum(1 << (top - ln) for ln in lengths), 1 << top)


def expected_length(source: Source, code: PrefixCode) -> Fraction:
    """Exact average codeword length of `code` under `source`."""
    if set(code.words) != set(source.symbols):
        raise AlphabetMismatch("code does not cover the source alphabet")
    return Fraction(sum(source.weight_of[s] * len(w)
                        for s, w in code.words.items()), source.den)


def code_from_lengths(source: Source, lengths: Mapping[str, int]
                      ) -> PrefixCode:
    """Canonical prefix code realizing the requested codeword lengths.

    Symbols are ordered by (length ascending, source order) and each is
    assigned the numerically smallest codeword of its length that does
    not conflict with previously assigned prefixes.
    """
    if set(lengths) != set(source.symbols):
        raise AlphabetMismatch("length map does not cover the alphabet")
    for sym, ln in lengths.items():
        if not isinstance(ln, int) or ln < 1:
            raise KraftExceeded("length of %r must be a positive integer" % sym)
    total = sum(Fraction(1, 2 ** ln) for ln in lengths.values())
    if total > 1:
        raise KraftExceeded("Kraft sum %s exceeds 1" % total)
    ordered = sorted(source.symbols, key=lambda s: (lengths[s], source.index(s)))
    words = {}
    value = 0
    prev_len = lengths[ordered[0]]
    for pos, sym in enumerate(ordered):
        ln = lengths[sym]
        if pos:
            value = (value + 1) << (ln - prev_len)
        words[sym] = format(value, "b").rjust(ln, "0")
        prev_len = ln
    return PrefixCode({s: words[s] for s in source.symbols})
