"""Sources, code trees, prefix codes, and exact-rational helpers.

Nothing in this package ever rounds.  A `Source` scales its rational
probabilities once, to integer weights over one common denominator
`Source.den`, and keeps only those; tree nodes, swap and sibling checks,
subset scans and the brute-force oracle add and compare the integers,
and `fractions.Fraction` values appear where a probability or expected
length is handed back to the caller and in the merges of `huffman_build`.

A code tree is given as a nested "shape" (leaf = symbol string,
internal node = pair of child shapes, a missing child = None) and is
stored as a node arena: parallel tuples (parent, children, depth,
weight, symbol, subtree shape) indexed by node ids assigned in
breadth-first order, so that (row, index-in-row) addressing is stable
across rebuilds of the same tree, a parent's id is below its
children's and each row is a run of ids.  Since each node's subtree
shape is kept, a rebuild that changes a few subtrees reuses the shapes
of the rest.  No function here recurses, so trees of any depth work.
`interned` enters a tree's shapes in a `ShapeTable`, one object per
distinct subtree; an `Oriented` table holds each tree by its canonical
form (the least source index left at every node with two children), and
`orbit` expands a shape to the trees of all its flip patterns.

Checks that read codeword lengths alone take a length vector, the
lengths in source order; `code_lengths` reads one off a `PrefixCode`,
and `_checked_lengths` validates every one a function is given.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import (Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
                    TypeVar, Union)

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
        pairs = list(entries)
        for sym, prob in pairs:  # before any arithmetic: no float, no bool
            if isinstance(prob, (bool, float)):
                raise InvalidSource("probability of %r is a %s, not a Fraction"
                                    % (sym, type(prob).__name__))
        pairs = [(sym, Fraction(prob)) for sym, prob in pairs]
        den = lcm(*(p.denominator for _, p in pairs))
        self._store([(sym, p.numerator * (den // p.denominator))
                     for sym, p in pairs], den)

    @classmethod
    def from_weights(cls, entries: Iterable[Tuple[str, int]]) -> "Source":
        """Build a source from positive integer weights, normalized by their sum."""
        pairs = list(entries)
        for sym, w in pairs:  # before any arithmetic: no float, no bool
            if isinstance(w, bool) or not isinstance(w, int):
                raise InvalidSource("weight of %r is not an integer" % (sym,))
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
                raise DuplicateSymbol("duplicate symbol %r" % sym)
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
            raise UnknownSymbol("unknown symbol %r" % exc.args[0]) from None

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol("unknown symbol %r" % symbol) from None

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
        table = {}
        for sym, word in (words.items() if isinstance(words, Mapping)
                          else words):
            if sym in table:
                raise DuplicateSymbol("duplicate symbol %r" % sym)
            if not isinstance(word, str) or not word or set(word) - {"0", "1"}:
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
            raise UnknownSymbol("unknown symbol %r" % symbol) from None

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
    is always the root and `rows()[r]` lists row r left to right.  Node
    `i` is read from parallel tuples: `parents[i]`, `lefts[i]` and
    `rights[i]` (None for the root's parent and a missing child),
    `depths[i]`, `weights[i]` (integers over the source's `den`),
    `symbols[i]` (None for an internal node) and `shapes[i]`, the
    subtree shape rooted at it.
    """

    __slots__ = ("source", "shape", "parents", "lefts", "rights", "depths",
                 "weights", "symbols", "shapes", "root", "_label", "_rows",
                 "_complete", "_leaf_id")

    def __init__(self, source: Source, shape: Shape):
        if isinstance(shape, str):
            raise InvalidTree("the root of a code tree cannot be a leaf")
        weight_of = source.weight_of
        shapes, parents, depths = [shape], [None], [0]
        lefts, rights, symbols, weights = [], [], [], []
        leaf_id = {}
        for nid, shp in enumerate(shapes):  # breadth-first: the lists grow
            if isinstance(shp, str):
                if shp in leaf_id:
                    raise InvalidTree("duplicate leaf symbols")
                if shp not in weight_of:
                    raise InvalidTree(
                        "tree leaves do not match the source alphabet")
                leaf_id[shp] = nid
                lefts.append(None)
                rights.append(None)
                symbols.append(shp)
                weights.append(weight_of[shp])
                continue
            if not (isinstance(shp, tuple) and len(shp) == 2):
                raise InvalidTree("tree node is neither a symbol nor a pair")
            left, right = shp
            symbols.append(None)
            weights.append(0)
            depth = depths[nid] + 1
            if left is None:
                if right is None:
                    raise InvalidTree("internal node with no children")
                lefts.append(None)
            else:
                lefts.append(len(shapes))
                shapes.append(left)
                parents.append(nid)
                depths.append(depth)
            if right is None:
                rights.append(None)
            else:
                rights.append(len(shapes))
                shapes.append(right)
                parents.append(nid)
                depths.append(depth)
        if len(leaf_id) != len(weight_of):
            raise InvalidTree("tree leaves do not match the source alphabet")
        for nid in range(len(shapes) - 1, 0, -1):  # children after parents
            weights[parents[nid]] += weights[nid]
        self.source = source
        self.shape = shape
        self.parents: Tuple[Optional[int], ...] = tuple(parents)
        self.lefts: Tuple[Optional[int], ...] = tuple(lefts)
        self.rights: Tuple[Optional[int], ...] = tuple(rights)
        self.depths: Tuple[int, ...] = tuple(depths)
        self.weights: Tuple[int, ...] = tuple(weights)
        self.symbols: Tuple[Optional[str], ...] = tuple(symbols)
        self.shapes: Tuple[Shape, ...] = tuple(shapes)
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
        if self._rows is None:  # breadth-first: each row is a run of ids
            depths = self.depths
            ends = [bisect_right(depths, d) for d in range(depths[-1] + 1)]
            self._rows = tuple(tuple(range(start, end))
                               for start, end in zip([0] + ends, ends))
        return self._rows

    def prob(self, node_id: int) -> Fraction:
        return Fraction(self.weights[node_id], self.source.den)

    def leaf_id(self, symbol: str) -> int:
        try:
            return self._leaf_id[symbol]
        except KeyError:
            raise UnknownSymbol("unknown symbol %r" % symbol) from None

    def depth_of(self, symbol: str) -> int:
        return self.depths[self.leaf_id(symbol)]

    @property
    def max_depth(self) -> int:
        return self.depths[-1]

    @property
    def internal_ids(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.symbols) if s is None)

    @property
    def is_complete(self) -> bool:
        if self._complete is None:  # a leaf has no child; nor has a gap
            self._complete = (self.lefts.count(None) + self.rights.count(None)
                              == 2 * len(self._leaf_id))
        return self._complete

    def path(self, node_id: int) -> str:
        """Bit path from the root to a node (0 = left edge, 1 = right edge)."""
        bits, parents, lefts = [], self.parents, self.lefts
        parent = parents[node_id]
        while parent is not None:
            bits.append("0" if lefts[parent] == node_id else "1")
            node_id, parent = parent, parents[parent]
        return "".join(reversed(bits))

    def expected_length(self) -> Fraction:
        weights, depths = self.weights, self.depths
        return Fraction(sum(weights[i] * depths[i]
                            for i in self._leaf_id.values()), self.source.den)

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
T = TypeVar("T")


class Oriented:
    """A shape table that holds each tree by its canonical form: every node
    with two children puts the one holding the least source index on its
    left, and a node with one child keeps it on its side.  Trees that
    differ only by swapping siblings then give one shape, one object in
    `table`.

    `get` and `setdefault` are a `ShapeTable`'s, given the key
    (id(left), id(right)) and the node, which they orient first.
    `setdefault` also takes a symbol, keyed on itself, and takes a node
    only once the table holds its children; `get` hands back a node with
    a child the table lacks as it is, since the table lacks it too.

    `least` maps the id of each shape the table holds to the least source
    index below it, and keys no other shape, since a freed tuple's id is
    reused; so a child it does not key is one the table lacks."""

    __slots__ = ("table", "least", "_index")

    def __init__(self, table: ShapeTable, source: Source):
        self.table = table
        self.least: Dict[int, int] = {}
        self._index = source._index

    def get(self, key: Tuple[int, int], shape: Shape) -> Shape:
        left, right = shape
        if left is not None and right is not None:
            least = self.least
            low_left, low_right = least.get(id(left)), least.get(id(right))
            if low_left is None or low_right is None:
                return shape  # a child the table lacks: so does this node
            if low_right < low_left:
                return self.table.get((key[1], key[0]), (right, left))
        return self.table.get(key, shape)

    def setdefault(self, key: object, shape: Shape) -> Shape:
        least = self.least
        if isinstance(shape, str):
            low = self._index[shape]
        else:
            left, right = shape
            if (left is not None and right is not None
                    and least[id(right)] < least[id(left)]):
                key, shape = (key[1], key[0]), (right, left)
            low = least[id(shape[0] or shape[1])]  # the left, if any
        held = self.table.setdefault(key, shape)
        least[id(held)] = low
        return held


def interned(tree: CodeTree, table: Union[ShapeTable, Oriented]) -> Shape:
    """Enter `tree`'s shapes in `table` (its own, where the table holds no
    equal one) and return the root's: an `Oriented` table holds and
    returns those of the tree's canonical form."""
    shapes, lefts, rights = tree.shapes, tree.lefts, tree.rights
    held: Dict[Optional[int], Shape] = {None: None}
    for nid in range(len(shapes) - 1, -1, -1):  # children after parents
        shape = key = shapes[nid]
        if tree.symbols[nid] is None:
            left, right = held[lefts[nid]], held[rights[nid]]
            key = (id(left), id(right))
            if left is not shape[0] or right is not shape[1]:
                shape = (left, right)
        held[nid] = table.setdefault(key, shape)
    return held[0]


def orbit(shape: Shape, join: Callable[[Tuple[Optional[T], Optional[T]]], T]
          ) -> List[T]:
    """The trees every flip pattern of a tree's `shape` gives, one per
    pattern, each node built as `join((left, right))` from its built
    children (None for a missing child): both child orders of each node
    with two children, and the one order of a node with one, which has no
    sibling pair to flip.  `tuple` as `join` builds shapes.

    No recursion, so any depth works.
    """
    order, todo = [], [shape]
    while todo:  # the internal nodes, pre-order, the right subtree first
        node = todo.pop()
        order.append(node)
        left, right = node
        if isinstance(left, tuple):
            todo.append(left)
        if isinstance(right, tuple):
            todo.append(right)
    done: List[List[T]] = []  # the orbits of finished subtrees
    for node in reversed(order):  # children before parents, left first
        left, right = node
        right = done.pop() if isinstance(right, tuple) else [right]
        left = done.pop() if isinstance(left, tuple) else [left]
        nodes = list(map(join, product(left, right)))
        if node[0] is not None and node[1] is not None:
            nodes += map(join, product(right, left))
        done.append(nodes)
    return done[0]


def tree_from_code(source: Source, code) -> CodeTree:
    """Build the code tree whose root-to-leaf paths spell the codewords."""
    if not isinstance(code, PrefixCode):
        code = PrefixCode(code)
    if set(code.words) != set(source.symbols):
        raise AlphabetMismatch(
            "code covers %s, source has %s" %
            (sorted(code.words), sorted(source.symbols)))
    leaves: Dict[int, Dict[str, Shape]] = {}  # length -> {word: symbol}
    for sym, word in code.words.items():
        leaves.setdefault(len(word), {})[word] = sym
    level: Dict[str, Shape] = {}  # word -> shape of the nodes at one depth
    for depth in range(max(leaves), 0, -1):  # prefix-free: no leaf has kids
        level.update(leaves.get(depth, {}))
        pairs: Dict[str, list] = {}
        for word, shape in level.items():
            pairs.setdefault(word[:-1], [None, None])[word[-1] == "1"] = shape
        level = {word: tuple(pair) for word, pair in pairs.items()}
    return CodeTree(source, level[""])


def code_from_tree(tree: CodeTree) -> PrefixCode:
    """Read codewords off a tree: left edges are 0, right edges are 1."""
    lefts, paths = tree.lefts, [""]
    for nid, parent in enumerate(tree.parents[1:], 1):  # parents come first
        paths.append(paths[parent] + ("0" if lefts[parent] == nid else "1"))
    return PrefixCode({s: paths[tree.leaf_id(s)] for s in tree.source.symbols})


def _kraft(lengths: Tuple[int, ...]) -> Tuple[int, int]:
    """(numerator, exponent) of the Kraft sum of `lengths` over 2^exponent,
    once each entry is an integer of at least 1."""
    for ln in lengths:
        if not isinstance(ln, int) or ln < 1:
            raise KraftExceeded("codeword length %r is not a positive integer"
                                % (ln,))
    top = max(lengths, default=0)
    return sum(1 << (top - ln) for ln in lengths), top


def kraft_sum(lengths: Iterable[int]) -> Fraction:
    """Exact sum of 2^-length over `lengths`; pass a subset's lengths for
    that subset's sum."""
    num, top = _kraft(tuple(lengths))
    return Fraction(num, 1 << top)


def _checked_lengths(source: Source, lengths: Iterable[int]
                     ) -> Tuple[int, ...]:
    """`lengths` as a tuple, once it is a length vector over `source`: one
    integer of at least 1 per symbol, with Kraft sum at most 1."""
    lengths = tuple(lengths)
    if len(lengths) != len(source):
        raise AlphabetMismatch("%d codeword lengths for %d symbols"
                               % (len(lengths), len(source)))
    num, top = _kraft(lengths)
    if num > 1 << top:
        raise KraftExceeded("Kraft sum %s exceeds 1" % Fraction(num, 1 << top))
    return lengths


def code_lengths(source: Source, code: PrefixCode) -> Tuple[int, ...]:
    """The length vector of `code`: its codeword lengths in source order."""
    if set(code.words) != set(source.symbols):
        raise AlphabetMismatch("code does not cover the source alphabet")
    return tuple(len(code.words[s]) for s in source.symbols)


def expected_length(source: Source, lengths: Iterable[int]) -> Fraction:
    """Exact average codeword length of the length vector under `source`."""
    lengths = _checked_lengths(source, lengths)
    return Fraction(sum(w * ln for w, ln in zip(source.weights, lengths)),
                    source.den)


def code_from_lengths(source: Source, lengths: Iterable[int]) -> PrefixCode:
    """Canonical prefix code realizing the length vector.

    Symbols are ordered by (length ascending, source order) and each is
    assigned the numerically smallest codeword of its length that does
    not conflict with previously assigned prefixes.
    """
    lengths = _checked_lengths(source, lengths)
    words = [""] * len(lengths)
    value, prev = -1, 0
    for k in sorted(range(len(lengths)), key=lengths.__getitem__):  # stable
        value = (value + 1) << (lengths[k] - prev)
        prev = lengths[k]
        words[k] = format(value, "b").rjust(prev, "0")
    return PrefixCode(zip(source.symbols, words))
