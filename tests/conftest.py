import pathlib
import random
import re
from collections import deque
from fractions import Fraction
from math import comb

import pytest

from prefixcodes import (
    CodeTree,
    PrefixCode,
    Source,
    SwapKind,
    available_swaps,
    code_from_tree,
    code_lengths,
    decoder_step,
    enumerate_complete_trees,
    huffman_build,
    node_swap,
    tree_from_code,
)
from prefixcodes.cli import parse_code_text, parse_source_text
from prefixcodes.errors import InvalidTree

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_source(name: str) -> Source:
    return parse_source_text((FIXTURES / name).read_text())


def load_code(name: str) -> PrefixCode:
    return parse_code_text((FIXTURES / name).read_text())


def load_lengths(source: Source, code_name: str):
    """The length vector of a fixture code over `source`."""
    return code_lengths(source, load_code(code_name))


def tree_lengths(tree):
    """The length vector of a tree's code."""
    return code_lengths(tree.source, code_from_tree(tree))


def load_tree(source_name: str, code_name: str):
    source = load_source(source_name)
    return source, tree_from_code(source, load_code(code_name))


def tree_for_label(source: Source, label: str) -> CodeTree:
    """Rebuild a CodeTree from a canonical label of a complete tree."""
    stack = []
    for token in re.findall(r"[(),]|[^(),]+", label):
        if token == ")":
            right = stack.pop()
            stack.append((stack.pop(), right))
        elif token not in ("(", ","):
            stack.append(token)
    (shape,) = stack
    return CodeTree(source, shape)


class Node:
    """One slot of the reference arena: a node object per tree node."""

    __slots__ = ("id", "parent", "left", "right", "depth", "weight", "symbol",
                 "shape")

    def __init__(self, id, parent, depth, weight, symbol, shape):
        self.id = id
        self.parent = parent
        self.left = None
        self.right = None
        self.depth = depth
        self.weight = weight
        self.symbol = symbol
        self.shape = shape


def reference_arena(source: Source, shape):
    """The node arena `CodeTree` stored as one `Node` per tree node, built
    from a breadth-first queue, with the same checks in the same order."""
    if isinstance(shape, str):
        raise InvalidTree("the root of a code tree cannot be a leaf")
    weight_of = source.weight_of
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
            nodes.append(Node(nid, parent, depth, weight_of[shp], shp, shp))
            continue
        if not (isinstance(shp, tuple) and len(shp) == 2):
            raise InvalidTree("tree node is neither a symbol nor a pair")
        left, right = shp
        if left is None and right is None:
            raise InvalidTree("internal node with no children")
        node = Node(nid, parent, depth, 0, None, shp)
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
    return nodes


def swapped_code(tree, move) -> PrefixCode:
    """The code a swap should give, worked out from codewords alone: the
    prefixes path(u) and path(v) trade places on the leaves below u and v."""
    pu, pv = tree.path(move.u), tree.path(move.v)
    words = {}
    for sym, word in code_from_tree(tree).words.items():
        for old, new in ((pu, pv), (pv, pu)):
            if word.startswith(old):
                word = new + word[len(old):]
                break
        words[sym] = word
    return PrefixCode(words)


def code_by_paths(tree) -> PrefixCode:
    """The tree's code read one leaf at a time through `CodeTree.path`."""
    return PrefixCode({sym: tree.path(tree.leaf_id(sym))
                       for sym in tree.source.symbols})


def kraft_sum_by_fractions(code, subset) -> Fraction:
    """The Kraft sum added one Fraction per symbol."""
    return sum((Fraction(1, 2 ** len(code.word(sym))) for sym in subset),
               Fraction(0))


def fold_decoder_step(tree, state, bits):
    """`decoder_step` applied bit by bit."""
    for ch in bits:
        state = decoder_step(tree, state, int(ch))
    return state


def complete_trees_up_to_six():
    """Every complete tree on 2-6 symbols, over tie-heavy weights."""
    for weights in ((1, 1), (2, 1, 1), (1, 2, 1, 3), (3, 1, 2, 1, 3),
                    (2, 1, 1, 2, 3, 1)):
        source = Source.from_weights(
            ("s%d" % i, w) for i, w in enumerate(weights))
        yield from enumerate_complete_trees(source).members


def catalan(n: int) -> int:
    """The number of ordered complete binary trees with n + 1 leaves."""
    return comb(2 * n, n) // (n + 1)


def caterpillar(n: int):
    """Equiprobable n-symbol source and the code 0, 10, 110, ..., 1^(n-1)."""
    source = Source.from_weights([("s%d" % i, 1) for i in range(n)])
    words = {"s%d" % i: "1" * i + "0" for i in range(n - 1)}
    words["s%d" % (n - 1)] = "1" * (n - 1)
    return source, words


def _random_source(rng, n):
    return Source.from_weights(("s%d" % i, rng.randint(1, 16))
                               for i in range(n))


def _complete_tree(rng, source):
    tree = huffman_build(source)
    for _ in range(rng.randint(0, 3)):
        moves = available_swaps(tree, {SwapKind.SAME_ROW})
        tree = node_swap(tree, rng.choice(moves))
    return tree


def _incomplete_tree(rng, source):
    """A complete tree with one codeword lengthened by a bit."""
    words = dict(code_from_tree(_complete_tree(rng, source)).words)
    sym = rng.choice(source.symbols)
    words[sym] += rng.choice("01")
    return tree_from_code(source, words)


def random_trees():
    """70 trees over random 3- to 6-symbol sources, 30 of them incomplete."""
    rng = random.Random(20261018)
    cases = []
    for i in range(40):
        source = _random_source(rng, 3 + i % 4)
        cases.append(_complete_tree(rng, source))
        if len(source) < 6:  # incomplete 6-symbol row classes run to 10^3+
            cases.append(_incomplete_tree(rng, source))
    return cases


@pytest.fixture(scope="session")
def ex1():
    return load_source("ex1.src")


@pytest.fixture(scope="session")
def ex2():
    return load_source("ex2.src")


@pytest.fixture(scope="session")
def ex3():
    return load_source("ex3.src")


@pytest.fixture(scope="session")
def ex4():
    return load_source("ex4.src")


@pytest.fixture(scope="session")
def ex5():
    return load_source("ex5.src")
