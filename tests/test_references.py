"""Swap moves, swap probes and the exhaustive sibling search against
reference versions that read a `Node` object per tree node: the O(N^2)
move scan, the swapped shape rebuilt from the set of both endpoints'
ancestors, and the backtracking that retries tied pairs."""

import random
from itertools import combinations

import pytest

from prefixcodes import (
    Source,
    SwapKind,
    SwapMove,
    available_swaps,
    huffman_enumerate,
    sibling_property_exhaustive,
    tree_from_code,
)
from prefixcodes.core import interned, shape_label
from prefixcodes.errors import AncestryViolation, KindViolation
from prefixcodes.oracle import enumerate_complete_trees
from prefixcodes.swaps import swapped_shape
from conftest import caterpillar, load_tree, random_trees, reference_arena

KIND_SETS = [set(c) for r in (1, 2, 3) for c in combinations(SwapKind, r)]


def _is_ancestor(nodes, u, v):
    while v is not None:
        if v == u:
            return True
        v = nodes[v].parent
    return False


def reference_swaps(nodes, kinds):
    """Every node pair tested, tagged with the first kind that applies."""
    moves = []
    for u in range(1, len(nodes)):
        a = nodes[u]
        for v in range(u + 1, len(nodes)):
            b = nodes[v]
            if SwapKind.SAME_PARENT in kinds and a.parent == b.parent:
                kind = SwapKind.SAME_PARENT
            elif SwapKind.SAME_ROW in kinds and a.depth == b.depth:
                kind = SwapKind.SAME_ROW
            elif SwapKind.SAME_PROBABILITY in kinds and a.weight == b.weight \
                    and (a.depth == b.depth or not _is_ancestor(nodes, u, v)):
                kind = SwapKind.SAME_PROBABILITY
            else:
                continue
            moves.append(SwapMove(u, v, kind))
    return moves


def reference_swapped_shape(nodes, move, intern=None):
    """The checked swap rebuilt over the set of the endpoints' ancestors."""
    u, v = move.u, move.v
    if u == v:
        raise AncestryViolation("cannot swap a node with itself")
    if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
        raise AncestryViolation("node id out of range")
    above = set()
    for nid in (nodes[u].parent, nodes[v].parent):
        while nid is not None and nid not in above:
            above.add(nid)
            nid = nodes[nid].parent
    if min(u, v) in above:
        raise AncestryViolation("one swap endpoint is a descendant of the other")
    a, b = nodes[u], nodes[v]
    if move.kind is SwapKind.SAME_PARENT:
        if a.parent is None or a.parent != b.parent:
            raise KindViolation("nodes %d and %d are not siblings" % (u, v))
    elif move.kind is SwapKind.SAME_ROW:
        if a.depth != b.depth:
            raise KindViolation("nodes %d and %d are on different rows"
                                % (u, v))
    elif a.weight != b.weight:
        raise KindViolation("nodes %d and %d differ in probability" % (u, v))
    shapes = {u: b.shape, v: a.shape}
    for nid in sorted(above, reverse=True):
        node = nodes[nid]
        left, right = node.shape
        shape = (shapes.get(node.left, left), shapes.get(node.right, right))
        shapes[nid] = shape if intern is None else intern(
            (id(shape[0]), id(shape[1])), shape)
    return shapes[0]


def reference_sibling_order(tree):
    """The listing of the backtracking that tries every pair at a level."""
    nodes = reference_arena(tree.source, tree.shape)
    pairs = []
    for node in nodes:
        if node.symbol is None:
            left, right = nodes[node.left], nodes[node.right]
            pairs.append((left, right) if left.weight >= right.weight
                         else (right, left))

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
    return None if order is None else tuple(order)


def _outcome(probe, nodes_or_tree, move, intern=None):
    try:
        return shape_label(probe(nodes_or_tree, move, intern))
    except (AncestryViolation, KindViolation) as exc:
        return type(exc), str(exc)


def _agree(tree, moves):
    """Both probes give the same shape or the same error on each move, and
    enter the same number of shapes in a table."""
    nodes = reference_arena(tree.source, tree.shape)
    for move in moves:
        assert _outcome(swapped_shape, tree, move) == _outcome(
            reference_swapped_shape, nodes, move), move
        tables = ({}, {})
        for table in tables:
            interned(tree, table)
        assert _outcome(swapped_shape, tree, move, tables[0].setdefault) \
            == _outcome(reference_swapped_shape, nodes, move,
                        tables[1].setdefault), move
        assert len(tables[0]) == len(tables[1]), move


def _fixture_trees():
    trees = []
    for source_name, codes in (("ex4.src", ("ex4_h1", "ex4_h2", "ex4_c")),
                               ("ex5.src", ("ex5_h1", "ex5_h2"))):
        for code in codes:
            source, tree = load_tree(source_name, code + ".code")
            trees.append(tree)
        trees.extend(huffman_enumerate(source))
    return trees


CASES = _fixture_trees() + random_trees()


def test_cases_include_incomplete_trees():
    assert sum(not t.is_complete for t in CASES) == 30


@pytest.mark.parametrize("kinds", KIND_SETS,
                         ids=lambda ks: ",".join(sorted(k.value for k in ks)))
def test_moves_match_reference_scan(kinds):
    for tree in CASES:
        nodes = reference_arena(tree.source, tree.shape)
        assert available_swaps(tree, kinds) == reference_swaps(nodes, kinds)


def test_every_probe_matches_reference():
    for tree in CASES:
        span = range(-1, len(tree.shapes) + 1)
        _agree(tree, [SwapMove(u, v, kind) for u in span for v in span
                      for kind in SwapKind])


def test_caterpillar_probes_match_reference():
    # root paths about 1,100 deep; labels compare the shapes without
    # recursing
    source, words = caterpillar(1100)
    tree = tree_from_code(source, words)
    rng = random.Random(1100)
    span = range(-1, len(tree.shapes) + 1)
    moves = [SwapMove(rng.choice(span), rng.choice(span), kind)
             for _ in range(60) for kind in SwapKind]
    moves += rng.sample(available_swaps(tree, {SwapKind.SAME_PARENT}), 30)
    leaves = sorted(tree.leaf_id(s) for s in source.symbols)
    moves += [SwapMove(*sorted(rng.sample(leaves, 2)),
                       SwapKind.SAME_PROBABILITY) for _ in range(30)]
    _agree(tree, moves)


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1), (2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    (4, 3, 3, 2, 2, 2), (3, 3, 2, 2, 1, 1), (2, 1, 1, 1, 1, 1),
])
def test_pruned_sibling_search_matches_backtracking(weights):
    source = Source.from_weights(("s%d" % i, w) for i, w in enumerate(weights))
    trees = list(enumerate_complete_trees(source).members)
    rng = random.Random(sum(weights) * len(weights))
    sample = trees if len(trees) <= 400 else rng.sample(trees, 400)
    found = 0
    for tree in sample:
        listing = sibling_property_exhaustive(tree)
        order = None if listing is None else listing.order
        assert order == reference_sibling_order(tree), tree.label
        found += order is not None
    assert 0 < found < len(sample)
