"""The swap search that keys on swapped shapes against a reference search
that builds a tree for every neighbour and keys on its label, as the
search once did."""

from collections import deque
from itertools import combinations

import pytest

from prefixcodes import (
    ClosureResult,
    SwapKind,
    available_swaps,
    code_from_tree,
    huffman_build,
    huffman_enumerate,
    node_swap,
    replay,
    swap_closure,
    swap_equivalent,
    tree_from_code,
)
from prefixcodes import swaps
from prefixcodes.core import CodeTree, interned, shape_label
from prefixcodes.errors import AncestryViolation, KindViolation, Truncated
from prefixcodes.swaps import SwapMove, _fold, closure_shapes, swapped_shape
from conftest import caterpillar, load_tree, random_trees

KIND_SETS = [set(c) for r in (1, 2, 3) for c in combinations(SwapKind, r)]
CAPS = (3, 10, 10 ** 6)


def reference_search(tree, kinds, cap, target=None):
    """The search loop that calls `node_swap` for every neighbour."""
    parent = {tree.label: (None, None)}
    queue = deque([tree])
    truncated = False
    while queue:
        current = queue.popleft()
        for move in available_swaps(current, kinds):
            neighbor = node_swap(current, move)
            label = neighbor.label
            if label in parent:
                continue
            if label == target:
                parent[label] = (current.label, move)
                return parent, truncated
            if len(parent) >= cap:
                truncated = True
                continue
            parent[label] = (current.label, move)
            queue.append(neighbor)
    return parent, truncated


def reference_closure(source, tree, kinds, cap):
    parent, truncated = reference_search(tree, kinds, cap)
    return ClosureResult(tuple(sorted(parent)), truncated)


def reference_equivalent(source, t1, t2, kinds, cap):
    if t1.label == t2.label:
        return []
    parent, truncated = reference_search(t1, kinds, cap, t2.label)
    if t2.label in parent:
        return _certificate(parent, t2.label)
    if truncated:
        raise Truncated("closure cap %d hit before deciding equivalence" % cap)
    return None


def _outcome(call):
    try:
        return call()
    except Truncated as exc:
        return ("Truncated", str(exc))


def test_cases_cover_sizes_and_incomplete_codes():
    cases = random_trees()
    assert {len(t.source) for t in cases} == {3, 4, 5, 6}
    assert len(cases) == 70
    assert sum(not t.is_complete for t in cases) == 30


def _kind_of(outcome):
    if isinstance(outcome, ClosureResult):
        return "truncated" if outcome.truncated else "closed"
    if isinstance(outcome, list):
        return "certificate" if outcome else "same"
    return "none" if outcome is None else "cap"


@pytest.mark.parametrize("index", range(0, 70, 10))
def test_search_agrees_with_reference(index):
    seen = set()
    for tree in random_trees()[index:index + 10]:
        source = tree.source
        full, _ = reference_search(tree, set(SwapKind), 10 ** 6)
        far = list(full)[-1]  # the last state recorded under all kinds
        target = replay(tree, _certificate(full, far))
        for kinds in KIND_SETS:
            for cap in CAPS:
                pairs = [(swap_closure, reference_closure, (tree,)),
                         (swap_equivalent, reference_equivalent,
                          (tree, target))]
                for search, reference, trees in pairs:
                    got = _outcome(lambda: search(source, *trees, kinds, cap))
                    assert got == _outcome(
                        lambda: reference(source, *trees, kinds, cap))
                    seen.add(_kind_of(got))
    assert seen >= {"closed", "truncated", "certificate", "none", "cap"}


def _also_listing(bad):
    """`available_swaps` that also lists `bad`, which it never would."""
    def listed(tree, kinds):
        return available_swaps(tree, kinds) + [bad]
    return listed


@pytest.mark.parametrize("bad, error", [
    (SwapMove(1, 5, SwapKind.SAME_PROBABILITY), KindViolation),  # 1/3, 1/6
    (SwapMove(1, 5, SwapKind.SAME_ROW), KindViolation),  # rows 1 and 3
    (SwapMove(1, 5, SwapKind.SAME_PARENT), KindViolation),
    (SwapMove(2, 5, SwapKind.SAME_PROBABILITY), AncestryViolation),
])
def test_search_checks_each_move_it_records(monkeypatch, ex4, bad, error):
    # the search folds listed moves unchecked, so a bad move that leads to
    # an unrecorded tree must be caught where that tree is built
    _, h1 = load_tree("ex4.src", "ex4_h1.code")
    _, h2 = load_tree("ex4.src", "ex4_h2.code")  # not a neighbour of h1
    for kinds in ({SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY},
                  set(SwapKind)):
        members = swap_closure(ex4, h1, kinds).members
        assert h2.label in members
        assert shape_label(_fold(h1, bad.u, bad.v)) not in members
        monkeypatch.setattr("prefixcodes.swaps.available_swaps",
                            _also_listing(bad))
        with pytest.raises(error):
            swap_closure(ex4, h1, kinds)
        with pytest.raises(error):
            swap_equivalent(ex4, h1, h2, kinds)
        monkeypatch.undo()


def _record_expansions(monkeypatch):
    """Patch the search's probe, `node_swap` and `available_swaps`; returns
    the probed (u, v) pairs per tree id, the trees with the moves they came
    by, and the trees listed."""
    probed, recorded, listed = {}, [], []
    fold, swap, listing = swaps._fold, swaps.node_swap, swaps.available_swaps

    def probe(tree, u, v, intern=None):
        # the probe interns with the table's get, node_swap's fold with
        # its setdefault
        if intern is not None and intern.__name__ == "get":
            probed.setdefault(id(tree), []).append((u, v))
        return fold(tree, u, v, intern)

    def recording_swap(tree, move, intern=None):
        new = swap(tree, move, intern)
        recorded.append((tree, move, new))
        return new

    def recording_listing(tree, kinds):
        listed.append(tree)
        return listing(tree, kinds)

    monkeypatch.setattr(swaps, "_fold", probe)
    monkeypatch.setattr(swaps, "node_swap", recording_swap)
    monkeypatch.setattr(swaps, "available_swaps", recording_listing)
    return probed, recorded, listed


@pytest.mark.parametrize("kinds", KIND_SETS,
                         ids=lambda k: ",".join(sorted(x.value for x in k)))
def test_each_expanded_state_probes_its_own_listing(monkeypatch, ex4, ex5,
                                                    kinds):
    # a state may reuse its predecessor's listing, but only when that is
    # the listing `available_swaps` gives for the state itself; a closed
    # closure expands every state it records, and a truncated one stops
    # at the first neighbour its cap skips
    trees = (list(huffman_enumerate(ex4)) + list(huffman_enumerate(ex5))
             + random_trees())
    probed, recorded, listed = _record_expansions(monkeypatch)
    reused = stopped = 0
    for tree in trees:
        for cap in (3, 10, 10 ** 6):
            probed.clear()
            recorded.clear()
            listed.clear()
            closure = swap_closure(tree.source, tree, kinds, cap)
            assert len(recorded) == len(closure.members) - 1
            states = [tree] + [new for _, _, new in recorded]
            listings = {id(state): [(m.u, m.v) for m in
                                    available_swaps(state, kinds)]
                        for state in states}
            for before, move, _ in recorded:
                assert (move.u, move.v) in listings[id(before)]
            reused += len(states) - len(listed)
            if not closure.truncated:
                for state in states:  # every listed move probed, in order
                    assert probed.get(id(state), []) == listings[id(state)]
                continue
            # states are expanded in record order, each probing its own
            # listing in order, until the first probe to a shape outside
            # the full closure
            assert len(closure.members) == cap
            last = list(probed)[-1]
            k = [id(state) for state in states].index(last)
            for state in states[:k]:
                assert probed.get(id(state), []) == listings[id(state)]
            probes = probed[last]
            assert probes == listings[last][:len(probes)]
            assert not any(id(state) in probed for state in states[k + 1:])
            landed = [shape_label(_fold(state, u, v))
                      for state in states[:k + 1]
                      for u, v in probed.get(id(state), [])]
            assert set(landed[:-1]) <= set(closure.members)
            assert landed[-1] not in closure.members
            stopped += len(probes) < len(listings[last])
    assert reused > 0
    assert stopped > 0  # some closure stops inside a listing


def test_capped_closure_stops_at_the_cap(monkeypatch):
    # the 1,100-leaf caterpillar's start state lists 1,099 parent swaps;
    # with cap 3 the third probe is the first the cap skips
    source, words = caterpillar(1100)
    tree = tree_from_code(source, words)
    assert len(available_swaps(tree, {SwapKind.SAME_PARENT})) == 1099
    probed, _, _ = _record_expansions(monkeypatch)
    closure = swap_closure(source, tree, {SwapKind.SAME_PARENT}, 3)
    assert len(closure.members) == 3 and closure.truncated
    assert sum(map(len, probed.values())) == 3


def test_row_search_lists_moves_once(monkeypatch, ex5):
    # a row swap keeps every node's depth, the one field a row listing reads
    _, _, listed = _record_expansions(monkeypatch)
    for tree in huffman_enumerate(ex5):
        listed.clear()
        closure = swap_closure(ex5, tree, {SwapKind.SAME_ROW})
        assert len(closure.members) > 1 and listed == [tree]


def test_node_swap_label_is_the_label_of_its_shape(ex4, ex5):
    for source in (ex4, ex5):
        for tree in huffman_enumerate(source):
            for move in available_swaps(tree, set(SwapKind)):
                assert (node_swap(tree, move).label
                        == shape_label(swapped_shape(tree, move)))


def test_closure_carries_its_shapes_in_record_order(ex4):
    start = huffman_enumerate(ex4)[0]
    kinds = {SwapKind.SAME_ROW, SwapKind.SAME_PROBABILITY}
    shapes, truncated = closure_shapes(start, kinds)
    closure = swap_closure(ex4, start, kinds)
    assert shapes[0] is start.shape  # recorded in search order
    labels = tuple(sorted(map(shape_label, shapes)))
    assert closure.members == labels and len(set(labels)) == len(labels)
    assert closure.truncated is truncated is False
    by_labels = ClosureResult(labels, closure.truncated)
    assert by_labels == closure and hash(by_labels) == hash(closure)
    assert by_labels != ClosureResult(labels[1:], closure.truncated)
    assert by_labels != ClosureResult(labels, not closure.truncated)
    with pytest.raises(AttributeError):
        closure.truncated = not closure.truncated


def test_swapped_shapes_are_equal_iff_their_labels_are(ex4, ex5):
    # the closure reports labels of the shapes the search records
    for source in (ex4, ex5):
        shapes = [swapped_shape(tree, move)
                  for tree in huffman_enumerate(source)
                  for move in available_swaps(tree, set(SwapKind))]
        labels = [shape_label(shape) for shape in shapes]
        assert len(set(shapes)) < len(shapes)  # some moves meet again
        pairs = set(zip(shapes, labels))
        assert len(pairs) == len(set(shapes)) == len(set(labels))


def test_interned_shapes_are_one_object_iff_their_labels_are_equal(ex4, ex5):
    # the search's dedupe, which compares shapes by identity alone
    for source in (ex4, ex5):
        table = {}
        trees = [CodeTree(source, interned(tree, table))
                 for tree in huffman_enumerate(source)]
        shapes, labels = [], []
        for tree in trees:
            for move in available_swaps(tree, set(SwapKind)):
                new = node_swap(tree, move, table.setdefault)
                assert swapped_shape(tree, move, table.get) is new.shape
                assert interned(new, table) is new.shape
                shapes.append(new.shape)
                labels.append(new.label)
        assert len(set(map(id, shapes))) < len(shapes)
        pairs = {(id(shape), label) for shape, label in zip(shapes, labels)}
        assert len(pairs) == len(set(map(id, shapes))) == len(set(labels))


def test_interned_shapes_hold_the_interned_subtrees(ex4):
    # a shape entered from a tree built apart must point at the subtrees
    # the table holds, or trees built from it would miss the table
    tree = huffman_build(ex4)
    table = {}
    assert interned(tree, table) is tree.shape  # an empty table keeps them
    top = available_swaps(tree, {SwapKind.SAME_PARENT})[0]
    assert (top.u, top.v) == (1, 2)  # the root's two children
    flipped = tree_from_code(ex4, code_from_tree(node_swap(tree, top)))
    left, right = interned(flipped, table)
    assert left is tree.shape[1] and right is tree.shape[0]
    assert interned(flipped, table) is interned(node_swap(tree, top), table)


def _certificate(parent, label):
    moves = []
    label, move = parent[label]
    while move is not None:
        moves.append(move)
        label, move = parent[label]
    return moves[::-1]
