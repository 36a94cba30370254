"""The swap search that keys on swapped shapes against a reference search
that builds a tree for every neighbour and keys on its label, as the
search once did."""

import random
import re
from collections import Counter, deque
from itertools import combinations
from math import factorial

import pytest

from prefixcodes import (
    ClosureResult,
    Source,
    SwapKind,
    available_swaps,
    code_from_tree,
    enumerate_complete_trees,
    huffman_build,
    huffman_enumerate,
    node_swap,
    replay,
    swap_closure,
    swap_equivalent,
    tree_from_code,
)
from prefixcodes import swaps
from prefixcodes.core import CodeTree, Oriented, interned, shape_label
from prefixcodes.errors import AncestryViolation, KindViolation, Truncated
from prefixcodes.swaps import SwapMove, _fold, closure_shapes, swapped_shape
from conftest import (caterpillar, catalan, load_tree, random_trees,
                      tree_for_label, tree_lengths)

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


def ordered_closure(tree, kinds, cap):
    """The closure of the ordered engine, which `verify` runs."""
    shapes, truncated = closure_shapes(tree, kinds, cap)
    return ClosureResult(tuple(sorted(map(shape_label, shapes))), truncated)


def ordered_equivalent(t1, t2, kinds, cap):
    """`swap_equivalent`'s answer from the ordered search alone."""
    _, path, truncated = swaps._search(t1, kinds, cap, t2)
    if path is None and truncated:
        raise Truncated("closure cap %d hit before deciding equivalence" % cap)
    return path


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
    # an unrecorded tree must be caught where that tree is built.  Under
    # {parent, prob} the flip quotient searches first, and the bad move
    # leads to an unrecorded form there: the closure, and the question
    # for c, which the quotient decides alone, raise from its search
    _, h1 = load_tree("ex4.src", "ex4_h1.code")
    _, h2 = load_tree("ex4.src", "ex4_h2.code")  # not a neighbour of h1
    _, c = load_tree("ex4.src", "ex4_c.code")  # reached only with row moves
    for kinds in ({SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY},
                  set(SwapKind)):
        members = swap_closure(ex4, h1, kinds).members
        assert h2.label in members
        assert (c.label in members) is (SwapKind.SAME_ROW in kinds)
        assert shape_label(_fold(h1, bad.u, bad.v)) not in members
        monkeypatch.setattr("prefixcodes.swaps.available_swaps",
                            _also_listing(bad))
        searches = _spy_searches(monkeypatch)
        with pytest.raises(error):
            swap_equivalent(ex4, h1, h2, kinds)
        for call in (lambda: swap_closure(ex4, h1, kinds),
                     lambda: swap_equivalent(ex4, h1, c, kinds)):
            searches.clear()
            with pytest.raises(error):
                call()
            # one search, which raised
            assert [(canonical, end) for _, canonical, end in searches] == [
                (SwapKind.SAME_ROW not in kinds, None)]
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
    # at the first neighbour its cap skips.  This is the ordered engine:
    # `swap_closure` searches canonical forms for parent kinds
    trees = (list(huffman_enumerate(ex4)) + list(huffman_enumerate(ex5))
             + random_trees())
    probed, recorded, listed = _record_expansions(monkeypatch)
    reused = stopped = 0
    for tree in trees:
        for cap in (3, 10, 10 ** 6):
            probed.clear()
            recorded.clear()
            listed.clear()
            closure = ordered_closure(tree, kinds, cap)
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
    # a row swap keeps every node's depth, the one field a row listing
    # reads.  This is the ordered engine: `swap_closure` lists {row}
    # classes of complete trees without a search
    _, _, listed = _record_expansions(monkeypatch)
    for tree in huffman_enumerate(ex5):
        listed.clear()
        closure = ordered_closure(tree, {SwapKind.SAME_ROW},
                                  swaps.DEFAULT_CLOSURE_CAP)
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


# -- the flip quotient ------------------------------------------------------

PARENT, PROB = SwapKind.SAME_PARENT, SwapKind.SAME_PROBABILITY
QUOTIENT_KINDS = [{PARENT}, {PARENT, PROB}]
TIED = {2: (1, 1), 3: (1, 1, 1), 4: (1, 1, 2, 2), 5: (1, 1, 2, 2, 3)}


def _spy_searches(monkeypatch):
    """Log each search `swaps._search` starts as [cap, oriented, end]:
    end is "closed", "reached" or "truncated", or None if it raised."""
    log = []
    search = swaps._search

    def spy(tree, kinds, cap, target=None, oriented=False):
        entry = [cap, oriented, None]
        log.append(entry)
        found = search(tree, kinds, cap, target, oriented)
        _, path, truncated = found
        entry[2] = ("truncated" if truncated else
                    "closed" if path is None else "reached")
        return found

    monkeypatch.setattr(swaps, "_search", spy)
    return log


def _quotient_ends(searches):
    return Counter(end for _, canonical, end in searches if canonical)


def _walk(rng, tree, kinds, steps):
    for _ in range(steps):
        tree = node_swap(tree, rng.choice(available_swaps(tree, kinds)))
    return tree


def _tied_source(n):
    return Source.from_weights(("s%d" % i, w) for i, w in enumerate(TIED[n]))


def _quotient_cases(trees, rng):
    """Each tree with one target: every other tree gets a {parent, prob}
    walk from it, which its classes may hold, and the rest the tree
    before it in the list."""
    return [(tree, [_walk(rng, tree, {PARENT, PROB}, 2) if i % 2
                    else trees[i - 1]])
            for i, tree in enumerate(trees)]


def _check_quotient(tree, targets, kinds, cap, closures):
    """Assert that `swap_closure` and `swap_equivalent` give the ordered
    engine's answers; returns the kinds of answer seen.  `closures` keeps
    every closed ordered closure by member label: a class that fits the
    cap closes the same from any member, and holds every tree the ordered
    search could reach, so it answers for the other members too."""
    source, seen = tree.source, set()
    closure = swap_closure(source, tree, kinds, cap)
    known = closures.get(tree.label)
    if known is None:
        known = ordered_closure(tree, kinds, cap)
        if not known.truncated:
            closures.update(dict.fromkeys(known.members, known))
    assert closure == known
    seen.add(_kind_of(closure))
    for target in targets:
        got = _outcome(lambda: swap_equivalent(source, tree, target, kinds,
                                               cap))
        if not known.truncated and target.label not in known.members:
            assert got is None
        else:
            assert got == _outcome(
                lambda: ordered_equivalent(tree, target, kinds, cap))
        seen.add(_kind_of(got))
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quotient_agrees_on_every_ordered_tree(monkeypatch, n):
    # every complete ordered tree over a tied source, as a closure start
    # and an equivalence query, at caps 3, 10 and 10^6
    trees = list(enumerate_complete_trees(_tied_source(n)).members)
    assert len(trees) == factorial(n) * catalan(n - 1)
    searches = _spy_searches(monkeypatch)
    cases, seen = _quotient_cases(trees, random.Random(n)), set()
    for kinds in QUOTIENT_KINDS:
        for cap in CAPS:
            closures = {}
            for tree, targets in cases:
                seen |= _check_quotient(tree, targets, kinds, cap, closures)
    assert seen >= {"closed", "certificate"}
    ends = _quotient_ends(searches)
    assert ends["closed"] and ends["reached"]
    if n > 2:  # two trees, one class
        assert "none" in seen
    if n in (3, 4):  # the quotient runs at cap 10, and its classes exceed it
        assert ends["truncated"] and seen >= {"truncated", "cap"}


def _six_symbol_sample():
    """Twenty-four trees over seeded 6-symbol sources with ties: Huffman
    trees, walks from them under every kind, and half of those made
    incomplete by lengthening one codeword."""
    rng = random.Random(20261020)
    trees = []
    for i in range(24):
        source = Source.from_weights(("s%d" % j, rng.randint(1, 4))
                                     for j in range(6))
        tree = _walk(rng, huffman_build(source), set(SwapKind), 3)
        if i % 2:
            words = dict(code_from_tree(tree).words)
            words[rng.choice(source.symbols)] += rng.choice("01")
            tree = tree_from_code(source, words)
        trees.append(tree)
    return trees


def test_quotient_agrees_on_a_six_symbol_sample(monkeypatch):
    trees = _six_symbol_sample()
    assert sum(not tree.is_complete for tree in trees) == 12
    searches = _spy_searches(monkeypatch)
    rng, seen = random.Random(6), set()
    for kinds in QUOTIENT_KINDS:
        for cap in CAPS:
            for tree in trees:
                targets = [_walk(rng, tree, {PARENT, PROB}, 2),
                           _walk(rng, tree, set(SwapKind), 2)]
                seen |= _check_quotient(tree, targets, kinds, cap, {})
    assert seen >= {"closed", "truncated", "certificate", "none", "cap"}
    ends = _quotient_ends(searches)
    assert ends["closed"] and ends["reached"]


@pytest.mark.parametrize("weights, size", [
    ((5, 4, 3, 3, 2, 2, 1, 1, 1), 13_824),
    ((6, 5, 4, 3, 3, 2, 2, 1, 1, 1), 27_648),
])
def test_parent_prob_closure_of_huffman_is_every_huffman_tree(weights, size):
    # the paper: Huffman codes are exactly one {parent, prob} swap class
    source = Source.from_weights(("s%d" % i, w) for i, w in enumerate(weights))
    closure = swap_closure(source, huffman_build(source), {PARENT, PROB})
    assert not closure.truncated and len(closure.members) == size
    assert closure.members == tuple(sorted(
        tree.label for tree in huffman_enumerate(source)))


def test_quotient_cap_is_decided_before_any_search(monkeypatch, ex4):
    # ex4's Huffman class is 3 forms of 2^3 = 8 trees: cap 24 leaves room
    # for all three, cap 23 for two, so the ordered search runs after the
    # quotient's, and cap 7 for none; a cap below 1 is refused at once
    _, h1 = load_tree("ex4.src", "ex4_h1.code")
    searches = _spy_searches(monkeypatch)
    for cap, expected in ((24, [(3, True)]), (23, [(2, True), (23, False)]),
                          (7, [(7, False)])):
        searches.clear()
        closure = swap_closure(ex4, h1, {PARENT, PROB}, cap)
        assert [(c, canonical) for c, canonical, _ in searches] == expected
        assert closure == ordered_closure(h1, {PARENT, PROB}, cap)
        assert closure.truncated == (cap < 24)
    for cap in (0, -3):
        searches.clear()
        with pytest.raises(ValueError, match="at least 1, got %d" % cap):
            swap_closure(ex4, h1, {PARENT, PROB}, cap)
        assert searches == [[cap, False, None]]  # raised on entry


def test_deep_incomplete_chain_goes_through_the_quotient(monkeypatch):
    # 1,100 one-child nodes above two leaves: two nodes flip, so the
    # quotient runs, and nothing may recurse over the shape.  (Each node
    # of the chain has one weight, so a prob listing would test every
    # pair of them for ancestry.)
    source = Source.from_weights([("a", 1), ("b", 2), ("c", 1)])
    chain = "0" * 1100

    def tree(top, low, high):
        return tree_from_code(source, {top: "1", low: chain + "0",
                                       high: chain + "1"})

    start = tree("c", "a", "b")
    searches = _spy_searches(monkeypatch)
    closure = swap_closure(source, start, {PARENT}, 10)
    assert closure == ordered_closure(start, {PARENT}, 10)
    assert len(closure.members) == 4 and not closure.truncated
    assert tree("c", "b", "a").label in closure.members
    flip = SwapMove(1, 2, PARENT)  # the root's children
    assert swap_equivalent(source, start, node_swap(start, flip),
                           {PARENT}) == [flip]
    assert swap_equivalent(source, start, tree("a", "c", "b"),
                           {PARENT}) is None
    assert _quotient_ends(searches) == {"closed": 2, "reached": 1}


def _spy_oriented(monkeypatch):
    """Keep each `Oriented` table a search makes."""
    made = []

    def spy(table, source):
        made.append(Oriented(table, source))
        return made[-1]

    monkeypatch.setattr(swaps, "Oriented", spy)
    return made


def test_oriented_least_keys_exactly_the_shapes_its_table_holds(monkeypatch):
    # a freed tuple's id is reused, so `least` may key only the shapes the
    # table keeps alive; it keys each of them, with its least index
    # (cap 64 leaves the quotient room for two forms of 2^5 trees, so it
    # truncates)
    made, trees = _spy_oriented(monkeypatch), _six_symbol_sample()[::3]
    rng, caps = random.Random(27), (64, 10 ** 6)
    for kinds in QUOTIENT_KINDS:
        for cap in caps:
            for tree in trees:
                swap_closure(tree.source, tree, kinds, cap)
                _outcome(lambda: swap_equivalent(
                    tree.source, tree, _walk(rng, tree, {PARENT, PROB}, 2),
                    kinds, cap))
    assert len(made) == len(QUOTIENT_KINDS) * len(caps) * len(trees) * 2
    for hooks in made:
        index = hooks._index
        assert set(hooks.least) == {id(s) for s in hooks.table.values()}
        assert all(hooks.least[id(shape)] == min(
            index[symbol] for symbol in re.findall(r"[^(),_]+",
                                                    shape_label(shape)))
            for shape in hooks.table.values())


def test_oriented_get_of_an_unrecorded_neighbour_changes_nothing(ex4):
    _, h1 = load_tree("ex4.src", "ex4_h1.code")
    hooks = Oriented({}, ex4)
    form = CodeTree(ex4, interned(h1, hooks))
    table = {key: id(shape) for key, shape in hooks.table.items()}
    recorded, least = set(table.values()), dict(hooks.least)
    unrecorded = 0
    for move in available_swaps(form, set(SwapKind)):
        shape = _fold(form, move.u, move.v, hooks.get)
        unrecorded += id(shape) not in recorded
        assert {key: id(s) for key, s in hooks.table.items()} == table
        assert hooks.least == least
    assert unrecorded


def test_a_capped_quotient_leaves_the_question_to_the_ordered_search(
        monkeypatch):
    # cap 8 leaves room for one form of 2^3 trees; the ordered search
    # records partial orbits of more forms, and reaches this target by
    # two prob moves, so the quotient's skip decides nothing
    source = _tied_source(4)
    t1 = tree_for_label(source, "(((s3,s0),s2),s1)")
    t2 = tree_for_label(source, "(s1,((s2,s0),s3))")
    searches = _spy_searches(monkeypatch)
    moves = swap_equivalent(source, t1, t2, {PARENT, PROB}, cap=8)
    assert _quotient_ends(searches) == {"truncated": 1}
    assert len(moves) == 2 and replay(t1, moves).label == t2.label


def test_deep_incomplete_chain_lists_prob_moves_without_walking_it(
        monkeypatch):
    # every pair of the chain's 1,100 one-child nodes has one weight and
    # is an ancestor and a descendant, so none is a prob move; listing
    # numbers the tree once and tests each pair in O(1), where a walk up
    # from one node to the other's row would make it cubic in the chain
    source = Source.from_weights([("a", 1), ("b", 2), ("c", 1)])
    chain = "0" * 1100

    def tree(top, low, high):
        return tree_from_code(source, {top: "1", low: chain + "0",
                                       high: chain + "1"})

    start = tree("c", "a", "b")
    numbered, spans = [], swaps._spans
    monkeypatch.setattr(swaps, "_spans",
                        lambda tree: numbered.append(tree) or spans(tree))
    assert available_swaps(start, {PARENT, PROB}) == [
        SwapMove(1, 2, PARENT),  # the root's children
        SwapMove(2, 1102, PROB),  # c and a, both of weight 1
        SwapMove(1102, 1103, PARENT)]  # a and b, below the chain
    assert numbered == [start]
    monkeypatch.undo()
    searches = _spy_searches(monkeypatch)
    closure = swap_closure(source, start, {PARENT, PROB}, 10)
    assert closure == ordered_closure(start, {PARENT, PROB}, 10)
    assert len(closure.members) == 8 and not closure.truncated
    assert tree("a", "c", "b").label in closure.members
    target = tree("a", "b", "c")  # c and a exchanged, then a flip below
    moves = swap_equivalent(source, start, target, {PARENT, PROB})
    assert len(moves) == 2 and replay(start, moves).label == target.label
    assert swap_equivalent(source, start, tree("b", "a", "c"),
                           {PARENT, PROB}) is None  # b alone weighs 2
    assert _quotient_ends(searches) == {"closed": 2, "reached": 1}


# -- {row} classes by construction ------------------------------------------

ROW = SwapKind.SAME_ROW
ROW_KINDS = [{ROW}, {PARENT, ROW}]
ROW_CAPS = (1, 3, 10, 10 ** 6)


def _spy_row_labels(monkeypatch):
    """Log the start tree of each class `swaps._row_labels` lists."""
    log = []
    listing = swaps._row_labels

    def spy(tree):
        log.append(tree)
        return listing(tree)

    monkeypatch.setattr(swaps, "_row_labels", spy)
    return log


def _row_targets(rng, tree):
    """The tree itself, a row walk from it, the tree with two leaves on
    different rows exchanged (another depth vector) and the tree with a
    codeword lengthened (incomplete)."""
    targets = [tree]
    if available_swaps(tree, {ROW}):
        targets.append(_walk(rng, tree, {ROW}, 2))
    words = dict(code_from_tree(tree).words)
    pairs = [(a, b) for a, b in combinations(sorted(words), 2)
             if len(words[a]) != len(words[b])]
    if pairs:
        a, b = rng.choice(pairs)
        targets.append(tree_from_code(tree.source,
                                      {**words, a: words[b], b: words[a]}))
    words[rng.choice(sorted(words))] += rng.choice("01")
    return targets + [tree_from_code(tree.source, words)]


def _check_rows(tree, targets, kinds, cap, listed, searches):
    """Assert that `swap_closure` and `swap_equivalent` give the ordered
    engine's answers, and that the class was listed, and a target
    outside it answered, with no search, exactly where the tree is
    complete and the class fits the cap; returns the kinds of answer."""
    source, seen = tree.source, set()
    full = ordered_closure(tree, kinds, 10 ** 6)
    assert not full.truncated
    fits = tree.is_complete and len(full.members) <= cap
    listed.clear()
    searches.clear()
    closure = swap_closure(source, tree, kinds, cap)
    assert listed == ([tree] if fits else []) and bool(searches) is not fits
    assert closure == ordered_closure(tree, kinds, cap)
    seen.add(_kind_of(closure))
    for target in targets:
        listed.clear()
        searches.clear()
        got = _outcome(lambda: swap_equivalent(source, tree, target, kinds,
                                               cap))
        outside = fits and target.label not in full.members
        assert listed == [] and bool(searches) is not outside
        assert got == _outcome(
            lambda: ordered_equivalent(tree, target, kinds, cap))
        if tree.is_complete:  # the corollary the listing rests on
            assert (target.label in full.members) is (
                target.is_complete
                and tree_lengths(target) == tree_lengths(tree))
        seen.add(_kind_of(got))
    return seen


@pytest.mark.parametrize("index", range(0, 240, 30))
def test_row_listing_agrees_with_the_ordered_engine(monkeypatch, ex4, ex5,
                                                    index):
    # every tree of `random_trees()` (complete and incomplete, n = 3-6)
    # and every Huffman tree of ex4 and ex5, under {row} and {parent, row}
    # at caps 1, 3, 10 and 10^6
    trees = (random_trees() + list(huffman_enumerate(ex4))
             + list(huffman_enumerate(ex5)))
    assert len(trees) == 238
    rng, seen = random.Random(index), set()
    cases = [(tree, _row_targets(rng, tree))
             for tree in trees[index:index + 30]]
    listed = _spy_row_labels(monkeypatch)
    searches = _spy_searches(monkeypatch)
    for kinds in ROW_KINDS:
        for cap in ROW_CAPS:
            for tree, targets in cases:
                seen |= _check_rows(tree, targets, kinds, cap, listed,
                                    searches)
    assert seen >= {"closed", "truncated", "certificate", "same", "none"}
    if index < 70:
        assert "cap" in seen


def _weighted(weights):
    return Source.from_weights(("s%d" % i, w) for i, w in enumerate(weights))


@pytest.mark.parametrize("weights", [(5, 4, 3, 3, 2, 2, 1, 1),
                                     (8, 4, 3, 2, 2, 1, 1, 1),
                                     (9, 7, 5, 3, 3, 2, 1, 1)])
def test_row_class_count_is_the_ordered_closure_size(weights):
    # n = 8: the product over rows of m_d! / i_d! is the ordered closure's
    # size, the least cap the listing runs at, and the listing is that
    # closure
    tree = huffman_build(_weighted(weights))
    for kinds in ROW_KINDS:
        shapes, truncated = closure_shapes(tree, kinds)
        size = len(shapes)
        assert not truncated and size > 1000
        assert swaps._row_listed(tree, kinds, size)
        assert not swaps._row_listed(tree, kinds, size - 1)
        assert sorted(swaps._row_labels(tree)) == sorted(
            map(shape_label, shapes))


def test_row_listing_lists_large_classes(monkeypatch):
    # classes the ordered search takes seconds over: 4!/3! 6!/2! 4!/0!
    # trees at n = 9, and 4!/3! 6!/2! 4!/1! 2!/0! for tied10's Huffman
    # code
    source9 = _weighted((5, 4, 3, 3, 2, 2, 1, 1, 1))
    cases = [(huffman_build(source9), 34_560),
             (load_tree("swaps/tied10.src", "swaps/tied10_h.code")[1],
              69_120)]
    searches = _spy_searches(monkeypatch)
    rng = random.Random(9)
    for tree, size in cases:
        closure = swap_closure(tree.source, tree, {ROW})
        assert len(closure.members) == size and not closure.truncated
        assert len(set(closure.members)) == size
        assert tree.label in closure.members
        assert swaps._row_listed(tree, {ROW}, size)
        assert not swaps._row_listed(tree, {ROW}, size - 1)
        for label in rng.sample(closure.members, 100):
            member = tree_for_label(tree.source, label)
            assert member.is_complete
            assert tree_lengths(member) == tree_lengths(tree)
    assert searches == []


def test_row_cap_below_one_is_refused_before_any_work(monkeypatch, ex5):
    tree = huffman_build(ex5)
    other = _row_targets(random.Random(5), tree)[-1]  # incomplete
    listed = _spy_row_labels(monkeypatch)
    searches = _spy_searches(monkeypatch)
    for kinds in ROW_KINDS:
        for cap in (0, -3):
            searches.clear()
            with pytest.raises(ValueError, match="at least 1, got %d" % cap):
                swap_closure(ex5, tree, kinds, cap)
            with pytest.raises(ValueError, match="at least 1, got %d" % cap):
                swap_equivalent(ex5, tree, other, kinds, cap)
            assert searches == [[cap, False, None]] * 2  # raised on entry
    assert listed == []
