"""Node swaps on code trees and one breadth-first swap search.

A swap exchanges the subtrees rooted at two nodes, neither an ancestor
of the other.  `available_swaps` lists each such pair once, tagged with
the first of parent, row, prob that applies.  `swap_closure` and
`swap_equivalent` share one breadth-first search over interned tree
shapes (equal shapes are one object, so no nested tuple is compared,
which in C recurses once per level): a neighbour is recorded only while
fewer than `cap` shapes are (the target of an equivalence search always
is), and a search that skips a neighbour for the cap is truncated.  It
folds listed moves unchecked and checks one only in the `node_swap` that
builds a tree to record.  A recorded tree reuses the move list of the
tree it was reached from when the arena fields `available_swaps` reads
are equal, so a swap that keeps them (a row swap keeps every depth) costs
no listing.  The list rides in the queue beside the tree; a dict of
listings keyed on those fields would keep every distinct listing alive
for the whole search.  `closure_shapes` hands back the recorded shapes
and `swap_closure` renders one label per shape.  Moves are serialized as
(row, index-in-row) pairs.

For kinds with parent and without row, `swap_closure` and
`swap_equivalent` first search the flip quotient.  A parent swap flips
the two children of one node; a node with one child has no sibling pair,
so it never flips.  Every internal node has one or two children, so a
tree with n leaves has k = n - 1 nodes with two, and its 2^k flip
patterns give 2^k distinct trees (the highest node two patterns flip
differently has different leaf sets on its left), one orbit.  A prob
swap of nodes u, v in a tree T is a prob swap of their images in any
flip f(T), since f keeps weights and ancestry, and its result is a flip
of the result in T: prob moves commute with flips.  So the class of T
under {parent} or {parent, prob} is the union of the orbits of the forms
that prob moves reach from T's form, 2^k trees each, and the search over
forms probes prob moves alone.  It holds each orbit once, as its
canonical form, in a `core.Oriented` table, which orients every node it
is asked for, rebuilt ones included, so the probe that finds a recorded
form is one fold, as in the ordered search.

The quotient changes no answer.  It runs only when 2^k is at most the
cap, under the cap `cap >> k`; that is decided from n before any search.
If it closes with m forms, the class holds m * 2^k <= cap trees, so the
ordered search would close too and record them all: the closure is the
forms' orbits (`core.orbit`), sorted as the ordered labels are.  If
the class holds the target's form, it is reachable, and the ordered
search runs to find the certificate, so certificates stay shortest and
a `Truncated` from the cap stays as it was.  If the quotient closes
without the target's form, the ordered search would close without it
too: not equivalent.  If the quotient hits its cap, the ordered search
runs in its place and truncates, or not, exactly as it always did.

Kinds with row and without prob, {row} and {parent, row} (a parent swap
is a row swap), keep every leaf's depth and keep a tree complete.  From
a complete tree they reach every complete tree with its leaf depths:
top down, any arrangement of row d is a product of row swaps, none of
which touches a row above.  Such a tree is fixed by the order of each
row, whose internal slots take the next row's nodes in pairs, so the
class holds ∏_d m_d!/i_d! trees, row d holding m_d nodes, i_d internal.
Where that is at most the cap, the ordered search would close too: the
closure is listed (`_row_labels`), and a target that is incomplete or
has other leaf depths is not equivalent, with no search.  A class over
the cap, a certificate (kept shortest), an incomplete start, kinds with
prob and `closure_shapes`, with which `verify` checks the paper's
statements, this corollary among them, stay ordered.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import attrgetter, itemgetter
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from .core import (CodeTree, Oriented, Shape, ShapeTable, Source, interned,
                   orbit, shape_label)
from .errors import (AlphabetMismatch, AncestryViolation, KindViolation,
                     ParseError, Truncated)

DEFAULT_CLOSURE_CAP = 200_000


class SwapKind(enum.Enum):
    SAME_PARENT = "parent"
    SAME_ROW = "row"
    SAME_PROBABILITY = "prob"


class SwapMove(NamedTuple):
    """Exchange subtrees at node ids u and v; u < v by convention."""
    u: int
    v: int
    kind: SwapKind


# id(shape) -> (shape, id of the previous shape, move from it)
_Parents = Dict[int, Tuple[Shape, Optional[int], Optional[SwapMove]]]
_Intern = Callable[[Tuple[int, int], Shape], Shape]  # a table's get/setdefault


@dataclass(frozen=True)
class ClosureResult:
    """Sorted canonical labels of the trees a closure recorded, and whether
    the cap cut it short."""
    members: Tuple[str, ...]
    truncated: bool


def _check_kind(tree: CodeTree, move: SwapMove) -> None:
    u, v = move.u, move.v
    if move.kind is SwapKind.SAME_PARENT:
        if tree.parents[u] is None or tree.parents[u] != tree.parents[v]:
            raise KindViolation("nodes %d and %d are not siblings" % (u, v))
    elif move.kind is SwapKind.SAME_ROW:
        if tree.depths[u] != tree.depths[v]:
            raise KindViolation("nodes %d and %d are on different rows"
                                % (u, v))
    elif tree.weights[u] != tree.weights[v]:
        raise KindViolation("nodes %d and %d differ in probability" % (u, v))


def swapped_shape(tree: CodeTree, move: SwapMove,
                  intern: Optional[_Intern] = None) -> Shape:
    """The shape of the tree after one checked swap; builds no tree.

    Checks same node, range, ancestry (the deeper endpoint, lifted to the
    other's row, meets it iff one is an ancestor) and kind, then folds.
    """
    u, v = move.u, move.v
    if u == v:
        raise AncestryViolation("cannot swap a node with itself")
    if not (0 <= u < len(tree.shapes) and 0 <= v < len(tree.shapes)):
        raise AncestryViolation("node id out of range")
    low, high = max(u, v), min(u, v)  # ids are breadth-first
    while tree.depths[low] > tree.depths[high]:
        low = tree.parents[low]
    if low == high:
        raise AncestryViolation("one swap endpoint is a descendant of the other")
    _check_kind(tree, move)
    return _fold(tree, u, v, intern)


def _fold(tree: CodeTree, u: int, v: int,
          intern: Optional[_Intern] = None) -> Shape:
    """`swapped_shape` of nodes u and v, unchecked: they climb to their
    lowest common ancestor (the deeper first, then both in step) and it to
    the root, rebuilding each shape passed once.  Given `intern`, each
    rebuilt shape is replaced by `intern((id(left), id(right)), shape)`:
    the `get` of a table holding `tree`'s shapes puts in the equal shapes
    it holds, and its `setdefault` also enters the others."""
    parents, lefts, shapes = tree.parents, tree.lefts, tree.shapes
    a, new_a, b, new_b = u, shapes[v], v, shapes[u]
    while a:  # up to the root; b is 0, the root, once the walks have met
        if a < b:  # step the deeper node, or the right one on a row
            a, new_a, b, new_b = b, new_b, a, new_a
        parent = parents[a]
        if parent == parents[b]:  # the common ancestor; b < a: b is left
            left, right, b = new_b, new_a, 0
        elif lefts[parent] == a:
            left, right = new_a, shapes[parent][1]
        else:
            left, right = shapes[parent][0], new_a
        a, new_a = parent, (left, right) if intern is None else intern(
            (id(left), id(right)), (left, right))
    return new_a


def node_swap(tree: CodeTree, move: SwapMove,
              intern: Optional[_Intern] = None) -> CodeTree:
    """Apply one swap, returning a new tree; the input is unchanged."""
    return CodeTree(tree.source, swapped_shape(tree, move, intern))


def available_swaps(tree: CodeTree, kinds: Set[SwapKind]) -> List[SwapMove]:
    """All admissible moves of the requested kinds, in (u, v) order.

    Each node pair appears once, tagged with the first of parent, row,
    prob that applies.
    """
    parent_ok = SwapKind.SAME_PARENT in kinds
    row_ok = SwapKind.SAME_ROW in kinds
    prob_ok = SwapKind.SAME_PROBABILITY in kinds
    parents, depths, weights = tree.parents, tree.depths, tree.weights
    # ids are breadth-first, so rows are runs of ids and only u can be an
    # ancestor of v; without prob, v stops at the end of u's row.  A
    # descendant of equal weight hangs below one-child nodes only, so
    # only an incomplete tree needs the ancestry test, which is O(1)
    entry, size = (_spans(tree) if prob_ok and not tree.is_complete
                   else ([], []))
    moves = []
    for u in range(1, len(depths)):
        pu, du, wu = parents[u], depths[u], weights[u]
        for v in range(u + 1, len(depths) if prob_ok
                       else bisect_right(depths, du)):
            if parent_ok and parents[v] == pu:
                kind = SwapKind.SAME_PARENT
            elif row_ok and depths[v] == du:
                kind = SwapKind.SAME_ROW
            elif prob_ok and weights[v] == wu and not (
                    entry and entry[u] < entry[v] < entry[u] + size[u]):
                kind = SwapKind.SAME_PROBABILITY
            else:
                continue
            moves.append(SwapMove(u, v, kind))
    return moves


def _spans(tree: CodeTree) -> Tuple[List[int], List[int]]:
    """Pre-order entry numbers and subtree sizes: u is a strict ancestor
    of v iff entry[u] < entry[v] < entry[u] + size[u]."""
    parents, lefts = tree.parents, tree.lefts
    size, entry = [1] * len(parents), [0] * len(parents)
    for v in range(len(parents) - 1, 0, -1):  # children after parents
        size[parents[v]] += size[v]
    for v in range(1, len(parents)):  # a right child follows the left's
        left = lefts[parents[v]]
        entry[v] = entry[parents[v]] + 1 + (size[left] if left not in (None, v)
                                            else 0)
    return entry, size


def move_to_text(tree: CodeTree, move: SwapMove) -> str:
    """Serialize a move as 'kind row_u idx_u row_v idx_v'."""
    rows, du, dv = tree.rows(), tree.depths[move.u], tree.depths[move.v]
    return "%s %d %d %d %d" % (move.kind.value, du, rows[du].index(move.u),
                               dv, rows[dv].index(move.v))


def move_from_text(tree: CodeTree, text: str) -> SwapMove:
    """Resolve a serialized move against the given tree."""
    parts = text.split()
    if len(parts) != 5:
        raise ParseError("expected 'kind row_u idx_u row_v idx_v': %r" % text)
    try:
        kind = SwapKind(parts[0])
        ru, iu, rv, iv = (int(p) for p in parts[1:])
        if min(ru, iu, rv, iv) < 0:
            raise ValueError("negative row or index")
        rows = tree.rows()
        u, v = rows[ru][iu], rows[rv][iv]
    except (ValueError, IndexError) as exc:
        raise ParseError("bad move %r: %s" % (text, exc)) from None
    return SwapMove(min(u, v), max(u, v), kind)


def replay(tree: CodeTree, moves: Sequence[SwapMove]) -> CodeTree:
    """Apply a certificate move-by-move."""
    return reduce(node_swap, moves, tree)


def _search(tree: CodeTree, kinds: Set[SwapKind], cap: int,
            target: Optional[CodeTree] = None, oriented: bool = False
            ) -> Tuple[_Parents, Optional[List[SwapMove]], bool]:
    """Breadth-first search from `tree`, stopping once `target` is seen.

    A listed move is probed with the bare `_fold`, and checked only by
    the `node_swap` that builds a tree to record.  A recorded tree is
    queued with its predecessor's move list when the fields that listing
    reads (`depths`; `parents` for parent or prob moves; `weights` for
    prob moves) are equal, and is listed afresh otherwise.  Returns the
    recorded shapes with their back-pointers, the moves from `tree` to
    `target` (None if not reached), and whether the cap skipped a
    neighbour.  A closure returns at the first neighbour the cap skips.

    With `oriented`, the states are the canonical forms of the trees,
    starting from `tree`'s, and any search returns at the first skip.
    """
    if cap < 1:  # the start is always recorded
        raise ValueError("closure cap must be at least 1, got %d" % cap)
    table: ShapeTable = {}
    hooks = Oriented(table, tree.source) if oriented else table
    probe, enter = hooks.get, hooks.setdefault
    shape = interned(tree, hooks)  # into an empty table: tree's own shapes
    if shape is not tree.shape:  # but for the nodes a form flips
        tree = CodeTree(tree.source, shape)
    goal = None if target is None else interned(target, hooks)
    parent: _Parents = {id(tree.shape): (tree.shape, None, None)}
    if goal is tree.shape:
        return parent, [], False
    fields = ["depths"]  # the arena fields `available_swaps` reads
    if SwapKind.SAME_PARENT in kinds or SwapKind.SAME_PROBABILITY in kinds:
        fields.append("parents")
    if SwapKind.SAME_PROBABILITY in kinds:
        fields.append("weights")
    arena = attrgetter(*fields)
    queue = deque([(tree, None)])
    truncated = False
    while queue:
        current, moves = queue.popleft()
        if moves is None:
            moves = available_swaps(current, kinds)
        here, fields_here = id(current.shape), arena(current)
        for move in moves:
            shape = _fold(current, move.u, move.v, probe)  # unchecked
            if id(shape) in parent:
                continue
            if shape is not goal and len(parent) >= cap:
                if goal is None or oriented:  # nothing more to record
                    return parent, None, True
                truncated = True
                continue
            new = node_swap(current, move, enter)
            parent[id(new.shape)] = (new.shape, here, move)
            queue.append((new, moves if arena(new) == fields_here else None))
            if shape is goal:
                path: List[SwapMove] = []
                while move is not None:
                    path.append(move)
                    _, here, move = parent[here]
                return parent, path[::-1], truncated
    return parent, None, truncated


def _form_cap(tree: CodeTree, kinds: Set[SwapKind], cap: int) -> int:
    """The cap of the flip-quotient search for `kinds` from `tree`, or 0
    where the ordered search runs instead: kinds without parent or with
    row, or a cap below 2^(n - 1), the orbit of each form."""
    if (SwapKind.SAME_PARENT not in kinds or SwapKind.SAME_ROW in kinds
            or cap < 1):
        return 0
    return cap >> (len(tree.source) - 1)


def _row_listed(tree: CodeTree, kinds: Set[SwapKind], cap: int) -> bool:
    """Whether `_row_labels` lists the class of `tree` under `kinds`: row
    without prob, a complete tree and ∏_d m_d!/i_d! <= `cap` trees."""
    if (SwapKind.SAME_ROW not in kinds or SwapKind.SAME_PROBABILITY in kinds
            or not tree.is_complete):
        return False
    size, symbols = 1, tree.symbols
    for row in tree.rows():
        for factor in range(sum(symbols[i] is None for i in row) + 1,
                            len(row) + 1):
            size *= factor
            if size > cap:
                return False
    return True


def _row_labels(tree: CodeTree) -> List[str]:
    """The labels of the complete trees with `tree`'s leaf depths, unsorted:
    bottom up, each arrangement of a row (an `itemgetter` over its slots'
    labels, then its symbols) for each arrangement of the row below."""
    symbols, below = tree.symbols, [()]
    for row in tree.rows()[:0:-1]:
        leaves = [symbols[i] for i in row if symbols[i] is not None]
        slots, width = len(row) - len(leaves), len(row)
        gets = [itemgetter(*[places.index(i) if i in places else next(rest)
                             for i in range(width)])
                for places in combinations(range(width), slots)
                for rest in map(iter, permutations(range(slots, width)))]
        pairs = "\n".join(["(%s,%s)"] * slots)  # no symbol holds a newline
        level: List[Tuple[str, ...]] = []
        for nodes in below:  # the deepest row, first, has no slots
            pool = (pairs % nodes).split("\n") + leaves if slots else leaves
            level.extend([get(pool) for get in gets])
        below = level
    return ["(%s,%s)" % nodes for nodes in below]


def _join_labels(pair: Tuple[Optional[str], Optional[str]]) -> str:
    """A node's label from its children's, for `orbit`."""
    left, right = pair
    return "(%s,%s)" % ("_" if left is None else left,
                        "_" if right is None else right)


def closure_shapes(tree: CodeTree, kinds: Set[SwapKind],
                   cap: int = DEFAULT_CLOSURE_CAP
                   ) -> Tuple[Tuple[Shape, ...], bool]:
    """The interned shapes the closure of `tree` records, in record order,
    and whether the cap cut it short; renders no label."""
    parent, _, truncated = _search(tree, kinds, cap)
    return tuple(shape for shape, _, _ in parent.values()), truncated


def swap_closure(source: Source, tree: CodeTree, kinds: Set[SwapKind],
                 cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Breadth-first closure of a tree under the requested swap kinds."""
    if tree.source != source:
        raise AlphabetMismatch("tree is not over the given source")
    if _row_listed(tree, kinds, cap):
        return ClosureResult(tuple(sorted(_row_labels(tree))), False)
    forms = _form_cap(tree, kinds, cap)
    if forms:
        parent, _, truncated = _search(tree, kinds - {SwapKind.SAME_PARENT},
                                       forms, oriented=True)
        if not truncated:  # else the ordered search decides, as it did
            return ClosureResult(tuple(sorted(
                label for shape, _, _ in parent.values()
                for label in orbit(shape, _join_labels))), False)
    shapes, truncated = closure_shapes(tree, kinds, cap)
    return ClosureResult(tuple(sorted(map(shape_label, shapes))), truncated)


def swap_equivalent(source: Source, t1: CodeTree, t2: CodeTree,
                    kinds: Set[SwapKind], cap: int = DEFAULT_CLOSURE_CAP
                    ) -> Optional[List[SwapMove]]:
    """A certificate of moves turning t1 into t2, or None if unreachable.

    Raises Truncated when the cap is hit before the question is decided.
    """
    if t1.source != source or t2.source != source:
        raise AlphabetMismatch("trees are not over the given source")
    if _row_listed(t1, kinds, cap) and not (t2.is_complete and all(
            t1.depth_of(s) == t2.depth_of(s) for s in source.symbols)):
        return None  # every member is complete, with t1's leaf depths
    forms = _form_cap(t1, kinds, cap)
    if forms:  # a reachable target's certificate is the ordered search's
        _, path, truncated = _search(t1, kinds - {SwapKind.SAME_PARENT},
                                     forms, t2, oriented=True)
        if path is None and not truncated:
            return None
    _, path, truncated = _search(t1, kinds, cap, t2)
    if path is not None:
        return path
    if truncated:
        raise Truncated("closure cap %d hit before deciding equivalence" % cap)
    return None
