"""Node swaps on code trees and one breadth-first swap search.

A swap exchanges the subtrees rooted at two nodes, neither an ancestor
of the other.  `available_swaps` lists each such pair once, tagged with
the first of parent, row, prob that applies.  `swap_closure` and
`swap_equivalent` share one breadth-first search over interned tree
shapes (equal shapes are one object, so no nested tuple is compared,
which in C recurses once per level): a neighbour is recorded only while
fewer than `cap` shapes are (the target of an equivalence search always
is), and a search that skips a neighbour for the cap is truncated.
Only `swap_closure` renders labels, one per recorded shape, and it also
returns the shapes.  Certificate moves are serialized as (row,
index-in-row) pairs, stable because node ids are breadth-first.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .core import CodeTree, Shape, ShapeTable, Source, interned, shape_label
from .errors import (AlphabetMismatch, AncestryViolation, KindViolation,
                     ParseError, Truncated)

DEFAULT_CLOSURE_CAP = 200_000


class SwapKind(enum.Enum):
    SAME_PARENT = "parent"
    SAME_ROW = "row"
    SAME_PROBABILITY = "prob"


@dataclass(frozen=True)
class SwapMove:
    """Exchange subtrees at node ids u and v; u < v by convention."""
    u: int
    v: int
    kind: SwapKind


# id(shape) -> (shape, id of the previous shape, move from it)
_Parents = Dict[int, Tuple[Shape, Optional[int], Optional[SwapMove]]]
_Intern = Callable[[Tuple[int, int], Shape], Shape]  # a table's get/setdefault


@dataclass(frozen=True)
class ClosureResult:
    """Sorted canonical labels of the trees a closure recorded, whether the
    cap cut it short, and, from `swap_closure`, the recorded interned
    shapes in record order (None for a result built from labels alone;
    equality ignores them)."""
    members: Tuple[str, ...]
    truncated: bool
    shapes: Optional[Tuple[Shape, ...]] = field(default=None, compare=False,
                                                repr=False)


def _is_ancestor(tree: CodeTree, u: int, v: int) -> bool:
    """True iff u is a (strict or equal) ancestor of v."""
    while v is not None:
        if v == u:
            return True
        v = tree.nodes[v].parent
    return False


def _check_kind(tree: CodeTree, move: SwapMove) -> None:
    a, b = tree.node(move.u), tree.node(move.v)
    if move.kind is SwapKind.SAME_PARENT:
        if a.parent is None or a.parent != b.parent:
            raise KindViolation("nodes %d and %d are not siblings"
                                % (move.u, move.v))
    elif move.kind is SwapKind.SAME_ROW:
        if a.depth != b.depth:
            raise KindViolation("nodes %d and %d are on different rows"
                                % (move.u, move.v))
    else:
        if a.weight != b.weight:
            raise KindViolation("nodes %d and %d differ in probability"
                                % (move.u, move.v))


def swapped_shape(tree: CodeTree, move: SwapMove,
                  intern: Optional[_Intern] = None) -> Shape:
    """The shape of the tree after one checked swap; builds no tree.

    One walk up the two endpoints' root paths both checks the move and
    finds the nodes to rebuild.  Given `intern`, each rebuilt shape is
    replaced by `intern((id(left), id(right)), shape)`: the `get` of a
    table holding `tree`'s shapes puts in the equal shapes it holds, and
    its `setdefault` also enters the others.
    """
    u, v, nodes = move.u, move.v, tree.nodes
    if u == v:
        raise AncestryViolation("cannot swap a node with itself")
    if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
        raise AncestryViolation("node id out of range")
    above = set()  # proper ancestors of u and v
    for nid in (nodes[u].parent, nodes[v].parent):
        while nid is not None and nid not in above:
            above.add(nid)
            nid = nodes[nid].parent
    if min(u, v) in above:  # ids are breadth-first: the larger is not above
        raise AncestryViolation("one swap endpoint is a descendant of the other")
    _check_kind(tree, move)
    shapes = {u: nodes[v].shape, v: nodes[u].shape}
    for nid in sorted(above, reverse=True):  # children have larger ids
        node = nodes[nid]
        left, right = node.shape
        shape = (shapes.get(node.left, left), shapes.get(node.right, right))
        shapes[nid] = shape if intern is None else intern(
            (id(shape[0]), id(shape[1])), shape)
    return shapes[0]


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
    moves = []
    nodes = tree.nodes
    for u in range(1, len(nodes)):
        a = nodes[u]
        for v in range(u + 1, len(nodes)):
            b = nodes[v]
            if parent_ok and a.parent == b.parent:
                kind = SwapKind.SAME_PARENT
            elif row_ok and a.depth == b.depth:
                kind = SwapKind.SAME_ROW
            # ids are breadth-first, so only u can be an ancestor of v
            elif prob_ok and a.weight == b.weight and (
                    a.depth == b.depth or not _is_ancestor(tree, u, v)):
                kind = SwapKind.SAME_PROBABILITY
            else:
                continue
            moves.append(SwapMove(u, v, kind))
    return moves


def move_to_text(tree: CodeTree, move: SwapMove) -> str:
    """Serialize a move as 'kind row_u idx_u row_v idx_v'."""
    rows = tree.rows()
    a, b = tree.node(move.u), tree.node(move.v)
    return "%s %d %d %d %d" % (move.kind.value,
                               a.depth, rows[a.depth].index(move.u),
                               b.depth, rows[b.depth].index(move.v))


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
            target: Optional[CodeTree] = None
            ) -> Tuple[_Parents, Optional[List[SwapMove]], bool]:
    """Breadth-first search from `tree`, stopping once `target` is seen.

    Returns the recorded shapes with their back-pointers, the moves from
    `tree` to a `target` unlike it (None if not reached), and whether
    the cap skipped a neighbour.
    """
    table: ShapeTable = {}
    interned(tree, table)  # the table is empty, so these are tree's own
    goal = None if target is None else interned(target, table)
    parent: _Parents = {id(tree.shape): (tree.shape, None, None)}
    queue = deque([tree])
    truncated = False
    while queue:
        current = queue.popleft()
        here = id(current.shape)
        for move in available_swaps(current, kinds):
            shape = swapped_shape(current, move, table.get)  # no tree yet
            if id(shape) in parent:
                continue
            if shape is not goal and len(parent) >= cap:
                truncated = True
                continue
            new = node_swap(current, move, table.setdefault)
            parent[id(new.shape)] = (new.shape, here, move)
            queue.append(new)
            if shape is goal:
                path: List[SwapMove] = []
                while move is not None:
                    path.append(move)
                    _, here, move = parent[here]
                return parent, path[::-1], truncated
    return parent, None, truncated


def swap_closure(source: Source, tree: CodeTree, kinds: Set[SwapKind],
                 cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Breadth-first closure of a tree under the requested swap kinds."""
    if tree.source != source:
        raise AlphabetMismatch("tree is not over the given source")
    parent, _, truncated = _search(tree, kinds, cap)
    shapes = tuple(shape for shape, _, _ in parent.values())
    return ClosureResult(tuple(sorted(map(shape_label, shapes))), truncated,
                         shapes)


def swap_equivalent(source: Source, t1: CodeTree, t2: CodeTree,
                    kinds: Set[SwapKind], cap: int = DEFAULT_CLOSURE_CAP
                    ) -> Optional[List[SwapMove]]:
    """A certificate of moves turning t1 into t2, or None if unreachable.

    Raises Truncated when the cap is hit before the question is decided.
    """
    if t1.source != source or t2.source != source:
        raise AlphabetMismatch("trees are not over the given source")
    if t1.label == t2.label:
        return []
    _, path, truncated = _search(t1, kinds, cap, t2)
    if path is not None:
        return path
    if truncated:
        raise Truncated("closure cap %d hit before deciding equivalence" % cap)
    return None
