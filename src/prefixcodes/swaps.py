"""Node swaps on code trees and breadth-first swap-closure search.

A swap exchanges the subtrees rooted at two nodes, neither an ancestor
of the other.  Closure states are identified by canonical label, and
certificate moves are serialized as (row, index-in-row) pairs, which are
stable because node ids are assigned breadth-first.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import CodeTree, Shape, Source
from .errors import AncestryViolation, KindViolation, ParseError, Truncated

DEFAULT_CLOSURE_CAP = 200_000


class SwapKind(enum.Enum):
    SAME_PARENT = "parent"
    SAME_ROW = "row"
    SAME_PROBABILITY = "prob"


ALL_KINDS = frozenset(SwapKind)


@dataclass(frozen=True)
class SwapMove:
    """Exchange subtrees at node ids u and v; u < v by convention."""
    u: int
    v: int
    kind: SwapKind


@dataclass(frozen=True)
class ClosureResult:
    members: Tuple[str, ...]           # canonical labels, sorted
    truncated: bool


def _is_ancestor(tree: CodeTree, u: int, v: int) -> bool:
    """True iff u is a (strict or equal) ancestor of v."""
    node = tree.node(v)
    while node is not None:
        if node.id == u:
            return True
        node = tree.node(node.parent) if node.parent is not None else None
    return False


def _replace(shape: Shape, path: str, replacement: Shape) -> Shape:
    if not path:
        return replacement
    left, right = shape
    if path[0] == "0":
        return (_replace(left, path[1:], replacement), right)
    return (left, _replace(right, path[1:], replacement))


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


def node_swap(tree: CodeTree, move: SwapMove) -> CodeTree:
    """Apply one swap, returning a new tree; the input is unchanged."""
    if move.u == move.v:
        raise AncestryViolation("cannot swap a node with itself")
    if not (0 <= move.u < len(tree.nodes) and 0 <= move.v < len(tree.nodes)):
        raise AncestryViolation("node id out of range")
    if _is_ancestor(tree, move.u, move.v) or _is_ancestor(tree, move.v, move.u):
        raise AncestryViolation("one swap endpoint is a descendant of the other")
    _check_kind(tree, move)
    path_u, path_v = tree.path(move.u), tree.path(move.v)
    sub_u, sub_v = tree.shape_at(move.u), tree.shape_at(move.v)
    shape = _replace(tree.shape, path_u, sub_v)
    shape = _replace(shape, path_v, sub_u)
    return CodeTree(tree.source, shape)


def available_swaps(tree: CodeTree, kinds: Set[SwapKind]) -> List[SwapMove]:
    """All admissible moves of the requested kinds, in (u, v, kind) order."""
    moves = []
    nodes = tree.nodes
    kind_order = (SwapKind.SAME_PARENT, SwapKind.SAME_ROW,
                  SwapKind.SAME_PROBABILITY)
    for u in range(1, len(nodes)):
        a = nodes[u]
        for v in range(u + 1, len(nodes)):
            b = nodes[v]
            if a.depth == b.depth:
                related = False
            else:
                related = (_is_ancestor(tree, u, v)
                           or _is_ancestor(tree, v, u))
            if related:
                continue
            for kind in kind_order:
                if kind not in kinds:
                    continue
                if kind is SwapKind.SAME_PARENT and a.parent != b.parent:
                    continue
                if kind is SwapKind.SAME_ROW and a.depth != b.depth:
                    continue
                if kind is SwapKind.SAME_PROBABILITY and a.weight != b.weight:
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
        rows = tree.rows()
        u, v = rows[ru][iu], rows[rv][iv]
    except (ValueError, IndexError) as exc:
        raise ParseError("bad move %r: %s" % (text, exc)) from None
    return SwapMove(min(u, v), max(u, v), kind)


def replay(tree: CodeTree, moves: Sequence[SwapMove]) -> CodeTree:
    """Apply a certificate move-by-move."""
    for move in moves:
        tree = node_swap(tree, move)
    return tree


def swap_closure(source: Source, tree: CodeTree, kinds: Set[SwapKind],
                 cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Breadth-first closure of a tree under the requested swap kinds."""
    start = tree.label
    trees: Dict[str, CodeTree] = {start: tree}
    members = {start}
    queue = deque([start])
    truncated = False
    while queue:
        label = queue.popleft()
        current = trees.pop(label)
        for move in available_swaps(current, kinds):
            neighbor = node_swap(current, move)
            if neighbor.label not in members:
                if len(members) >= cap:
                    truncated = True
                    continue
                members.add(neighbor.label)
                trees[neighbor.label] = neighbor
                queue.append(neighbor.label)
    return ClosureResult(tuple(sorted(members)), truncated)


def swap_equivalent(source: Source, t1: CodeTree, t2: CodeTree,
                    kinds: Set[SwapKind], cap: int = DEFAULT_CLOSURE_CAP
                    ) -> Optional[List[SwapMove]]:
    """A certificate of moves turning t1 into t2, or None if unreachable.

    Raises Truncated when the cap is hit before the question is decided.
    """
    target = t2.label
    if t1.label == target:
        return []
    trees: Dict[str, CodeTree] = {t1.label: t1}
    parent: Dict[str, Tuple[Optional[str], Optional[SwapMove]]] = {
        t1.label: (None, None)}
    queue = deque([t1.label])
    truncated = False
    while queue:
        label = queue.popleft()
        current = trees[label]
        for move in available_swaps(current, kinds):
            neighbor = node_swap(current, move)
            if neighbor.label in parent:
                continue
            parent[neighbor.label] = (label, move)
            if neighbor.label == target:
                path: List[SwapMove] = []
                lbl: Optional[str] = neighbor.label
                while lbl is not None:
                    prev, mv = parent[lbl]
                    if mv is not None:
                        path.append(mv)
                    lbl = prev
                path.reverse()
                return path
            if len(parent) >= cap:
                truncated = True
                continue
            trees[neighbor.label] = neighbor
            queue.append(neighbor.label)
    if truncated:
        raise Truncated("closure cap %d hit before deciding equivalence" % cap)
    return None
