"""Decoder automaton and shortest self-synchronizing-string search.

The decoder of a complete code tree walks from internal node to internal
node; reaching a leaf emits its symbol and resets to the root.  A
self-synchronizing string drives every internal node (root included) to
the root when fully consumed.  Search is a BFS over subsets of internal
nodes represented as bitmasks, so nonexistence answers are exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import CodeTree
from .errors import NotComplete, NotInternal, SubsetCapExceeded

MAX_INTERNAL_NODES = 24
DEFAULT_SUBSET_CAP = 1 << MAX_INTERNAL_NODES
_BITS = {"0": 0, "1": 1}  # any other character is `decoder_step`'s error


@dataclass(frozen=True)
class SyncResult:
    string: Optional[str]
    exists: bool
    explored_subsets: int


def decoder_step(tree: CodeTree, state: int, bit: int) -> int:
    """One decoding step: follow the bit edge, resetting at leaves."""
    if not tree.is_complete:
        raise NotComplete("the decoder automaton needs a complete tree")
    if not 0 <= state < len(tree.symbols):
        raise NotInternal("node %d is not in the tree" % state)
    if tree.symbols[state] is not None:
        raise NotInternal("node %d is a leaf" % state)
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1, not %r" % bit)
    child = (tree.lefts if bit == 0 else tree.rights)[state]
    return tree.root if tree.symbols[child] is not None else child


def run_string(tree: CodeTree, state: int, bits: str) -> int:
    """Run the decoder from `state` over a whole bit string."""
    for ch in bits:
        state = decoder_step(tree, state, _BITS.get(ch, ch))
    return state


def shortest_sync_string(tree: CodeTree,
                         subset_cap: int = DEFAULT_SUBSET_CAP) -> SyncResult:
    """Shortest string sending every internal node to the root, if any.

    BFS over state subsets starting from the full internal-node set;
    expanding bit 0 before bit 1 makes the returned witness the
    lexicographically smallest among the shortest.  When the reachable
    subset graph is exhausted without hitting {root}, nonexistence is
    exact.  Raises SubsetCapExceeded when more than `subset_cap` subsets
    are visited before the root is reached, and ValueError for a cap
    below 1.
    """
    if subset_cap < 1:  # the start subset is always visited
        raise ValueError("subset cap must be at least 1, got %d" % subset_cap)
    if not tree.is_complete:
        raise NotComplete("synchronization is defined on complete trees")
    internal = tree.internal_ids
    if len(internal) > MAX_INTERNAL_NODES:
        raise SubsetCapExceeded(
            "tree has %d internal nodes; the subset search supports %d"
            % (len(internal), MAX_INTERNAL_NODES))
    index = {nid: k for k, nid in enumerate(internal)}
    step: List[Tuple[int, int]] = []
    for nid in internal:
        step.append((index[decoder_step(tree, nid, 0)],
                     index[decoder_step(tree, nid, 1)]))
    root_bit = 1 << index[tree.root]
    start = (1 << len(internal)) - 1
    target = root_bit

    def image(mask: int, bit: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            out |= 1 << step[low.bit_length() - 1][bit]
        return out

    parent: Dict[int, Tuple[Optional[int], Optional[int]]] = {
        start: (None, None)}
    if start == target:
        return SyncResult(string="", exists=True, explored_subsets=1)
    queue = deque([start])
    while queue:
        mask = queue.popleft()
        for bit in (0, 1):
            nxt = image(mask, bit)
            if nxt in parent:
                continue
            parent[nxt] = (mask, bit)
            if nxt == target:
                bits = []
                cur: Optional[int] = nxt
                while cur is not None:
                    prev, b = parent[cur]
                    if b is not None:
                        bits.append(str(b))
                    cur = prev
                bits.reverse()
                return SyncResult(string="".join(bits), exists=True,
                                  explored_subsets=len(parent))
            if len(parent) > subset_cap:
                raise SubsetCapExceeded(
                    "visited more than %d state subsets" % subset_cap)
            queue.append(nxt)
    return SyncResult(string=None, exists=False, explored_subsets=len(parent))
