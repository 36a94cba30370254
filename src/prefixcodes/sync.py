"""Decoder automaton and shortest self-synchronizing-string search.

The decoder of a complete code tree walks from internal node to internal
node; reaching a leaf emits its symbol and resets to the root.  A
self-synchronizing string drives every internal node (root included) to
the root when fully consumed.  Search is a BFS over subsets of internal
nodes represented as bitmasks, so nonexistence answers are exact.

Two guards bound the search: `MAX_INTERNAL_NODES` the cost of each
subset, since a mask holds one bit per internal node and its image costs
about popcount x width, and `DEFAULT_SUBSET_CAP` how many subsets are
held.  Neither follows from the other: 1,024 nodes admit 2^1024 subsets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import CodeTree
from .errors import NotComplete, NotInternal, SubsetCapExceeded

MAX_INTERNAL_NODES = 1024
DEFAULT_SUBSET_CAP = 1 << 19
_BITS = {"0": 0, "1": 1}  # any other character is `decoder_step`'s error


@dataclass(frozen=True)
class SyncResult:
    string: Optional[str]
    explored_subsets: int

    @property
    def exists(self) -> bool:
        return self.string is not None


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


def _steps(tree: CodeTree, internal: Tuple[int, ...]) -> List[List[int]]:
    """steps[bit][k]: where `decoder_step` takes internal node internal[k]
    on `bit`, as a position in `internal`: a leaf resets to the root, 0."""
    index = {nid: k for k, nid in enumerate(internal)}
    return [[index.get(side[nid], 0) for nid in internal]
            for side in (tree.lefts, tree.rights)]


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
    internal = tree.internal_ids  # the root is node 0, so {root} is mask 1
    if len(internal) > MAX_INTERNAL_NODES:
        raise SubsetCapExceeded(
            "tree has %d internal nodes; the subset search supports %d"
            % (len(internal), MAX_INTERNAL_NODES))
    steps = _steps(tree, internal)
    start = (1 << len(internal)) - 1
    parent: Dict[int, Tuple[int, str]] = {start: (start, "")}  # (from, bit)
    if start == 1:
        return SyncResult(string="", explored_subsets=1)
    queue = deque([start])
    while queue:
        mask = queue.popleft()
        for ch, step in zip("01", steps):
            nxt, m = 0, mask
            while m:
                low = m & -m
                m ^= low
                nxt |= 1 << step[low.bit_length() - 1]
            if nxt in parent:
                continue
            parent[nxt] = (mask, ch)
            if nxt == 1:  # {root}
                bits = []
                while nxt != start:
                    nxt, bit = parent[nxt]
                    bits.append(bit)
                return SyncResult(string="".join(reversed(bits)),
                                  explored_subsets=len(parent))
            if len(parent) > subset_cap:
                raise SubsetCapExceeded(
                    "visited more than %d state subsets" % subset_cap)
            queue.append(nxt)
    return SyncResult(string=None, explored_subsets=len(parent))
