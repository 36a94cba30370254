"""Property checkers for prefix codes: completeness, monotonicity,
strong monotonicity, optimality, and the improving construction that
turns a strong-monotonicity violation into a strictly shorter code.
Length-only checks take a length vector (`core.code_lengths`), and two
codes are length equivalent iff their vectors are equal; tree checks
read the tree's own source."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    CodeTree,
    PrefixCode,
    Source,
    _checked_lengths,
    _kraft,
    code_lengths,
    expected_length,
    kraft_sum,
    tree_from_code,
)
from .errors import ConsistencyError, InvalidWitness
from .huffman import huffman_length, is_huffman, row_sorted


@dataclass(frozen=True)
class MonotonicityWitness:
    """A certified strong-monotonicity violation: K(A)=2^-i > 2^-j=K(B)
    with i < j yet P(A) < P(B)."""
    A: Tuple[str, ...]
    B: Tuple[str, ...]
    i: int
    j: int


@dataclass(frozen=True)
class PropertyReport:
    complete: bool
    kraft_total: Fraction
    monotone: bool
    strongly_monotone: bool
    witness: Optional[MonotonicityWitness]
    optimal: bool
    expected_len: Fraction
    huffman_len: Fraction
    huffman_member: bool
    length_equivalent_to_huffman: bool


def is_complete(tree: CodeTree) -> bool:
    """True iff every node has zero or two children."""
    return tree.is_complete


def is_monotone(tree: CodeTree) -> bool:
    """True iff no node out-weighs any node on a strictly higher row."""
    rows, weights = tree.rows(), tree.weights
    row_min = [min(weights[i] for i in row) for row in rows]
    row_max = [max(weights[i] for i in row) for row in rows]
    running_min = row_min[0]
    for depth in range(1, len(rows)):
        if row_max[depth] > running_min:
            return False
        running_min = min(running_min, row_min[depth])
    return True


def _least_keys(lengths: Sequence[int], keys: Sequence[int]
                ) -> Dict[int, int]:
    """k -> the least sum of `keys` over the subsets with Kraft sum 2^-k.
    One package-merge pass (Larmore and Hirschberg 1990) serves every k:
    from the deepest row up, row k's cheapest entry is the answer at k,
    and the entries pair off, cheapest first, into packages for the row
    above, the same for all k.  Plain weights give the least weights;
    `_tie_keys` also picks the subset that reaches them."""
    rows: List[List[int]] = [[] for _ in range(max(lengths) + 1)]
    for ln, key in zip(lengths, keys):
        rows[ln].append(key)
    least, carry = {}, []
    for d in range(len(rows) - 1, -1, -1):
        row = rows[d] + carry
        if row:
            row.sort()
            least[d] = row[0]
        carry = list(map(add, row[::2], row[1::2]))
    return least


def _tie_keys(weights: Sequence[int]) -> List[int]:
    """The keys w_i*2^(n+1) - 2^(n-i), whose least sum at each exponent
    names one subset, read back by `_subset`.

    A subset's key sum is W*2^(n+1) - b, with W its weight and b > 0 its
    bonuses 2^(n-i); all n bonuses sum to less than 2^(n+1).  So the
    least key sum has the least W (the sum rounded up to a multiple of
    2^(n+1)) and among those the greatest b, which is the first sorted
    index tuple: at the least index in S but not in T, S gains a bonus
    larger than all later ones together, and T holds a larger index
    there, for two subsets with one Kraft sum are never prefix and
    extension (a proper superset has a larger Kraft sum).
    """
    n = len(weights)
    return [(w << n + 1) - (1 << n - i) for i, w in enumerate(weights)]


def _subset(lengths: Sequence[int], weights: Sequence[int], k: int,
            key: int) -> Tuple[int, ...]:
    """The index tuple of the least key sum at exponent k: i is in it iff
    bonus bit 2^(n-i) is set.  Checks its Kraft sum and weight."""
    n, depth = len(weights), max(lengths)
    weight = -(-key >> n + 1)
    bonus = format((weight << n + 1) - key, "0%db" % (n + 1))
    chosen = tuple(i for i, bit in enumerate(bonus) if bit == "1")
    if (sum(1 << depth - lengths[i] for i in chosen) != 1 << depth - k
            or sum(weights[i] for i in chosen) != weight):
        raise ConsistencyError("key %d misdecodes at exponent %d" % (key, k))
    return chosen


def strong_monotonicity_check(source: Source, lengths: Sequence[int]
                              ) -> Optional[MonotonicityWitness]:
    """Find a strong-monotonicity violation in polynomial time, or None.

    The code is strongly monotone iff, for all exponents i < j that
    Kraft sums of symbol subsets reach, the least P(A) with K(A) = 2^-i
    is at least the greatest P(B) with K(B) = 2^-j.  One package-merge
    pass per sign over the plain weights gives both extremes at every
    exponent.  At the first violating (i, j), in increasing i then j, one
    keyed pass per sign finds the witness sets, the first sorted index
    tuples that reach the extremes, as in
    `oracle.strong_monotonicity_scan`, the 2^n subset scan this answer
    must match.
    """
    symbols = source.symbols
    lengths = _checked_lengths(source, lengths)
    weights = source.weights  # probabilities as integers over den
    negated = [-w for w in weights]  # the greatest, as the least negated
    lo = _least_keys(lengths, weights)
    hi = {k: -w for k, w in _least_keys(lengths, negated).items()}
    exponents = sorted(lo)
    for a, i in enumerate(exponents):
        j = next((j for j in exponents[a + 1:] if hi[j] > lo[i]), None)
        if j is not None:  # only now the witness sets: the keyed passes
            A = _subset(lengths, weights, i,
                        _least_keys(lengths, _tie_keys(weights))[i])
            B = _subset(lengths, negated, j,
                        _least_keys(lengths, _tie_keys(negated))[j])
            return MonotonicityWitness(A=tuple(symbols[t] for t in A),
                                       B=tuple(symbols[t] for t in B),
                                       i=i, j=j)
    return None


def is_optimal(source: Source, lengths: Sequence[int]) -> bool:
    """Exact comparison against the Huffman expected length."""
    return expected_length(source, lengths) == huffman_length(source)


def improve_from_witness(source: Source, lengths: Sequence[int],
                         witness: MonotonicityWitness) -> Tuple[int, ...]:
    """A strictly shorter length vector from a strong-monotonicity violation.

    Lengths grow by (j - i) on A - B, shrink by (j - i) on B - A, and are
    untouched elsewhere; the new lengths always satisfy the Kraft
    inequality, and the expected length drops by exactly
    (j - i) * (P(B - A) - P(A - B)) > 0.
    """
    lengths = _checked_lengths(source, lengths)
    a_set, b_set = set(witness.A), set(witness.B)
    if not a_set <= set(source.symbols) or not b_set <= set(source.symbols):
        raise InvalidWitness("witness symbols outside the alphabet")
    if witness.i >= witness.j or witness.i < 0:
        raise InvalidWitness("witness needs 0 <= i < j")
    in_a = [s in a_set for s in source.symbols]
    in_b = [s in b_set for s in source.symbols]
    # K = num / 2^top is 2^-k iff num == 2^(top - k); no 2^k is built
    for chosen, k, fault in ((in_a, witness.i, "K(A) != 2^-i"),
                             (in_b, witness.j, "K(B) != 2^-j")):
        num, top = _kraft(tuple(compress(lengths, chosen)))
        if not (k <= top and num == 1 << (top - k)):
            raise InvalidWitness(fault)
    if source.prob_of(a_set) >= source.prob_of(b_set):
        raise InvalidWitness("P(A) >= P(B): nothing to improve")
    delta = witness.j - witness.i
    return _checked_lengths(source, (ln + delta * (a - b) for ln, a, b
                                     in zip(lengths, in_a, in_b)))


def classify(source: Source, code: PrefixCode) -> PropertyReport:
    """Full property report; asserts the optimality characterizations agree."""
    tree = tree_from_code(source, code)
    lengths = code_lengths(source, code)
    complete = tree.is_complete
    kraft_total = kraft_sum(lengths)
    monotone = is_monotone(tree)
    witness = strong_monotonicity_check(source, lengths)
    strongly_monotone = witness is None
    exp_len = expected_length(source, lengths)
    huffman_len = huffman_length(source)
    optimal = exp_len == huffman_len
    huffman_member = is_huffman(tree)
    h = row_sorted(tree) if complete else None  # the certificate
    length_equiv = h is not None and is_huffman(h) and tuple(
        map(h.depth_of, source.symbols)) == lengths
    if not (optimal == (complete and strongly_monotone) == length_equiv):
        raise ConsistencyError(
            "optimality characterizations disagree: optimal=%s, "
            "complete&strongly_monotone=%s, length_equivalent=%s"
            % (optimal, complete and strongly_monotone, length_equiv))
    if complete and kraft_total != 1:
        raise ConsistencyError("complete code with Kraft sum %s" % kraft_total)
    return PropertyReport(
        complete=complete,
        kraft_total=kraft_total,
        monotone=monotone,
        strongly_monotone=strongly_monotone,
        witness=witness,
        optimal=optimal,
        expected_len=exp_len,
        huffman_len=huffman_len,
        huffman_member=huffman_member,
        length_equivalent_to_huffman=length_equiv,
    )
