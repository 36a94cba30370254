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

from .core import (CodeTree, PrefixCode, Source, _checked_lengths, _kraft,
                   code_lengths, expected_length, kraft_sum, tree_from_code)
from .errors import ConsistencyError, InvalidWitness
from .huffman import _greedy_listing, _row_sort, huffman_length, is_huffman


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
    """True iff no node out-weighs any node on a strictly higher row, or,
    the same by induction, the least node of the row just above."""
    above = row_min = tree.weights[0]  # least of the row above; this row's
    row = 0
    for w, depth in zip(tree.weights, tree.depths):  # breadth-first
        if depth != row:
            row, above, row_min = depth, row_min, w
        elif w < row_min:
            row_min = w
        if w > above:
            return False
    return True


def _least_keys(lengths: Sequence[int], keys: Sequence[int]
                ) -> Dict[int, int]:
    """k -> the least sum of `keys` over the subsets with Kraft sum 2^-k.
    One package-merge pass (Larmore and Hirschberg 1990) serves every k:
    from the deepest row up, row k's cheapest entry is the answer at k,
    and the entries pair off, cheapest first, into packages for the row
    above, the same for all k."""
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


def _least_set(lengths: Sequence[int], weights: Sequence[int], k: int
               ) -> Tuple[int, int, Tuple[int, ...]]:
    """The (weight, least index, indices) entry of the first sorted index
    tuple among the least-weight subsets with Kraft sum 2^-k, for a k
    that some subset reaches.

    `_least_keys` on the keys w_i*2^(n+1) - 2^(n-i) finds that tuple: a
    subset's bonuses 2^(n-i) sum below 2^(n+1), and where two subsets of
    one Kraft sum (neither extends the other) first differ, the one with
    the index gains more than all later bonuses.  Of two disjoint subsets
    of equal weight, the keys thus put first the one with the least index.
    A row's entries are disjoint (a package joins two of the row below),
    so sorting on (weight, least index) orders a row as the keys do, with
    no n-bit key; two entries package as (w1 + w2, min(i1, i2), t1 + t2).
    The rows above k are not read."""
    rows: List[list] = [[] for _ in range(max(lengths) + 1)]
    for i, (ln, w) in enumerate(zip(lengths, weights)):
        rows[ln].append((w, i, (i,)))
    carry = []
    for row in rows[:k:-1]:  # the deepest row up to row k + 1
        row = sorted(row + carry)
        carry = [(w1 + w2, min(i1, i2), t1 + t2) for (w1, i1, t1), (w2, i2, t2)
                 in zip(row[::2], row[1::2])]
    return min(rows[k] + carry)


def strong_monotonicity_check(source: Source, lengths: Sequence[int]
                              ) -> Optional[MonotonicityWitness]:
    """Find a strong-monotonicity violation in polynomial time, or None.

    The code is strongly monotone iff, for all exponents i < j that
    Kraft sums of symbol subsets reach, the least P(A) with K(A) = 2^-i
    is at least the greatest P(B) with K(B) = 2^-j.  One package-merge
    pass per sign over the plain weights gives both extremes at every
    exponent.  At the first violating (i, j), in increasing i then j, one
    pass per sign on entries that carry their subsets finds the witness
    sets, the first sorted index tuples that reach the extremes, as in
    `oracle.strong_monotonicity_scan`, the 2^n subset scan this answer
    must match.
    """
    lengths = _checked_lengths(source, lengths)
    weights = source.weights  # probabilities as integers over den
    negated = [-w for w in weights]  # the greatest, as the least negated
    lo = _least_keys(lengths, weights)
    hi = {k: -w for k, w in _least_keys(lengths, negated).items()}
    exponents = sorted(lo)
    for a, i in enumerate(exponents):
        j = next((j for j in exponents[a + 1:] if hi[j] > lo[i]), None)
        if j is not None:  # only now the witness sets
            depth, sets = max(lengths), []
            for ws, k, least in ((weights, i, lo[i]), (negated, j, -hi[j])):
                chosen = sorted(_least_set(lengths, ws, k)[2])
                if (sum(ws[t] for t in chosen) != least
                        or sum(1 << depth - lengths[t] for t in chosen)
                        != 1 << depth - k):
                    raise ConsistencyError("witness set misses exponent %d "
                                           "or weight %d" % (k, least))
                sets.append(tuple(source.symbols[t] for t in chosen))
            return MonotonicityWitness(A=sets[0], B=sets[1], i=i, j=j)
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
    # the certificate: a row sort moves no leaf off its row, so its leaf
    # depths are the code's, and its sibling pairs say if it is Huffman
    length_equiv = complete and _greedy_listing(_row_sort(tree)[0])
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
