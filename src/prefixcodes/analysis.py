"""Property checkers for prefix codes: completeness, monotonicity,
strong monotonicity, optimality, and the improving construction that
turns a strong-monotonicity violation into a strictly shorter code.
Length-only checks take a length vector (`core.code_lengths`), and two
codes are length equivalent iff their vectors are equal; tree checks
read the tree's own source."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    CodeTree,
    PrefixCode,
    Source,
    _checked_lengths,
    code_lengths,
    expected_length,
    kraft_sum,
    tree_from_code,
)
from .errors import ConsistencyError, InvalidWitness
from .huffman import huffman_build, is_huffman, row_sorted


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


def _rows(lengths: Sequence[int], weights: Sequence[int]) -> List[List[int]]:
    """rows[d]: the sorted weights of the symbols at depth d, for every
    depth down to the deepest."""
    rows: List[List[int]] = [[] for _ in range(max(lengths) + 1)]
    for ln, w in zip(lengths, weights):
        rows[ln].append(w)
    for row in rows:
        row.sort()
    return rows


def _least(rows: List[List[int]], target: int) -> Optional[int]:
    """Least total weight of a subset with Kraft sum target / 2^depth,
    where depth = len(rows) - 1 and target <= 2^depth; None if no subset
    has that Kraft sum.

    Package-merge (Larmore and Hirschberg 1990): from the deepest row up,
    a row whose bit is set in the target gives up its cheapest entry, and
    the rest pair off, cheapest first, into packages for the row above.
    """
    depth = len(rows) - 1
    total, carry = 0, []
    for d in range(depth, -1, -1):
        bits = target >> (depth - d)  # the target's bits on rows d..0
        if not bits:
            break
        row = sorted(rows[d] + carry)
        if bits & 1:
            if not row:
                return None
            total += row.pop(0)
        carry = [a + b for a, b in zip(row[::2], row[1::2])]
    return total


def _row_extremes(rows: List[List[int]]) -> Dict[int, int]:
    """k -> the least total weight of a subset with Kraft sum 2^-k, for
    every k that some subset reaches.  One package-merge pass serves all
    k: the target 2^-k has no bit on the rows below k, so the packages
    that reach row k are the same for every k."""
    least, carry = {}, []
    for d in range(len(rows) - 1, -1, -1):
        row = sorted(rows[d] + carry)
        if row:
            least[d] = row[0]
        carry = [a + b for a, b in zip(row[::2], row[1::2])]
    return least


def _first_subset(lengths: Sequence[int], weights: Sequence[int], k: int,
                  best: int) -> Tuple[int, ...]:
    """The lexicographically first sorted index tuple among the subsets
    with Kraft sum 2^-k and total weight `best`, the least such weight.

    Walks the indices in order and takes each time the smallest next
    index that still has a completion of weight `best`, tested by one
    `_least` query on the indices after it.  The walk stops once the
    chosen prefix reaches the Kraft sum (and so weight `best`): every
    extension has a larger Kraft sum, and a prefix precedes its
    extensions.
    """
    depth = max(lengths)
    rows = _rows(lengths, weights)  # the indices not yet passed
    chosen: List[int] = []
    kraft_left, weight_left = 1 << (depth - k), best
    c = 0
    while kraft_left:
        for c in range(c, len(lengths)):
            row = rows[lengths[c]]
            del row[bisect_left(row, weights[c])]
            kraft_c = 1 << (depth - lengths[c])
            if kraft_c > kraft_left:
                continue
            rest = _least(rows, kraft_left - kraft_c)
            if rest is not None and rest + weights[c] == weight_left:
                break
        else:
            raise ConsistencyError(
                "no subset reaches the package-merge extreme %d at "
                "exponent %d" % (best, k))
        chosen.append(c)
        kraft_left -= kraft_c
        weight_left -= weights[c]
        c += 1
    return tuple(chosen)


def strong_monotonicity_check(source: Source, lengths: Sequence[int]
                              ) -> Optional[MonotonicityWitness]:
    """Find a strong-monotonicity violation in polynomial time.

    The code is strongly monotone iff, for all exponents i < j that
    Kraft sums of symbol subsets reach, the least P(A) with K(A) = 2^-i
    is at least the greatest P(B) with K(B) = 2^-j.  Kraft terms are
    powers of two, so each extreme is a Coin Collector's problem, and
    one package-merge pass per sign finds them for every exponent.  At
    the first violating (i, j), in increasing i then j, the witness sets
    are the lexicographically first sorted index tuples that reach the
    two extremes.  Returns None if the lengths are strongly monotone.
    `oracle.strong_monotonicity_scan` is the 2^n subset scan that this
    answer, witness included, must match.
    """
    symbols = source.symbols
    lengths = _checked_lengths(source, lengths)
    weights = source.weights  # probabilities as integers over den
    rows = _rows(lengths, weights)
    lo = _row_extremes(rows)
    # the greatest weights, as the least of the negated ones
    neg_hi = _row_extremes([[-w for w in reversed(row)] for row in rows])
    exponents = sorted(lo)
    for a, i in enumerate(exponents):
        j = next((j for j in exponents[a + 1:] if -neg_hi[j] > lo[i]),
                 None)
        if j is not None:
            A = _first_subset(lengths, weights, i, lo[i])
            B = _first_subset(lengths, [-w for w in weights], j, neg_hi[j])
            return MonotonicityWitness(A=tuple(symbols[t] for t in A),
                                       B=tuple(symbols[t] for t in B),
                                       i=i, j=j)
    return None


def is_optimal(source: Source, lengths: Sequence[int]) -> bool:
    """Exact comparison against the Huffman expected length."""
    return (expected_length(source, lengths)
            == huffman_build(source).expected_length())


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
    if kraft_sum(compress(lengths, in_a)) != Fraction(1, 2 ** witness.i):
        raise InvalidWitness("K(A) != 2^-i")
    if kraft_sum(compress(lengths, in_b)) != Fraction(1, 2 ** witness.j):
        raise InvalidWitness("K(B) != 2^-j")
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
    huffman_len = huffman_build(source).expected_length()
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
