"""Property checkers for prefix codes: completeness, monotonicity,
strong monotonicity, optimality, length equivalence, and the improving
construction that turns a strong-monotonicity violation into a strictly
shorter code."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .core import (
    CodeTree,
    PrefixCode,
    Source,
    code_from_lengths,
    expected_length,
    kraft_sum,
    tree_from_code,
)
from .errors import (
    AlphabetMismatch,
    AlphabetTooLarge,
    ConsistencyError,
    InvalidWitness,
)
from .huffman import huffman_build, is_huffman, row_sorted

SUBSET_SCAN_MAX_SYMBOLS = 20


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


def is_monotone(source: Source, tree: CodeTree) -> bool:
    """True iff no node out-weighs any node on a strictly higher row."""
    rows = tree.rows()
    row_min = [min(tree.node(i).weight for i in row) for row in rows]
    row_max = [max(tree.node(i).weight for i in row) for row in rows]
    running_min = row_min[0]
    for depth in range(1, len(rows)):
        if row_max[depth] > running_min:
            return False
        running_min = min(running_min, row_min[depth])
    return True


def _dyadic_exponent(num: int, weight_bits: int) -> Optional[int]:
    """Exponent k with value = 2^-k, for value = num / 2^weight_bits."""
    if num <= 0 or num & (num - 1):
        return None
    k = weight_bits - num.bit_length() + 1
    return k if k >= 0 else None


def strong_monotonicity_check(source: Source, code: PrefixCode
                              ) -> Optional[MonotonicityWitness]:
    """Scan all symbol subsets for a strong-monotonicity violation.

    Groups subsets by the exponent k of their (power-of-two) Kraft sum
    and compares per-exponent probability extremes, so the doubly
    quantified definition costs O(2^n) rather than O(4^n).  Returns the
    deterministic lexicographically-first witness at the first violating
    exponent pair, or None if the code is strongly monotone.
    """
    symbols = source.symbols
    n = len(symbols)
    if n > SUBSET_SCAN_MAX_SYMBOLS:
        raise AlphabetTooLarge("subset scan supports at most %d symbols"
                               % SUBSET_SCAN_MAX_SYMBOLS)
    lengths = [len(code.word(s)) for s in symbols]
    weight_bits = max(lengths)
    kraft_w = [1 << (weight_bits - l) for l in lengths]
    prob_w = source.weights  # probabilities as integers over source.den

    size = 1 << n
    ksum = [0] * size
    psum = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        idx = low.bit_length() - 1
        ksum[mask] = ksum[rest] + kraft_w[idx]
        psum[mask] = psum[rest] + prob_w[idx]

    def subset_key(mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    min_p: Dict[int, Tuple[int, int]] = {}  # exponent -> (psum, mask)
    max_p: Dict[int, Tuple[int, int]] = {}
    for mask in range(1, size):
        k = _dyadic_exponent(ksum[mask], weight_bits)
        if k is None:
            continue
        cur = min_p.get(k)
        if (cur is None or psum[mask] < cur[0]
                or (psum[mask] == cur[0]
                    and subset_key(mask) < subset_key(cur[1]))):
            min_p[k] = (psum[mask], mask)
        cur = max_p.get(k)
        if (cur is None or psum[mask] > cur[0]
                or (psum[mask] == cur[0]
                    and subset_key(mask) < subset_key(cur[1]))):
            max_p[k] = (psum[mask], mask)

    exponents = sorted(min_p)
    for a, i in enumerate(exponents):
        for j in exponents[a + 1:]:
            if min_p[i][0] < max_p[j][0]:
                amask, bmask = min_p[i][1], max_p[j][1]
                return MonotonicityWitness(
                    A=tuple(symbols[t] for t in subset_key(amask)),
                    B=tuple(symbols[t] for t in subset_key(bmask)),
                    i=i, j=j)
    return None


def is_optimal(source: Source, code: PrefixCode) -> bool:
    """Exact comparison against the Huffman expected length."""
    return (expected_length(source, code)
            == huffman_build(source).expected_length())


def length_equivalent(c1: PrefixCode, c2: PrefixCode) -> bool:
    """True iff both codes assign every symbol the same codeword length."""
    if set(c1.words) != set(c2.words):
        raise AlphabetMismatch("codes are over different alphabets")
    return all(len(c1.word(s)) == len(c2.word(s)) for s in c1.words)


def improve_from_witness(source: Source, code: PrefixCode,
                         witness: MonotonicityWitness) -> PrefixCode:
    """Build a strictly shorter code from a strong-monotonicity violation.

    Lengths grow by (j - i) on A - B, shrink by (j - i) on B - A, and are
    untouched elsewhere; the new lengths always satisfy the Kraft
    inequality, and the expected length drops by exactly
    (j - i) * (P(B - A) - P(A - B)) > 0.
    """
    a_set, b_set = set(witness.A), set(witness.B)
    if not a_set <= set(source.symbols) or not b_set <= set(source.symbols):
        raise InvalidWitness("witness symbols outside the alphabet")
    if witness.i >= witness.j or witness.i < 0:
        raise InvalidWitness("witness needs 0 <= i < j")
    if kraft_sum(code, a_set) != Fraction(1, 2 ** witness.i):
        raise InvalidWitness("K(A) != 2^-i")
    if kraft_sum(code, b_set) != Fraction(1, 2 ** witness.j):
        raise InvalidWitness("K(B) != 2^-j")
    if source.prob_of(a_set) >= source.prob_of(b_set):
        raise InvalidWitness("P(A) >= P(B): nothing to improve")
    delta = witness.j - witness.i
    lengths = {}
    for sym, word in code.words.items():
        ln = len(word)
        if sym in a_set and sym not in b_set:
            ln += delta
        elif sym in b_set and sym not in a_set:
            ln -= delta
        lengths[sym] = ln
    return code_from_lengths(source, lengths)


def classify(source: Source, code: PrefixCode) -> PropertyReport:
    """Full property report; asserts the optimality characterizations agree."""
    tree = tree_from_code(source, code)
    complete = tree.is_complete
    kraft_total = kraft_sum(code, source.symbols)
    monotone = is_monotone(source, tree)
    witness = strong_monotonicity_check(source, code)
    strongly_monotone = witness is None
    exp_len = expected_length(source, code)
    huffman_len = huffman_build(source).expected_length()
    optimal = exp_len == huffman_len
    huffman_member = is_huffman(source, tree)
    lengths = code.lengths()
    h = row_sorted(source, tree) if complete else None  # the certificate
    length_equiv = h is not None and is_huffman(source, h) and all(
        h.depth_of(s) == lengths[s] for s in source.symbols)
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
