"""Command-line front-end.

Subcommands: huffman, check, swaps, sync, verify.  Exit codes: 0 on a
success / affirmative answer, 1 on a negative finding, 2 on input
errors, 3 when a resource guard (cap, alphabet size) trips, 4 on an
internal error (a failed cross-check or any unexpected exception), so
that a crash never reads as a negative finding.  Rationals are always
printed exactly, never as decimals.

File formats:
  source file: one `symbol value` per line, value a fraction `p/q` or a
    positive integer weight (weights are normalized by their total);
    `#` starts a comment.
  code file: one `symbol bitstring` per line, same comment rule.
  certificate: one move per line, `kind row_u idx_u row_v idx_v`.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import List, Optional, Tuple

from .analysis import PropertyReport, classify
from .core import (
    CodeTree,
    PrefixCode,
    Source,
    code_from_tree,
    tree_from_code,
)
from .errors import (
    AlphabetTooLarge,
    CapExceeded,
    CodeError,
    ConsistencyError,
    ParseError,
    SubsetCapExceeded,
    Truncated,
)
from .huffman import (
    DEFAULT_ENUMERATE_CAP,
    TiePolicy,
    huffman_build,
    huffman_enumerate,
)
from .oracle import ENUMERATION_MAX_SYMBOLS, builtin_corpus, verify_theorems
from .swaps import (
    DEFAULT_CLOSURE_CAP,
    SwapKind,
    move_to_text,
    node_swap,
    swap_closure,
    swap_equivalent,
)
from .sync import shortest_sync_string

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _fields(text: str, second: str, kind: str) -> List[Tuple[int, str, str]]:
    """(line number, symbol, second field) of each line with content; `#`
    starts a comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected 'symbol %s'" % (lineno, second))
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise ParseError("empty %s file" % kind)
    return rows


def parse_source_text(text: str) -> Source:
    entries = []  # (symbol, value, whether the value is an integer weight)
    for lineno, sym, value in _fields(text, "value", "source"):
        try:
            if "_" in value:  # `Fraction` reads digit separators from 3.11 on
                raise ValueError(value)
            # plain ASCII digits are read as `Fraction` reads them, faster
            frac = (int(value) if value.isascii() and value.isdigit()
                    else Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise ParseError("line %d: bad value %r" % (lineno, value)) from None
        entries.append((sym, frac, "/" not in value and frac.denominator == 1))
    try:
        if all(weight for _, _, weight in entries):
            return Source.from_weights((s, f.numerator) for s, f, _ in entries)
        return Source((s, f) for s, f, _ in entries)
    except CodeError as exc:
        raise ParseError(str(exc)) from None


def parse_code_text(text: str) -> PrefixCode:
    words = [(sym, word) for _, sym, word in _fields(text, "bitstring", "code")]
    try:
        return PrefixCode(words)
    except CodeError as exc:
        raise ParseError(str(exc)) from None


def _load_source(path: str) -> Source:
    with open(path, encoding="utf-8") as fh:
        return parse_source_text(fh.read())


def _load_code(path: str) -> PrefixCode:
    with open(path, encoding="utf-8") as fh:
        return parse_code_text(fh.read())


def tree_to_dot(tree: CodeTree) -> str:
    """Graphviz rendering: probabilities on nodes, 0/1 on edges."""
    lines = ["digraph codetree {", "  node [shape=circle];"]
    for nid, symbol in enumerate(tree.symbols):
        if symbol is not None:  # a symbol may hold a backslash or a quote
            text = symbol.replace("\\", "\\\\").replace('"', '\\"')
            lines.append('  n%d [shape=box label="%s\\n%s"];'
                         % (nid, text, tree.prob(nid)))
        else:
            lines.append('  n%d [label="%s"];' % (nid, tree.prob(nid)))
    for nid, (left, right) in enumerate(zip(tree.lefts, tree.rights)):
        if left is not None:
            lines.append('  n%d -> n%d [label="0"];' % (nid, left))
        if right is not None:
            lines.append('  n%d -> n%d [label="1"];' % (nid, right))
    lines.append("}")
    return "\n".join(lines)


def _parse_kinds(text: str) -> set:
    kinds = set()
    for part in text.split(","):
        part = part.strip()
        try:
            kinds.add(SwapKind(part))
        except ValueError:
            raise ParseError("unknown swap kind %r (use parent,row,prob)"
                             % part) from None
    return kinds


def cmd_huffman(args) -> int:
    if args.all and args.dot:
        raise ParseError("huffman --dot draws one tree, not --all")
    if args.all and args.policy:
        raise ParseError("huffman --all covers every --policy")
    if args.cap and not args.all:
        raise ParseError("huffman --cap bounds --all, not one tree")
    if args.dot and args.json:
        raise ParseError("huffman --dot prints DOT, not --json")
    source = _load_source(args.source)
    if args.all:
        trees = huffman_enumerate(source,
                                  cap=args.cap or DEFAULT_ENUMERATE_CAP)
        if args.json:
            print(json.dumps({
                "count": len(trees),
                "trees": [t.label for t in trees],
                "expected_length": str(trees[0].expected_length()),
            }, indent=2))
        else:
            print("%d Huffman trees" % len(trees))
            for tree in trees:
                print(tree.label)
        return EXIT_OK
    tree = huffman_build(source, TiePolicy(args.policy or "first-left"))
    code = code_from_tree(tree)
    if args.dot:
        print(tree_to_dot(tree))
        return EXIT_OK
    if args.json:
        print(json.dumps({
            "code": dict(code.words),
            "lengths": code.lengths(),
            "expected_length": str(tree.expected_length()),
            "tree": tree.label,
        }, indent=2))
    else:
        for sym in source.symbols:
            print("%s %s %d" % (sym, code.word(sym), len(code.word(sym))))
        print("expected length %s" % tree.expected_length())
    return EXIT_OK


def _report_json(report: PropertyReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {"A": list(report.witness.A), "B": list(report.witness.B),
                   "i": report.witness.i, "j": report.witness.j}
    return {
        "complete": report.complete,
        "kraft_total": str(report.kraft_total),
        "monotone": report.monotone,
        "strongly_monotone": report.strongly_monotone,
        "witness": witness,
        "optimal": report.optimal,
        "expected_length": str(report.expected_len),
        "huffman_length": str(report.huffman_len),
        "huffman_member": report.huffman_member,
        "length_equivalent_to_huffman": report.length_equivalent_to_huffman,
    }


def cmd_check(args) -> int:
    source = _load_source(args.source)
    code = _load_code(args.code)
    report = classify(source, code)
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        print("complete            %s" % report.complete)
        print("kraft sum           %s" % report.kraft_total)
        print("monotone            %s" % report.monotone)
        print("strongly monotone   %s" % report.strongly_monotone)
        if report.witness is not None:
            w = report.witness
            print("  violation: A={%s} B={%s} i=%d j=%d"
                  % (",".join(w.A), ",".join(w.B), w.i, w.j))
        print("optimal             %s" % report.optimal)
        print("expected length     %s" % report.expected_len)
        print("huffman length      %s" % report.huffman_len)
        print("huffman code        %s" % report.huffman_member)
        print("length-equiv to H   %s" % report.length_equivalent_to_huffman)
    return EXIT_OK if report.optimal else EXIT_NEGATIVE


def cmd_swaps(args) -> int:
    source = _load_source(args.source)
    start = tree_from_code(source, _load_code(args.from_code))
    kinds = _parse_kinds(args.kinds)
    if args.to_code:
        target = tree_from_code(source, _load_code(args.to_code))
        moves = swap_equivalent(source, start, target, kinds, cap=args.cap)
        if moves is None:
            print("NOT EQUIVALENT")
            return EXIT_NEGATIVE
        # the replay re-checks each move; the last tree must be the target
        trees = list(accumulate(moves, node_swap, initial=start))
        if trees[-1].label != target.label:
            raise ConsistencyError("certificate does not end at the target")
        lines = [move_to_text(t, m) for t, m in zip(trees, moves)]
        if args.json:
            print(json.dumps({"equivalent": True, "certificate": lines},
                             indent=2))
        else:
            for line in lines:
                print(line)
        return EXIT_OK
    closure = swap_closure(source, start, kinds, cap=args.cap)
    if args.json:
        print(json.dumps({
            "size": len(closure.members),
            "truncated": closure.truncated,
            "members": list(closure.members),
        }, indent=2))
    else:
        print("closure size %d%s" % (len(closure.members),
                                     " (truncated)" if closure.truncated
                                     else ""))
        for label in closure.members:
            print(label)
    return EXIT_OK


def cmd_sync(args) -> int:
    source = _load_source(args.source)
    tree = tree_from_code(source, _load_code(args.code))
    result = shortest_sync_string(tree)
    if args.json:
        print(json.dumps({
            "exists": result.exists,
            "string": result.string,
            "explored_subsets": result.explored_subsets,
        }, indent=2))
    else:
        print(result.string if result.exists else "NONE")
    return EXIT_OK if result.exists else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    if args.corpus == bool(args.source):
        raise ParseError("verify needs a source file or --corpus, not both")
    if args.corpus:
        sources = builtin_corpus()
    else:
        sources = [(args.source, _load_source(args.source))]
    max_n = min(args.max_n, ENUMERATION_MAX_SYMBOLS)
    for name, source in sources:  # every limit before any work
        if len(source) > max_n:
            raise AlphabetTooLarge(
                "%s has %d symbols, limit %d" % (name, len(source), max_n))
    results = [(name, verify_theorems(source)) for name, source in sources]
    all_ok = all(report.all_passed for _, report in results)
    if args.json:
        print(json.dumps([{
            "source": name,
            "all_passed": report.all_passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in report.checks],
        } for name, report in results], indent=2))
    else:
        for name, report in results:
            print("== %s" % name)
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                print("  %s %-55s %s" % (status, check.name, check.detail))
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def positive_int(text: str) -> int:
    """An argparse type for caps and limits: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %s" % text)
    return int(text)


@lru_cache(maxsize=None)  # built once per process, shared by every main()
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixcodes",
        description="Analyze minimum-expected-length binary prefix codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("huffman", help="build or enumerate Huffman codes")
    p.add_argument("source")
    p.add_argument("--all", action="store_true",
                   help="enumerate every tie-break outcome")
    p.add_argument("--policy", help="default first-left",
                   choices=[policy.value for policy in TiePolicy])
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=positive_int,
                   help="bound on --all, default %d" % DEFAULT_ENUMERATE_CAP)
    p.set_defaults(func=cmd_huffman)

    p = sub.add_parser("check", help="property report for a code")
    p.add_argument("source")
    p.add_argument("code")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("swaps", help="swap closures and certificates")
    p.add_argument("source")
    p.add_argument("--from", dest="from_code", required=True)
    p.add_argument("--to", dest="to_code")
    p.add_argument("--kinds", default="parent,row,prob")
    p.add_argument("--cap", type=positive_int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_swaps)

    p = sub.add_parser("sync", help="shortest self-synchronizing string")
    p.add_argument("source")
    p.add_argument("code")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("verify", help="run the brute-force theorem checks")
    p.add_argument("source", nargs="?")
    p.add_argument("--corpus", action="store_true")
    p.add_argument("--max-n", type=positive_int,
                   default=ENUMERATION_MAX_SYMBOLS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (AlphabetTooLarge, CapExceeded, SubsetCapExceeded,
            Truncated) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    except ConsistencyError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except CodeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
