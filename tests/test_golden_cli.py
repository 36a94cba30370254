"""Byte-for-byte golden test of the CLI's --json output and exit codes.

`golden_cli.json` maps a case id to the argv, exit code and stdout that
the command line produced for it; an stdout longer than `INLINE_MAX`
characters (the 34,560 Huffman trees of ex2) is stored as its SHA-256
digest instead.  Paths in argv are relative to the
repository root, which is where the cases run.  To regenerate the file
after a deliberate output change, run `python tests/test_golden_cli.py`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

POLICIES = ("first-left", "first-right", "last-left", "last-right")
KINDS = ("parent", "row", "prob")
INLINE_MAX = 64 * 1024


def cases():
    """(case id, argv) for every fixture-driven CLI invocation covered."""
    fixtures = ROOT / "fixtures"
    for src in sorted(fixtures.glob("*.src")):
        path = "fixtures/" + src.name
        for policy in POLICIES:
            yield ("huffman-%s-%s" % (src.stem, policy),
                   ["huffman", path, "--policy", policy, "--json"])
        yield ("huffman-%s-all" % src.stem, ["huffman", path, "--all", "--json"])
    for code in sorted(fixtures.glob("*.code")):
        src = "fixtures/%s.src" % code.stem.split("_")[0]
        path = "fixtures/" + code.name
        for cmd in ("check", "sync"):
            yield ("%s-%s" % (cmd, code.stem), [cmd, src, path, "--json"])
    for ex in ("ex4", "ex5"):
        for r in range(1, len(KINDS) + 1):
            for kinds in itertools.combinations(KINDS, r):
                kinds = ",".join(kinds)
                yield ("swaps-%s-%s" % (ex, kinds.replace(",", "-")),
                       ["swaps", "fixtures/%s.src" % ex,
                        "--from", "fixtures/%s_h1.code" % ex,
                        "--kinds", kinds, "--json"])
    for kinds in ("parent,prob", "parent,row,prob"):
        yield ("swaps-ex4-h1-to-h2-%s" % kinds.replace(",", "-"),
               ["swaps", "fixtures/ex4.src", "--from", "fixtures/ex4_h1.code",
                "--to", "fixtures/ex4_h2.code", "--kinds", kinds, "--json"])
    yield ("verify-ex4", ["verify", "fixtures/ex4.src", "--json"])
    yield ("verify-corpus", ["verify", "--corpus", "--json"])


def run(argv):
    from prefixcodes.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def record(code, out):
    """The golden entry fields for one run's exit code and stdout."""
    if len(out) > INLINE_MAX:
        return {"exit": code,
                "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    return {"exit": code, "stdout": out}


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    expected = GOLDEN_CASES[case]
    monkeypatch.chdir(ROOT)
    assert record(*run(expected["argv"])) == {
        k: v for k, v in expected.items() if k != "argv"}


def test_golden_covers_every_case():
    assert sorted(GOLDEN_CASES) == sorted(cid for cid, _ in cases())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    golden = {}
    for cid, argv in cases():
        golden[cid] = {"argv": argv, **record(*run(argv))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(golden), GOLDEN.name))
