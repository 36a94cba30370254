import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import prefixcodes
from prefixcodes import Source, TiePolicy
from prefixcodes.cli import (build_parser, main, parse_code_text,
                             parse_source_text)
from prefixcodes.errors import (AlphabetTooLarge, CodeError,
                               ConsistencyError, NotComplete, ParseError)
from prefixcodes.swaps import swap_equivalent
from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / name)


class TestParsers:
    def test_weights_normalized(self):
        src = parse_source_text("x 3\ny 1\n")
        assert str(src.prob("x")) == "3/4"

    def test_fractions_and_comments(self):
        src = parse_source_text("# header\na 1/2\nb 1/2  # trailing\n")
        assert src.symbols == ("a", "b")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_source_text("a 1/2 extra\nb 1/2\n")

    def test_bad_sum(self):
        with pytest.raises(ParseError):
            parse_source_text("a 1/2\nb 1/3\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_source_text, "a 1/2\n\nb 1/2 x\n",
         "line 3: expected 'symbol value'"),
        (parse_source_text, "# only a comment\n\n", "empty source file"),
        (parse_source_text, "a 1/0\nb 1\n", "line 1: bad value '1/0'"),
        (parse_code_text, "a 0\nb  # no word\n",
         "line 2: expected 'symbol bitstring'"),
        (parse_code_text, "   \n# a 0\n", "empty code file"),
    ], ids=["source-fields", "source-empty", "source-value", "code-fields",
            "code-empty"])
    def test_messages(self, parse, text, message):
        with pytest.raises(ParseError, match="^%s$" % message):
            parse(text)

    @pytest.mark.parametrize("value, other, prob", [
        ("3", "1", "3/4"),
        ("3.0", "1", "3/4"),  # an integer weight, though not written as one
        ("1/3", "2/3", "1/3"),
        ("0.25", "0.75", "1/4"),
    ])
    def test_values(self, value, other, prob):
        src = parse_source_text("a %s\nb %s\n" % (value, other))
        assert str(src.prob("a")) == prob

    @pytest.mark.parametrize("value, message", [
        ("-1", "probability of 'a' is not positive"),
        ("1/0", "line 1: bad value '1/0'"),
        ("abc", "line 1: bad value 'abc'"),
        # digit separators, which `Fraction` reads only from Python 3.11 on
        ("1_000", "line 1: bad value '1_000'"),
        ("1/1_0", "line 1: bad value '1/1_0'"),
        ("0.2_5", "line 1: bad value '0.2_5'"),
    ])
    def test_bad_values(self, value, message):
        with pytest.raises(ParseError, match="^%s$" % message):
            parse_source_text("a %s\nb 3\n" % value)


def parse_by_fraction(value):
    """What `parse_source_text` gives for "a <value>" and "b 3" when
    `Fraction` reads every value: (weights, den) or the ParseError text."""
    try:
        if "_" in value:
            raise ValueError(value)
        frac = Fraction(value)
    except ValueError:
        return "line 1: bad value %r" % value
    try:
        if "/" not in value and frac.denominator == 1:
            source = Source.from_weights([("a", frac.numerator), ("b", 3)])
        else:
            source = Source([("a", frac), ("b", Fraction(3))])
    except CodeError as exc:
        return str(exc)
    return source.weights, source.den


class TestIntegerParse:
    """Plain ASCII digits skip `Fraction`; every value keeps its answer."""

    @pytest.mark.parametrize("value, answer", [
        ("7", ((7, 3), 10)),
        ("007", ((7, 3), 10)),
        ("+7", ((7, 3), 10)),
        ("7.0", ((7, 3), 10)),
        ("1e3", ((1000, 3), 1003)),
        ("\u0663", ((1, 1), 2)),  # ARABIC-INDIC DIGIT THREE
        ("\uff13", ((1, 1), 2)),  # FULLWIDTH DIGIT THREE
        ("\u00b2", "line 1: bad value '\u00b2'"),  # SUPERSCRIPT TWO
        ("0", "probability of 'a' is not positive"),
        ("1_000", "line 1: bad value '1_000'"),
    ])
    def test_matches_fraction_route(self, value, answer):
        assert parse_by_fraction(value) == answer
        try:
            source = parse_source_text("a %s\nb 3\n" % value)
        except ParseError as exc:
            assert str(exc) == answer
        else:
            assert (source.weights, source.den) == answer


class TestHuffmanCommand:
    def test_expected_length_line(self, capsys):
        assert main(["huffman", fx("ex3.src")]) == 0
        out = capsys.readouterr().out
        assert "expected length 15/8" in out

    def test_all_count(self, capsys):
        assert main(["huffman", fx("ex1.src"), "--all"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("8 Huffman trees")
        assert len(out.strip().splitlines()) == 9

    def test_json(self, capsys):
        assert main(["huffman", fx("ex1.src"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["expected_length"] == "7/4"
        assert sorted(data["lengths"].values()) == [1, 2, 3, 3]

    def test_dot(self, capsys):
        assert main(["huffman", fx("ex1.src"), "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '[label="0"]' in out and '[label="1"]' in out

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        # unescaped, the quote would end the label early, and the trailing
        # backslash would make the line break after it a backslash and an n
        path = tmp_path / "odd.src"
        path.write_text('a"b 1/2\nc\\ 1/2\n')
        assert main(["huffman", str(path), "--dot"]) == 0
        box = r'^  n\d+ \[shape=box label="((?:[^"\\]|\\.)*)"\];$'
        labels = re.findall(box, capsys.readouterr().out, re.M)
        unescaped = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
        assert sorted(re.sub(r"\\.", lambda m: unescaped[m.group()], label)
                      for label in labels) == ['a"b\n1/2', "c\\\n1/2"]

    def test_all_and_dot_is_input_error(self, capsys):
        # --dot is not dropped in silence: no tree is listed
        assert main(["huffman", fx("ex1.src"), "--all", "--dot"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "huffman --dot draws one tree, not --all" in err

    def test_dot_and_json_is_input_error(self, capsys):
        # --json is not dropped in silence: no DOT is printed
        assert main(["huffman", fx("ex1.src"), "--dot", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "huffman --dot prints DOT, not --json" in err

    def test_all_and_policy_is_input_error(self, capsys):
        # --all lists the trees of every policy; --policy is not dropped
        assert main(["huffman", fx("ex1.src"), "--all",
                     "--policy", "last-right"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "huffman --all covers every --policy" in err

    def test_policy_choices_are_the_tie_policies(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        policy = next(a for a in sub.choices["huffman"]._actions
                      if a.dest == "policy")
        assert policy.choices == [p.value for p in TiePolicy]

    def test_cap_without_all_is_input_error(self, capsys):
        # --cap bounds the --all listing; one tree is not silently built
        assert main(["huffman", fx("ex1.src"), "--cap", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "huffman --cap bounds --all, not one tree" in err

    def test_missing_file(self, capsys):
        assert main(["huffman", "/nonexistent.src"]) == 2

    def test_bad_source(self, tmp_path, capsys):
        bad = tmp_path / "bad.src"
        bad.write_text("a 1/2\nb 1/3\n")
        assert main(["huffman", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_source_not_utf8_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.src"
        bad.write_bytes("a 1\n\u00e9 1\n".encode("latin-1"))
        assert main(["huffman", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: %s: 'utf-8' codec can't "
                                       "decode byte 0xe9" % bad), captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_cap_guard(self, capsys):
        assert main(["huffman", fx("ex4.src"), "--all", "--cap", "1"]) == 3

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["huffman", fx("ex2.src"), "--all", "--cap", cap])
        assert exc.value.code == 2
        assert ("argument --cap: must be at least 1, got %s" % cap
                in capsys.readouterr().err)

    def test_all_on_ten_equiprobable_symbols(self, tmp_path, capsys):
        src = tmp_path / "u10.src"
        src.write_text("".join("s%d 1\n" % i for i in range(10)))
        assert main(["huffman", str(src), "--all"]) == 3
        assert ("distinct Huffman trees exceed cap 100000"
                in capsys.readouterr().err)


class TestCheckCommand:
    def test_optimal_code(self, capsys):
        assert main(["check", fx("ex3.src"), fx("ex3_h.code")]) == 0
        assert "optimal             True" in capsys.readouterr().out

    def test_suboptimal_code(self, capsys):
        assert main(["check", fx("ex3.src"), fx("ex3_c.code")]) == 1
        out = capsys.readouterr().out
        assert "strongly monotone   False" in out
        assert "violation: A={c,d} B={a} i=1 j=2" in out

    def test_json_witness(self, capsys):
        assert main(["check", fx("ex3.src"), fx("ex3_c.code"),
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["witness"] == {"A": ["c", "d"], "B": ["a"],
                                   "i": 1, "j": 2}
        assert data["expected_length"] == "2"
        assert data["huffman_length"] == "15/8"

    def test_alphabet_mismatch(self, capsys):
        assert main(["check", fx("ex3.src"), fx("ex5_h1.code")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("a 0\nb 01\nc 11\nd 10\n",
         "codeword of 'a' is a prefix of codeword of 'b'"),
        ("a 00\nb 01\na 10\nd 11\n", "duplicate symbol 'a'"),
    ], ids=["prefix", "duplicate"])
    def test_bad_code_file(self, tmp_path, capsys, text, message):
        code = tmp_path / "bad.code"
        code.write_text(text)
        assert main(["check", fx("ex3.src"), str(code)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message
        assert captured.out == ""

    def test_code_not_utf8_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.code"
        bad.write_bytes(b"a 00\nb 01\nc 10\nd 11 # \xff\n")
        assert main(["check", fx("ex3.src"), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: %s: 'utf-8' codec can't "
                                       "decode byte 0xff" % bad), captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestSwapsCommand:
    def test_certificate(self, capsys):
        assert main(["swaps", fx("ex4.src"),
                     "--from", fx("ex4_h1.code"),
                     "--to", fx("ex4_h2.code"),
                     "--kinds", "parent,prob"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            kind, rest = line.split(None, 1)
            assert kind in ("parent", "row", "prob")
            assert len(rest.split()) == 4

    def test_not_equivalent(self, capsys):
        assert main(["swaps", fx("ex4.src"),
                     "--from", fx("ex4_h1.code"),
                     "--to", fx("ex4_h2.code"),
                     "--kinds", "row"]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_closure_listing(self, capsys):
        assert main(["swaps", fx("ex1.src"),
                     "--from", fx("ex1_h1.code"),
                     "--kinds", "parent"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("closure size 8")

    def test_closure_json(self, capsys):
        assert main(["swaps", fx("ex1.src"),
                     "--from", fx("ex1_h1.code"),
                     "--kinds", "parent", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["size"] == 8
        assert not data["truncated"]

    def test_bad_kind(self, capsys):
        assert main(["swaps", fx("ex1.src"),
                     "--from", fx("ex1_h1.code"),
                     "--kinds", "bogus"]) == 2

    def test_cap_guard(self, capsys):
        assert main(["swaps", fx("ex4.src"),
                     "--from", fx("ex4_h1.code"),
                     "--to", fx("ex4_c.code"),
                     "--kinds", "parent,prob", "--cap", "2"]) == 3

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_input_error(self, cap, capsys):
        # the start tree is always recorded, so a closure needs cap >= 1
        for target in ([], ["--to", fx("ex4_h2.code")]):
            with pytest.raises(SystemExit) as exc:
                main(["swaps", fx("ex4.src"), "--from", fx("ex4_h1.code"),
                      "--kinds", "row", "--cap", cap] + target)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("argument --cap: must be at least 1, got %s" % cap
                    in captured.err)

    def test_certificate_that_ends_elsewhere_is_internal_error(
            self, monkeypatch, capsys):
        # every move replays cleanly, but the last tree is not the target
        def short(*args, **kwargs):
            return swap_equivalent(*args, **kwargs)[:-1]

        monkeypatch.setattr("prefixcodes.cli.swap_equivalent", short)
        assert main(["swaps", fx("ex4.src"),
                     "--from", fx("ex4_h1.code"),
                     "--to", fx("ex4_h2.code"),
                     "--kinds", "parent,prob"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("internal error: certificate does not end at the target"
                in captured.err)

    def test_certificate_cap_guard(self, capsys):
        # h2 is reachable, but not within 6 recorded trees
        assert main(["swaps", fx("ex4.src"),
                     "--from", fx("ex4_h1.code"),
                     "--to", fx("ex4_h2.code"),
                     "--kinds", "parent,prob", "--cap", "6"]) == 3


class TestSyncCommand:
    def test_witness(self, capsys):
        assert main(["sync", fx("ex1.src"), fx("ex1_h1.code")]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_none(self, capsys):
        assert main(["sync", fx("ex2.src"), fx("ex2_h2.code")]) == 1
        assert capsys.readouterr().out.strip() == "NONE"

    def test_json(self, capsys):
        assert main(["sync", fx("ex1.src"), fx("ex1_h2.code"),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"exists": True, "string": "00",
                        "explored_subsets": data["explored_subsets"]}

    def test_json_none(self, capsys):
        # `exists` stays a key of the JSON, false with a null string
        assert main(["sync", fx("ex2.src"), fx("ex2_h2.code"),
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data == {"exists": False, "string": None,
                        "explored_subsets": 11}

    def test_incomplete_code(self, tmp_path, capsys):
        src = tmp_path / "s.src"
        src.write_text("a 1/2\nb 1/2\n")
        code = tmp_path / "c.code"
        code.write_text("a 0\nb 10\n")
        assert main(["sync", str(src), str(code)]) == 2


class TestVerifyCommand:
    def test_single_source(self, capsys):
        assert main(["verify", fx("ex4.src")]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_json(self, capsys):
        assert main(["verify", fx("ex1.src"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["all_passed"]
        assert any(c["name"] == "huffman-achieves-minimum"
                   for c in data[0]["checks"])

    def test_too_many_symbols(self, tmp_path, capsys):
        src = tmp_path / "big.src"
        src.write_text("".join("s%d 1\n" % i for i in range(10)))
        assert main(["verify", str(src)]) == 3

    def test_needs_input(self, capsys):
        assert main(["verify"]) == 2

    def test_source_and_corpus_is_input_error(self, capsys):
        # neither input is dropped in silence: the corpus does not run
        assert main(["verify", fx("ex1.src"), "--corpus"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "verify needs a source file or --corpus, not both" in err

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_is_input_error(self, max_n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", fx("ex4.src"), "--max-n", max_n])
        assert exc.value.code == 2
        assert ("argument --max-n: must be at least 1, got %s" % max_n
                in capsys.readouterr().err)

    def test_corpus_stops_at_max_n(self, monkeypatch, capsys):
        # ninths5 trips the guard before any source is verified
        verified = []
        monkeypatch.setattr("prefixcodes.cli.verify_theorems",
                            verified.append)
        assert main(["verify", "--corpus", "--max-n", "4"]) == 3
        out, err = capsys.readouterr()
        assert "ninths5 has 5 symbols, limit 4" in err
        assert out == "" and verified == []


class TestExitCodes:
    @pytest.mark.parametrize("error, code, message", [
        (ConsistencyError("characterizations disagree"), 4,
         "internal error: characterizations disagree"),
        (RuntimeError("boom"), 4, "internal error: RuntimeError: boom"),
        (NotComplete("no sibling"), 2, "error: no sibling"),
        (AlphabetTooLarge("too many"), 3, "error: too many"),
    ], ids=["consistency", "unexpected", "input", "guard"])
    def test_classify_failure(self, monkeypatch, capsys, error, code,
                              message):
        def fail(source, code):
            raise error

        monkeypatch.setattr("prefixcodes.cli.classify", fail)
        assert main(["check", fx("ex3.src"), fx("ex3_h.code")]) == code
        assert message in capsys.readouterr().err


class TestDeepTrees:
    N = 1100

    def test_sync_on_caterpillar_hits_guard(self, tmp_path, capsys):
        src = tmp_path / "s.src"
        src.write_text("".join("s%d 1\n" % i for i in range(self.N)))
        code = tmp_path / "c.code"
        words = ["1" * i + "0" for i in range(self.N - 1)]
        words.append("1" * (self.N - 1))
        code.write_text("".join("s%d %s\n" % (i, w)
                                for i, w in enumerate(words)))
        assert main(["sync", str(src), str(code)]) == 3
        assert "internal nodes" in capsys.readouterr().err

    def test_sync_on_largest_caterpillar(self, tmp_path, capsys):
        # 1,025 symbols: 1,024 internal nodes, the most the search takes
        n = 1025
        src = tmp_path / "s.src"
        src.write_text("".join("s%d 1\n" % i for i in range(n)))
        code = tmp_path / "c.code"
        words = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1)]
        code.write_text("".join("s%d %s\n" % (i, w)
                                for i, w in enumerate(words)))
        assert main(["sync", str(src), str(code), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"exists": True, "string": "0",
                        "explored_subsets": 2}

    def dyadic_source(self, tmp_path):
        weights = [1] + [1 << k for k in range(self.N - 1)]
        src = tmp_path / "s.src"
        src.write_text("".join("s%d %d\n" % (i, w)
                               for i, w in enumerate(weights)))
        return str(src)

    def test_huffman_json_on_dyadic_weights(self, tmp_path, capsys):
        assert main(["huffman", self.dyadic_source(tmp_path), "--json"]) == 0
        lengths = json.loads(capsys.readouterr().out)["lengths"]
        assert lengths["s0"] == lengths["s1"] == self.N - 1
        assert max(lengths.values()) == self.N - 1

    def test_huffman_all_on_dyadic_weights_hits_cap(self, tmp_path, capsys):
        # the merge search runs 1,099 levels deep before the cap trips
        src = self.dyadic_source(tmp_path)
        assert main(["huffman", src, "--all", "--cap", "10"]) == 3
        assert "exceed cap 10" in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
    def test_huffman_all_on_dyadic_weights_fits_in_300_mb(self, tmp_path):
        # merge states are keyed on interned shapes, not on node labels
        # that grow with depth, so the default cap trips in bounded memory
        import resource

        def limit_memory():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(prefixcodes.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "prefixcodes.cli", "huffman",
             self.dyadic_source(tmp_path), "--all"],
            env=env, preexec_fn=limit_memory, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "exceed cap 100000" in proc.stderr
