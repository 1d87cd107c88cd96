"""End-to-end tests of the command line front end."""

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import treegamekit
from treegamekit import cli, poly, tree
from treegamekit.checks import VerifyConfig
from treegamekit.cli import main
from treegamekit.geometry import MR_PROVEN_BELOW
from treegamekit.tamari import verify_congruence

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args):
    """``python *args`` in a fresh interpreter that imports the package
    from the same place as this one."""
    env = dict(os.environ)
    src = str(Path(treegamekit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no digit limit"
)


@contextlib.contextmanager
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestSeq:
    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "6", "--method", "stirling")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1\t1"
        assert lines[-1] == "6\t26"

    def test_long_stirling_run(self, capsys):
        # rows are asked for in ascending order, each built from the one
        # below it; n = 300 stays well under a second that way
        code, out, _ = run(capsys, "seq", "--n", "300")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 300
        assert lines[:8] == [f"{i}\t{v}" for i, v in enumerate([1, 0, 1, 1, 8, 26, 194, 1142], 1)]

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "6", "--all-methods")
        assert code == 0
        assert all(line.endswith("OK") for line in out.strip().splitlines())

    def test_census_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("TGK_MAX_N", raising=False)
        code, _, err = run(capsys, "seq", "--n", "21", "--method", "census")
        assert code == 2
        assert "TGK_MAX_N" in err

    def test_census_answers_up_to_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("TGK_MAX_N", raising=False)
        code, out, _ = run(capsys, "seq", "--n", "20", "--method", "census")
        assert code == 0
        assert out.strip().splitlines()[-1] == "20\t24314102888206464"

    def test_census_cap_can_be_raised(self, capsys, monkeypatch):
        monkeypatch.setenv("TGK_MAX_N", "8")
        code, out, _ = run(capsys, "seq", "--n", "8", "--method", "census")
        assert code == 0
        assert out.strip().splitlines()[-1] == "8\t1142"

    @pytest.mark.parametrize("raw", ["many", "0", "-3"])
    def test_bad_cap_value(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("TGK_MAX_N", raw)
        code, _, err = run(capsys, "seq", "--n", "9", "--method", "census")
        assert code == 2
        assert "TGK_MAX_N" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "seq", "--n", "4")
        assert code == 0
        blob = json.loads(out)
        assert blob["values"][-1] == 1


class TestStirling:
    def test_row(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "4")
        assert code == 0
        got = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert got == [0, 6, 11, 6, 1]

    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "6", "--k", "3")
        assert code == 0
        assert out.strip() == "225"

    @needs_digit_limit
    def test_values_past_the_digit_limit(self, capsys):
        # c(n, 1) = (n - 1)!, here 4,431 digits: past the 4,300 digits the
        # interpreter converts by default, which guards only input parsing
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "stirling", "--n", "1600", "--k", "1")
        assert (code, err) == (0, "")
        code, blob, err = run(capsys, "--json", "stirling", "--n", "1600", "--k", "1")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            want = str(math.factorial(1599))
            value = json.loads(blob)["value"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) > limit
        assert out == want + "\n"
        assert value == math.factorial(1599)

    def test_large_row_builds_without_recursion(self, capsys):
        # c(n, n - 1) = C(n, 2); n is past the interpreter's default
        # recursion limit, so the row must be built without recursing
        code, out, _ = run(capsys, "stirling", "--n", "1200", "--k", "1199")
        assert code == 0
        assert out.strip() == "719400"


class TestBijection:
    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "--perm", "1,6,2,3,5,7,4")
        assert code == 0
        assert out.strip() == "1(2(6) 3 4(5 7))"

    def test_gamma_inv(self, capsys):
        code, out, _ = run(capsys, "gamma-inv", "--tree", "1(2(6) 3 4(5 7))")
        assert code == 0
        assert out.strip() == "1,6,2,3,5,7,4"

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gamma", "--perm", "1,3,2,4")
        tree = out.strip()
        code2, out2, _ = run(capsys, "gamma-inv", "--tree", tree)
        assert (code, code2) == (0, 0)
        assert out2.strip() == "1,3,2,4"

    def test_bad_permutation(self, capsys):
        code, _, err = run(capsys, "gamma", "--perm", "1,2,2")
        assert code == 2
        assert err.startswith("error:")

    def test_permutation_must_fix_one(self, capsys):
        code, _, err = run(capsys, "gamma", "--perm", "2,1,3")
        assert code == 2
        assert err.startswith("error:")

    def test_superscript_label_is_a_grammar_error(self, capsys):
        code, out, err = run(capsys, "gamma-inv", "--tree", "1(\u00b2)")
        assert (code, out, err) == (2, "", "error: expected a label at position 2 in labelled-tree text\n")

    @needs_digit_limit
    def test_label_past_the_digit_limit_is_a_grammar_error(self, capsys):
        tree_text = "1(" + "9" * 5000 + ")"
        message = "label at position 2 is too long (5000 digits) in labelled-tree text"
        code, out, err = run(capsys, "gamma-inv", "--tree", tree_text)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "--json", "gamma-inv", "--tree", tree_text)
        assert (code, err) == (2, f"error: {message}\n")
        assert json.loads(out) == {"error": message, "kind": "input"}


class TestJsonErrors:
    """Under --json an exit 2 prints one {"error", "kind"} document on
    stdout; stderr is what it is without --json."""

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["seq", "--n", "x"], "usage"),
            (["seq"], "usage"),
            (["bogus"], "usage"),
            (["seq", "--n", "4", "--threads", "2"], "usage"),
            (["seq", "--n", "0"], "input"),
            (["phi", "--tree", "(()"], "input"),
            (["gamma-inv", "--tree", "1(3(2))"], "input"),
            (["tamari-verify", "--n", "9"], "input"),
        ],
    )
    def test_document_on_stdout_message_on_stderr(self, capsys, argv, kind):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err
        for flagged in (["--json", *argv], [*argv, "--json"]):
            code_json, out_json, err_json = run(capsys, *flagged)
            assert (code_json, err_json) == (2, err)
            doc = json.loads(out_json)
            assert list(doc) == ["error", "kind"] and doc["kind"] == kind
            assert doc["error"] in err

    def test_argparse_message_is_the_error(self, capsys):
        code, out, err = run(capsys, "--json", "seq", "--n", "x")
        assert code == 2
        assert json.loads(out) == {"error": "argument --n: invalid int value: 'x'", "kind": "usage"}
        assert err.startswith("usage: tgk seq") and err.endswith("tgk seq: error: argument --n: invalid int value: 'x'\n")

    def test_abbreviated_flag_counts(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "x", "--js")
        assert code == 2 and json.loads(out)["kind"] == "usage"

    def test_help_and_version_print_no_error(self, capsys):
        for argv in (["--json", "--version"], ["--json", "seq", "--help"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "error" not in out

    def test_bad_cap_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TGK_MAX_N", "x")
        code, out, err = run(capsys, "--json", "seq", "--n", "3", "--all-methods")
        assert code == 2 and err == "error: TGK_MAX_N must be an integer, got 'x'\n"
        assert json.loads(out) == {"error": "TGK_MAX_N must be an integer, got 'x'", "kind": "input"}


def _commands():
    return list(next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices)


HELP_AND_USAGE_ERRORS = [
    ["--help"],
    *([command, "--help"] for command in _commands()),
    [],
    ["nosuch"],
    ["seq", "--n", "3", "extra"],
    ["--json", "seq", "--n", "3", "extra"],
]


class TestParserPerCommand:
    """A process builds only its command's parser; what it prints for help
    and usage errors is what the parser of every command prints."""

    @pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_output_matches_the_full_parser(self, capsys, monkeypatch, argv):
        normal = run(capsys, *argv)
        full = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda *args: full)
        assert run(capsys, *argv) == normal
        assert normal[0] in (0, 2) and (normal[1] or normal[2])

    def test_a_command_line_builds_its_command_alone(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
        assert run(capsys, "seq", "--n", "3")[0] == 0
        assert run(capsys, "--json", "winner", "--tree", "(())")[0] == 0
        assert built == ["seq", "winner"]
        commands = next(a for a in real("seq")._actions if isinstance(a, argparse._SubParsersAction))
        assert list(commands.choices) == ["seq"]
        assert run(capsys, "seq", "--n", "x")[0] == 2  # refused, then worded by the parser of every command
        assert run(capsys, "seq", "-h")[0] == 0
        assert built[2:] == ["seq", None, None]


class TestLabelAndAvoid:
    def test_eastpush(self, capsys):
        code, out, _ = run(
            capsys, "label", "--tree", "((()) () (()()))", "--mode", "eastpush"
        )
        assert code == 0
        assert out.strip() == "1(2(7) 3 4(5 6))"

    def test_westpop(self, capsys):
        code, out, _ = run(
            capsys, "label", "--tree", "((()) () (()()))", "--mode", "westpop"
        )
        assert code == 0
        assert out.strip() == "1(2(3) 4 5(6 7))"

    def test_avoid_true_false(self, capsys):
        code, out, _ = run(
            capsys, "avoid", "--perm", "1,7,2,3,5,6,4", "--pattern", "213"
        )
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(
            capsys, "avoid", "--perm", "1,7,2,3,5,6,4", "--pattern", "312"
        )
        assert (code, out.strip()) == (0, "false")

    def test_avoid_long_permutation(self, capsys):
        # the stack pass is linear; a scan over all triples would take
        # hours at this length
        ident = ",".join(map(str, range(1, 5001)))
        late = ",".join(map(str, (1, 5000, *range(2, 5000))))  # 5000, 2, 3 is a 312
        start = time.perf_counter()
        code, out, _ = run(capsys, "avoid", "--perm", ident, "--pattern", "213")
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, "--json", "avoid", "--perm", late, "--pattern", "312")
        assert code == 0 and json.loads(out)["avoids"] is False
        assert time.perf_counter() - start < 1


class TestPhi:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "phi", "--tree", "(() (() ()))")
        assert code == 0
        assert out.strip() == "1 + 2*q + 3*q^2 + 3*q^3 + q^4"

    def test_routes_agree(self, capsys):
        _, a, _ = run(capsys, "phi", "--tree", "((()) ((()())))")
        _, b, _ = run(
            capsys, "phi", "--tree", "((()) ((()())))", "--via", "prunings"
        )
        assert a == b

    def test_routes_agree_on_largest_star(self, capsys):
        star = "(" + "()" * 19 + ")"
        code, a, _ = run(capsys, "phi", "--tree", star, "--via", "prunings")
        assert code == 0
        _, b, _ = run(capsys, "phi", "--tree", star)
        assert a == b

    def test_prunings_route_refuses_too_many_prunings(self, capsys):
        star = "(" + "()" * 20 + ")"
        code, out, err = run(capsys, "phi", "--tree", star, "--via", "prunings")
        assert code == 2
        assert out == ""
        assert "error:" in err and "1048576 prunings, over the cap of 2^19" in err

    def test_eval_fraction(self, capsys):
        code, out, _ = run(
            capsys, "phi", "--tree", "(() (() ()))", "--eval=-1/2"
        )
        assert code == 0
        assert "7/16" in out

    def test_eval_out_of_protocol_is_fine(self, capsys):
        code, out, _ = run(capsys, "phi", "--tree", "(() (() ()))", "--eval", "2")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("57")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "--json", "phi", "--tree", "(() (() ()))")
        blob = json.loads(out)
        assert blob["coefficients"] == [1, 2, 3, 3, 1]

    @needs_digit_limit
    def test_eval_past_the_digit_limit(self, capsys):
        # phi = 1 + q + q^2 at a 2,200-digit q has 4,400 digits: --eval is
        # read under the interpreter's 4,300-digit limit, the value written past it
        q = int("7" * 2200)
        code, out, err = run(capsys, "phi", "--tree", "((()))", f"--eval={q}")
        assert (code, err) == (0, "")
        code, blob, err = run(capsys, "--json", "phi", "--tree", "((()))", f"--eval={q}")
        assert (code, err) == (0, "")
        with no_digit_limit():
            want = str(1 + q + q * q)
        assert len(want) > sys.get_int_max_str_digits()
        assert out.splitlines() == ["1 + q + q^2", f"value at q={q}: {want}"]
        assert json.loads(blob)["eval"] == {"q": str(q), "value": want}

    @needs_digit_limit
    def test_exponent_at_the_digit_limit(self, capsys):
        # Fraction scales by 10**exponent with no limit of its own: 1e4299
        # has the 4,300 digits int() reads by default, and 1e-4299 a
        # denominator of that many
        limit = sys.get_int_max_str_digits()
        for q, want in ((f"1e{limit - 1}", 10 ** (limit - 1)), (f"1e-{limit - 1}", Fraction(1, 10 ** (limit - 1)))):
            code, blob, err = run(capsys, "--json", "phi", "--tree", "(())", f"--eval={q}")
            assert (code, err) == (0, "")
            with no_digit_limit():
                assert json.loads(blob)["eval"] == {"q": str(want), "value": str(1 + want)}

    @needs_digit_limit
    @pytest.mark.parametrize("flag", ["phi --eval", "montecarlo --q"])
    @pytest.mark.parametrize("exponent", ["e{}", "e-{}", "0.5e{}", "E+1000000"])
    def test_exponent_past_the_digit_limit_is_refused(self, capsys, flag, exponent):
        limit = sys.get_int_max_str_digits()
        q = "1" + exponent.format(limit)
        message = f"rational number {q!r} would have over {limit} digits"
        command, flag = flag.split()
        code, out, err = run(capsys, command, "--tree", "(())", f"{flag}={q}")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "--json", command, "--tree", "(())", f"{flag}={q}")
        assert (code, json.loads(out), err) == (2, {"error": message, "kind": "input"}, f"error: {message}\n")

    @needs_digit_limit
    def test_exponent_is_unlimited_without_a_digit_limit(self):
        with no_digit_limit():
            assert cli._fraction("3e4400") == 3 * 10**4400

    @needs_digit_limit
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_value_past_the_cap_is_refused(self, capsys, sign):
        # a path of n vertices has phi = 1 + q + ... + q^(n-1), whose value
        # at 10^(limit-1), or at its inverse, is bounded by
        # log10 n + (n-1)(limit-1) + 1 digits: within the cap of
        # VALUE_DIGITS_FACTOR * limit for n = factor + 1, past it for one
        # vertex more
        limit, factor = sys.get_int_max_str_digits(), cli.VALUE_DIGITS_FACTOR
        q = f"1e{sign}{limit - 1}"
        code, blob, err = run(capsys, "--json", "phi", "--tree", "(" * (factor + 1) + ")" * (factor + 1), f"--eval={q}")
        assert (code, err) == (0, "")
        with no_digit_limit():
            assert json.loads(blob)["eval"]["value"] == str(sum(Fraction(q) ** j for j in range(factor + 1)))
        bound = int(math.log10(factor + 2) + (factor + 1) * (limit - 1)) + 1
        message = f"the value at q could have {bound} digits, over the cap of {factor * limit}"
        for via in ("recursion", "prunings"):
            argv = ["phi", "--via", via, "--tree", "(" * (factor + 2) + ")" * (factor + 2), f"--eval={q}"]
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")
            code, out, err = run(capsys, "--json", *argv)
            assert (code, json.loads(out)) == (2, {"error": message, "kind": "input"})


class TestPrunings:
    def test_count_and_rgf(self, capsys):
        code, out, _ = run(
            capsys, "prunings", "--tree", "(() (() ()))", "--rgf"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "count\t10"
        assert lines[1] == "rgf\t1 + 2*q + 3*q^2 + 3*q^3 + q^4"

    def test_list(self, capsys):
        code, out, _ = run(capsys, "prunings", "--tree", "(()())", "--list")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "count\t4"
        entries = [line.split("\t") for line in lines[1:]]
        assert [e[0] for e in entries] == ["0", "1", "1", "2"]
        assert entries[0][1] == "()"
        assert entries[-1][1] == "(() ())"

    def test_too_large(self, capsys):
        path = "()"
        for _ in range(21):
            path = f"({path})"
        code, _, err = run(capsys, "prunings", "--tree", path, "--list")
        assert code == 2
        assert "error:" in err


class TestWinner:
    def test_first_player(self, capsys):
        code, out, _ = run(capsys, "winner", "--tree", "(() (() ()))")
        assert code == 0
        assert out.strip().splitlines() == ["player1", "move 1 ()"]

    def test_second_player(self, capsys):
        code, out, _ = run(capsys, "winner", "--tree", "((()))")
        assert code == 0
        assert out.strip() == "player2"


class TestTamari:
    def test_fiber(self, capsys):
        code, out, _ = run(
            capsys, "tamari-fiber", "--tree", "((()) () (()()))"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "top\t1,7,2,3,5,6,4"
        assert lines[1] == "bottom\t1,3,2,4,6,7,5"
        assert lines[2] == "size\t5"
        assert "member\t1,6,2,3,5,7,4" in lines

    def test_join_meet(self, capsys):
        code, out, _ = run(
            capsys, "tamari-join", "--a", "(() ())", "--b", "((()))"
        )
        assert (code, out.strip()) == (0, "((()))")
        code, out, _ = run(
            capsys, "tamari-meet", "--a", "(() ())", "--b", "((()))"
        )
        assert (code, out.strip()) == (0, "(() ())")

    def test_join_size_mismatch(self, capsys):
        code, _, err = run(capsys, "tamari-join", "--a", "()", "--b", "(())")
        assert code == 2
        assert "error:" in err

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "tamari-verify", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[3] == "CHECK fiber-hook-count: PASS (n=4)"
        assert all("PASS" in line for line in lines)

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "--json", "tamari-verify", "--n", "4")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_lines_and_json(self, capsys):
        # the report renders each check as tgk verify does
        checks = verify_congruence(4)
        _, out, _ = run(capsys, "tamari-verify", "--n", "4")
        lines = out.splitlines()
        assert all(line.startswith("CHECK ") and line.count("PASS") == 1 for line in lines)
        assert lines == [c.line() for c in checks]
        _, out, _ = run(capsys, "--json", "tamari-verify", "--n", "4")
        blob = json.loads(out)
        assert blob["n"] == 4
        assert blob["checks"] == [c._asdict() for c in checks]
        assert {c["name"] for c in blob["checks"]} == {
            "fiber-interval",
            "upper-projection-monotone",
            "lower-projection-monotone",
            "fiber-hook-count",
        }

    def test_fiber_of_a_small_tree_under_a_huge_cap(self, capsys, monkeypatch):
        # (TGK_MAX_N - 1)! is taken only for a tree with more vertices than
        # TGK_MAX_N; math.factorial(10**6) alone takes seconds
        monkeypatch.setenv("TGK_MAX_N", "10000000")
        start = time.perf_counter()
        code, out, err = run(capsys, "tamari-fiber", "--tree", "(())")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out == "top\t1,2\nbottom\t1,2\nsize\t1\nmember\t1,2\n"

    def test_verify_rejects_nonpositive_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TGK_MAX_N", "0")
        code, _, err = run(capsys, "tamari-verify", "--n", "3")
        assert code == 2
        assert err.strip() == "error: TGK_MAX_N must be a positive integer, got '0'"


class TestEuler:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "euler", "--tree", "(() (() ()))", "--q", "2")
        assert code == 0
        lines = dict(
            line.split("\t") for line in out.strip().splitlines()
        )
        assert lines["chi_real"] == "0"
        assert lines["chi_complex"] == "10"
        assert lines["points(2)"] == "57"

    def test_strict_non_prime_power(self, capsys):
        code, _, err = run(
            capsys,
            "euler",
            "--tree",
            "(() (() ()))",
            "--q",
            "6",
            "--strict",
        )
        assert code == 2
        assert "error:" in err

    def test_non_strict_warns_but_succeeds(self, capsys):
        with pytest.warns(UserWarning):
            code = main(
                ["euler", "--tree", "(() (() ()))", "--q", "6"]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "points(6)" in out

    def test_large_prime_q_answers_at_once(self, capsys):
        # 10**18 + 3 is prime; trial division up to its root ran for minutes
        q = 10**18 + 3
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "euler", "--tree", "(())", "--q", str(q), "--strict")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"points({q})\t{1 + q}"

    def test_uncertified_q(self, capsys):
        # 2^89 - 1 is prime, but past the bound below which the test is proven
        q = 2**89 - 1
        code, _, err = run(capsys, "euler", "--tree", "(())", "--q", str(q), "--strict")
        assert code == 2
        assert err == f"error: cannot certify that {q} is a prime power: " \
                      f"the primality test is proven only below {MR_PROVEN_BELOW}\n"
        with pytest.warns(UserWarning, match="could not be certified"):
            code, out, _ = run(capsys, "euler", "--tree", "(())", "--q", str(q))
        assert code == 0
        assert out.splitlines()[-1] == f"points({q})\t{1 + q}"

    @needs_digit_limit
    def test_points_past_the_digit_limit(self, capsys):
        # as for phi --eval: 1 + q + q^2 at a 2,200-digit q = 7 * 11..1,
        # which is no prime power, so each run also warns
        q = int("7" * 2200)
        with pytest.warns(UserWarning):
            code, out, err = run(capsys, "euler", "--tree", "((()))", "--q", str(q))
        assert (code, err) == (0, "")
        with pytest.warns(UserWarning):
            code, blob, err = run(capsys, "--json", "euler", "--tree", "((()))", "--q", str(q))
        assert (code, err) == (0, "")
        with no_digit_limit():
            want = str(1 + q + q * q)
            points = json.loads(blob)["points"]
        assert len(want) > sys.get_int_max_str_digits()
        assert out.splitlines()[-1] == f"points({q})\t{want}"
        assert points == {str(q): 1 + q + q * q}


class TestTextModeFormatting:
    # the payload echoes the input tree, which text mode never prints
    PLANE = "(() (() ()))"
    LABELED = "1(2(6) 3 4(5 7))"
    COMMANDS = [
        ["phi", "--tree", PLANE],
        ["winner", "--tree", PLANE],
        ["label", "--mode", "eastpush", "--tree", PLANE],
        ["euler", "--tree", PLANE, "--q", "2"],
        ["montecarlo", "--tree", PLANE, "--q=-1/2", "--trials", "10"],
        ["prunings", "--tree", PLANE],
        ["tamari-fiber", "--tree", PLANE],
        ["gamma-inv", "--tree", LABELED],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
    def test_input_tree_formatted_only_for_json(self, capsys, monkeypatch, argv):
        formatted = []

        def counting(fmt):
            def wrapper(t):
                formatted.append(t)
                return fmt(t)
            return wrapper

        monkeypatch.setattr(cli, "format_plane_tree", counting(tree.format_plane_tree))
        monkeypatch.setattr(cli, "format_labeled_tree", counting(tree.format_labeled_tree))
        text = argv[argv.index("--tree") + 1]
        given = tree.parse_labeled_tree(text) if argv[0] == "gamma-inv" else tree.parse_plane_tree(text)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert formatted.count(given) == 0
        formatted.clear()
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out)["tree"] == text
        if argv[0] == "winner":  # it joins its root's children, each formatted once, and reuses the move's
            assert formatted == [child for child in given if child]
        else:
            assert formatted.count(given) == 1

    # the payload lists a polynomial's coefficients, so --json never prints its text
    POLYNOMIAL_COMMANDS = [
        ["phi", "--tree", PLANE, "--eval=-1/2"],
        ["phi", "--tree", PLANE, "--via", "prunings"],
        ["euler", "--tree", PLANE, "--q", "2", "--q", "3"],
    ]

    @pytest.mark.parametrize("argv", POLYNOMIAL_COMMANDS, ids=["phi-eval", "phi-prunings", "euler"])
    def test_polynomial_text_built_only_for_text(self, capsys, monkeypatch, argv):
        written = []
        real = poly.Poly.__str__
        monkeypatch.setattr(poly.Poly, "__str__", lambda p: written.append(p) or real(p))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(written) == 1 and real(written[0]) in out
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and json.loads(out)["command"] == argv[0]
        assert len(written) == 1


class TestMonteCarlo:
    def test_deterministic(self, capsys):
        args = (
            "montecarlo",
            "--tree",
            "(() (() ()))",
            "--q=-1/2",
            "--trials",
            "2000",
        )
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b
        assert "abs_error" in a

    def test_close_to_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "montecarlo",
            "--tree",
            "(() (() ()))",
            "--q=-1/2",
            "--trials",
            "20000",
        )
        assert code == 0
        fields = dict(line.split("\t") for line in out.strip().splitlines())
        assert abs(float(fields["abs_error"])) < 0.03
        assert fields["exact"] == "0.437500"

    def test_rejects_positive_q(self, capsys):
        code, _, err = run(
            capsys, "montecarlo", "--tree", "(())", "--q", "0.5"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("q", ["1e400", "-1e400"])
    def test_rejects_q_past_the_float_range(self, capsys, q):
        # within the digit limit, but float() of it overflows
        code, out, err = run(capsys, "montecarlo", "--tree", "(())", f"--q={q}")
        assert (code, out) == (2, "")
        assert err.startswith("error: q must lie in [-1, 0], got ")


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--n",
            "3",
            "--samples",
            "10",
            "--trials",
            "500",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "VERIFY: PASS"
        assert all(line.startswith("CHECK ") for line in lines[:-1])

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "--json",
            "verify",
            "--n",
            "3",
            "--samples",
            "10",
            "--trials",
            "500",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["ok"] is True
        assert len(blob["checks"]) >= 10

    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["verify"])
        default = VerifyConfig()
        assert (args.n, args.seed, args.samples, args.trials) == (
            default.n, default.seed, default.samples, default.trials,
        )

    def test_rejects_nonpositive_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TGK_MAX_N", "-3")
        code, _, err = run(capsys, "verify", "--n", "3")
        assert code == 2
        assert err.strip() == "error: TGK_MAX_N must be a positive integer, got '-3'"


class TestHarness:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_threads_flag_rejected(self, capsys):
        # evaluation is serial, so there is no --threads to pass
        for command in ("seq", "verify"):
            code, out, err = run(capsys, command, "--n", "4", "--threads", "2")
            assert code == 2 and out == ""
            assert "unrecognized arguments: --threads 2" in err

    def test_threads_must_be_positive(self, capsys):
        # no value of --threads is accepted, a nonpositive one included
        code, out, err = run(capsys, "seq", "--n", "4", "--threads", "0")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --threads 0" in err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_print_what_fresh_processes_print(self, capsys):
        # every main call in a process shares one parser; none may leave in
        # it anything a later call sees, a parse error or a --json included
        tree_text = "(() (() ()))"
        sequence = [
            ["--json", "phi", "--tree", tree_text, "--eval=-1/2"],
            ["phi", "--tree", tree_text],
            ["phi", "--json", "--tree", tree_text],
            ["phi", "--tree", tree_text, "--via", "prunings"],
            ["seq", "--n", "x"],
            ["--json", "seq"],
            ["seq", "--n", "6"],
            ["euler", "--tree", tree_text, "--q", "4"],
            ["euler", "--tree", tree_text],
            ["verify", "--n", "3"],
        ]
        for argv in sequence:
            got = run(capsys, *argv)
            proc = run_fresh("-m", "treegamekit", *argv)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_module_entry_point(self):
        proc = run_fresh("-m", "treegamekit", "gamma", "--perm", "1,3,2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1(2(3))"

    def test_console_script(self):
        # Run the [project.scripts] target the way the wrapper that pip
        # generates for it does, so the declared entry point is exercised
        # without needing an installed ``tgk``.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["tgk"]
        wrapper = (
            "import importlib.metadata, sys; "
            "sys.exit(importlib.metadata.EntryPoint("
            f"'tgk', {target!r}, 'console_scripts').load()())"
        )
        proc = run_fresh("-c", wrapper, "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"tgk {treegamekit.__version__}"

    @pytest.mark.skipif(
        shutil.which("tgk") is None, reason="tgk is not installed on PATH"
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["tgk", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"tgk {treegamekit.__version__}"


# Deeper than the interpreter's recursion limit twice over, so that any
# walk that recursed once per level would fail on these inputs.
DEEP = 2 * sys.getrecursionlimit() + 1
HUGE = 100_000


def plane_path(n):
    """A path with n vertices, as plane-tree text."""
    return "(" * n + ")" * n


def labeled_path(n):
    """The increasing path 1(2(3(...(n)))) as labelled-tree text."""
    return "(".join(str(k) for k in range(1, n + 1)) + ")" * (n - 1)


def path_phi(n):
    """The game polynomial of an n-vertex path, 1 + q + ... + q^(n-1)."""
    return " + ".join(["1", "q", *(f"q^{d}" for d in range(2, n))][:n])


class TestDeepTrees:
    """Every tree-taking command answers, or exits 2 by a size cap, on
    inputs far deeper than the recursion limit, and never raises."""

    @pytest.mark.parametrize("via", ["recursion", "prunings"])
    def test_phi_on_a_deep_path(self, capsys, via):
        code, out, err = run(capsys, "phi", "--tree", plane_path(DEEP), "--via", via)
        assert (code, err) == (0, "")
        assert out == path_phi(DEEP) + "\n"

    @pytest.mark.parametrize("n", [DEEP, DEEP + 1])
    def test_winner_follows_edge_parity(self, capsys, n):
        code, out, _ = run(capsys, "winner", "--tree", plane_path(n))
        assert code == 0
        if (n - 1) % 2:
            assert out == f"player1\nmove 1 {plane_path(n - 1)}\n"
        else:
            assert out == "player2\n"

    def test_winner_examines_both_deep_children_twice(self, capsys):
        # each child is a path with an odd number of edges, a win for its
        # own mover, so the root's mover has to look at both and loses
        tree = "(" + plane_path(DEEP + 1) * 2 + ")"
        for _ in range(2):
            code, out, _ = run(capsys, "winner", "--tree", tree)
            assert (code, out) == (0, "player2\n")

    def test_euler_on_a_deep_path(self, capsys):
        code, out, _ = run(capsys, "euler", "--tree", plane_path(DEEP), "--q", "2")
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["chi_real"] == str(DEEP % 2)
        assert lines["chi_complex"] == str(DEEP)
        assert lines["points(2)"] == str(2**DEEP - 1)

    @pytest.mark.parametrize("mode", ["eastpush", "westpop"])
    def test_label_a_deep_path(self, capsys, mode):
        code, out, _ = run(capsys, "label", "--mode", mode, "--tree", plane_path(DEEP))
        assert (code, out) == (0, labeled_path(DEEP) + "\n")

    @pytest.mark.parametrize("command", ["prunings"])
    def test_capped_commands_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--tree", plane_path(DEEP))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and str(DEEP) in err

    def test_tamari_fiber_of_a_deep_path(self, capsys):
        # a path's fiber is its one decreasing labelling, whatever its depth
        member = ",".join(map(str, [1, *range(DEEP, 1, -1)]))
        code, out, err = run(capsys, "tamari-fiber", "--tree", plane_path(DEEP))
        assert (code, err) == (0, "")
        assert out == f"top\t{member}\nbottom\t{member}\nsize\t1\nmember\t{member}\n"

    def test_tamari_fiber_over_the_member_cap_exits_2(self, capsys):
        # a root over two 20-vertex paths: C(39, 20) members, refused before any is listed
        code, out, err = run(capsys, "tamari-fiber", "--tree", "(" + plane_path(20) * 2 + ")")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "68923264410" in err and "5040" in err

    def test_tamari_join_and_meet_of_deep_path_and_star(self, capsys):
        path, star = plane_path(DEEP), "(" + "()" * (DEEP - 1) + ")"
        code, out, _ = run(capsys, "tamari-join", "--a", path, "--b", star)
        assert (code, out) == (0, path + "\n")
        code, out, _ = run(capsys, "tamari-meet", "--a", path, "--b", star)
        assert (code, out) == (0, "(" + " ".join(["()"] * (DEEP - 1)) + ")\n")

    def test_montecarlo_walks_a_deep_path(self, capsys):
        # at q = -1 every coin comes up heads, so each trial walks the
        # whole path; the event holds when the edge count is even
        code, out, _ = run(capsys, "montecarlo", "--tree", plane_path(DEEP), "--q=-1", "--trials", "3")
        assert code == 0
        fields = dict(line.split("\t") for line in out.strip().splitlines())
        want = "1.000000" if (DEEP - 1) % 2 == 0 else "0.000000"
        assert fields["empirical"] == fields["exact"] == want

    @pytest.mark.parametrize("n", [DEEP, HUGE])
    def test_gamma_of_a_falling_tail_is_a_path(self, capsys, n):
        perm = ",".join(map(str, [1, *range(n, 1, -1)]))
        code, out, _ = run(capsys, "gamma", "--perm", perm)
        assert (code, out) == (0, labeled_path(n) + "\n")
        code, out, _ = run(capsys, "gamma-inv", "--tree", labeled_path(n))
        assert (code, out) == (0, perm + "\n")

    def test_gamma_of_the_identity_is_a_star(self, capsys):
        perm = ",".join(map(str, range(1, HUGE + 1)))
        star = "1(" + " ".join(map(str, range(2, HUGE + 1))) + ")"
        code, out, _ = run(capsys, "gamma", "--perm", perm)
        assert (code, out) == (0, star + "\n")
        code, out, _ = run(capsys, "gamma-inv", "--tree", star)
        assert (code, out) == (0, perm + "\n")

    @pytest.mark.parametrize("n", [HUGE, HUGE + 1])
    def test_winner_and_label_on_a_huge_path(self, capsys, n):
        tree = plane_path(n)
        code, out, _ = run(capsys, "winner", "--tree", tree)
        assert code == 0
        assert out == (f"player1\nmove 1 {plane_path(n - 1)}\n" if (n - 1) % 2 else "player2\n")
        code, out, _ = run(capsys, "label", "--mode", "westpop", "--tree", tree)
        assert (code, out) == (0, labeled_path(n) + "\n")

    def test_winner_and_label_on_a_huge_star(self, capsys):
        star = "(" + "()" * (HUGE - 1) + ")"
        code, out, _ = run(capsys, "winner", "--tree", star)
        assert (code, out) == (0, "player1\nmove 1 ()\n")
        code, out, _ = run(capsys, "label", "--mode", "eastpush", "--tree", star)
        assert (code, out) == (0, "1(" + " ".join(map(str, range(2, HUGE + 1))) + ")\n")
