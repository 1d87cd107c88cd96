#!/usr/bin/env python3
"""Write the CLI output corpus to stdout, one JSON case per line.

Each case runs one command line through ``cli.main`` in process, once as
given and once with ``--json``, and records the exit code, stdout, stderr
and any warnings of both runs.  ``tests/test_cli_corpus.py`` replays every
case and demands the same record, so a change that alters any output shows
up as a diff of this file.  Regenerate it with

    PYTHONPATH=src python scripts/cli_corpus.py > tests/cli_corpus.jsonl

Two things are normalized.  A usage error is recorded by its exit code and
JSON ``kind`` alone, as argparse words its usage text differently across
Python versions.  A warning is recorded by its category and message, shown
every time, not by the file and line it names.  ``TGK_MAX_N`` is dropped,
so the corpus records the default caps.
"""

import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

from treegamekit import cli, seq
from treegamekit.perm import enumerate_fixing_one, format_permutation
from treegamekit.tree import first_inversion_tree, format_labeled_tree, format_plane_tree, plane_trees

ERRORS = [
    [],
    ["nosuch"],
    ["seq"],
    ["seq", "--n", "x"],
    ["avoid", "--pattern", "123", "--perm", "1,2,3"],
    ["gamma", "--perm", "2,1"],
    ["gamma-inv", "--tree", "1(3(2))"],
    ["phi", "--tree", "(()"],
    ["phi", "--tree", "()", "--eval", "1/0"],
    ["phi", "--tree", "(())", "--eval=1e4300"],
    ["montecarlo", "--tree", "()", "--q", "1/2"],
    ["seq", "--n", "21", "--method", "census"],
    ["stirling", "--n", "3", "--k", "5"],
    ["euler", "--tree", "(())", "--q", "6", "--strict"],
    ["tamari-join", "--a", "()", "--b", "(())"],
    # the text formats: whitespace, which the echo normalizes, and the exact message and position of each error
    ["winner", "--tree", "\t(\n()\u00a0(()\u3000())\t()\n)\u3000"],
    ["label", "--mode", "westpop", "--tree", "\u00a0(\t(()\n())\u3000()\u00a0) "],
    ["winner", "--tree", "(()())"],
    ["winner", "--tree", "() x"],
    ["winner", "--tree", "())"],
    ["winner", "--tree", ")("],
    ["gamma-inv", "--tree", "01(2)"],
    ["gamma-inv", "--tree", "1 (2)"],
    ["gamma-inv", "--tree", "1( 2 )"],
    ["gamma-inv", "--tree", "1(\u0662)"],
    ["gamma-inv", "--tree", "1(2))"],
    ["gamma-inv", "--tree", "1((2))"],
    ["gamma-inv", "--tree", "1(" + "7" * 4400 + ")"],
    ["gamma", "--perm", " 1, 3,2"],
    ["gamma", "--perm", "1,,2"],
    ["gamma", "--perm", "1,2,"],
    ["gamma", "--perm", "1,x"],
]


def path(n: int) -> str:
    return "(" * n + ")" * n


def star(n: int) -> str:
    return "(" + " ".join(["()"] * (n - 1)) + ")"


# Larger trees, written out here rather than drawn by the package: 9, 15
# and 40 vertices.
NINE = "((()) () (() (())) ())"
FIFTEEN = "((() ()) (((()))) (() () (())) (()))"
FORTY = f"({FIFTEEN} {NINE} {path(6)} {star(5)} () (() ()))"
SPACED_FORTY = FORTY.replace(" ", "\t\n")
# A 60-entry permutation and its first-inversion tree.
SIXTY = (
    "1,47,51,43,39,37,27,30,55,3,56,15,22,14,49,29,35,25,33,24,52,45,48,58,19,40,54,9,59,41,"
    "6,36,8,5,34,46,60,10,12,28,2,42,17,50,26,57,13,44,7,4,23,31,32,53,16,18,11,38,20,21"
)
SIXTY_TREE = (
    "1(2(3(27(37(39(43(47 51)))) 30 55) 5(6(9(14(15(56) 22) 19(24(25(29(49) 35) 33) 45(52) 48 58) 40 54) "
    "41(59)) 8(36)) 10(34 46 60) 12 28) 4(7(13(17(42) 26(50) 57) 44)) 11(16(23 31 32 53) 18) 20(38) 21)"
)

LARGER = [
    ["prunings", "--tree", star(21)],  # over the materialize limit
    ["prunings", "--tree", path(21)],
    ["prunings", "--tree", star(20)],  # count only, at the limit
    ["prunings", "--tree", path(20)],
    ["prunings", "--rgf", "--tree", path(20)],
    ["prunings", "--rgf", "--tree", star(12)],
    ["prunings", "--rgf", "--list", "--tree", NINE],
    *(
        argv
        for t in (FIFTEEN, FORTY)
        for argv in (
            ["label", "--mode", "eastpush", "--tree", t],
            ["label", "--mode", "westpop", "--tree", t],
            ["montecarlo", "--tree", t, "--q=-1/2", "--trials", "500"],
        )
    ),
    ["winner", "--tree", SPACED_FORTY],
    ["label", "--mode", "eastpush", "--tree", SPACED_FORTY],
    ["label", "--mode", "westpop", "--tree", SPACED_FORTY],
    ["gamma", "--perm", SIXTY],
    ["gamma-inv", "--tree", SIXTY_TREE],
    ["phi", "--via", "prunings", "--tree", star(21)],  # over the profile limit
    ["tamari-fiber", "--tree", f"({path(20)} {path(20)})"],
    ["tamari-fiber", "--tree", f"({path(60)} {path(60)})"],
    ["stirling", "--n", "-1"],
    ["euler", "--tree", "(() ())", "--q", "1000003", "--q", "1000004", "--q", "618970019642690137449562111"],
    # values of over a million digits, refused before they are computed
    ["phi", "--tree", path(300), "--eval=1e4299"],
    ["euler", "--tree", path(300), "--q", "2", "--q", str(2**14000)],
]


def cases():
    """Every command line of the corpus."""
    yield from (["verify", "--n", str(n)] for n in range(9))
    for n in range(13):
        yield from (["seq", "--n", str(n), "--method", method] for method in seq.METHODS)
        yield ["seq", "--n", str(n), "--all-methods"]
    yield from (["tamari-verify", "--n", str(n)] for n in range(10))
    yield from (["stirling", "--n", str(n)] for n in range(15))
    yield ["stirling", "--n", "6", "--k", "3"]
    for n in range(1, 6):
        trees = [format_plane_tree(t) for t in plane_trees(n)]
        for t, partner in zip(trees, trees[1:] + trees[:1]):
            yield ["label", "--mode", "eastpush", "--tree", t]
            yield ["label", "--mode", "westpop", "--tree", t]
            yield ["phi", "--tree", t, "--eval=-1/2"]
            yield ["phi", "--via", "prunings", "--tree", t]
            yield ["prunings", "--rgf", "--list", "--tree", t]
            yield ["winner", "--tree", t]
            yield ["tamari-fiber", "--tree", t]
            yield ["euler", "--tree", t, "--q", "2", "--q", "6"]
            yield ["montecarlo", "--tree", t, "--q=-1/2", "--trials", "500"]
            yield ["tamari-join", "--a", t, "--b", partner]
            yield ["tamari-meet", "--a", t, "--b", partner]
    for n in range(1, 6):
        for p in enumerate_fixing_one(n):
            text = format_permutation(p)
            yield ["gamma", "--perm", text]
            yield ["gamma-inv", "--tree", format_labeled_tree(first_inversion_tree(p))]
            yield ["avoid", "--pattern", "213", "--perm", text]
            yield ["avoid", "--pattern", "312", "--perm", text]
    yield from LARGER
    yield ["--version"]
    yield from ERRORS


def capture(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and warnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "warnings": shown}


def case(argv: list[str]) -> dict:
    """The corpus record of ``argv``, in text and under ``--json``."""
    text, as_json = capture(argv), capture([*argv, "--json"])
    if as_json["code"] == 2 and json.loads(as_json["stdout"])["kind"] == "usage":
        return {"argv": argv, "text": {"code": text["code"]}, "json": {"code": 2, "kind": "usage"}}
    return {"argv": argv, "text": text, "json": as_json}


def main() -> int:
    os.environ.pop("TGK_MAX_N", None)
    for argv in cases():
        print(json.dumps(case(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
