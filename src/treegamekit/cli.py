"""Command-line front end (installed as ``tgk``).

Sixteen subcommands cover the sequence, the tree bijection and stack
labelings, pattern queries, game polynomials and winners, pruning
lattices, the Tamari quotient, cell-level geometry, Monte-Carlo
validation, and the cross-identity verify suite.  Exit codes: 0 on
success, 1 when a verification reports failure, 2 on usage or parse
errors.  ``--json`` switches any invocation to a single JSON document; on
an exit 2 that document is ``{"error", "kind"}``, with kind ``usage``
for a command line the parser cannot read and ``input`` for a value a
command refuses, and the message is still printed on stderr.
The environment variable ``TGK_MAX_N`` overrides the safety cap on the
enumeration-heavy subcommands: the tree census and congruence checks
refuse larger n, and a fiber with more than (TGK_MAX_N - 1)! members.

A process loads only the modules its command runs.  ``tree``, ``perm`` and
``report`` are loaded here, as every job needs them; the other modules are
bound by the package, set to load on their first attribute access, and the
parser reads none of them: ``--method`` names ``seq``'s methods itself,
and ``fractions`` is imported only to read a rational ``--eval`` or ``--q``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__, checks, game, geometry, lattice, poly, seq, tamari, tree
from .perm import _parse_integers, avoids, format_permutation, parse_permutation
from .report import CENSUS_LIMIT, VerifyConfig
from .tree import (
    format_labeled_tree,
    format_plane_tree,
    parse_labeled_tree,
    parse_plane_tree,
)

if TYPE_CHECKING:
    from fractions import Fraction

Handled = tuple[int, dict, list[str]]

_SEQ_METHODS = ("stirling", "egf", "census", "split", "complement")  # seq.METHODS, named without loading seq
VALUE_DIGITS_FACTOR = 10  # an evaluated value may have this many times the digits of an input


def _env_cap(default: int) -> int:
    raw = os.environ.get("TGK_MAX_N")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"TGK_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"TGK_MAX_N must be a positive integer, got {raw!r}")
    return cap


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _fraction(text: str) -> Fraction:
    """Read a rational as ``Fraction`` does, first refusing one whose
    numerator or denominator would have more digits than ``int(text)``
    accepts at the moment (a limit of 0 is none): ``Fraction`` scales by
    10**exponent with no digit limit."""
    from fractions import Fraction

    limit = _digit_limit()
    if limit and _scaled_digits(text) > limit:
        raise ValueError(f"rational number {text!r} would have over {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational number {text!r}") from None


def _digit_limit() -> int:
    """The most digits ``int(text)`` accepts at the moment; 0 is no limit."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _check_value_digits(polynomial: poly.Poly, q) -> None:
    """Refuse to evaluate ``polynomial`` of degree d at q = a/b, an int or
    a Fraction, when the value could have over ``VALUE_DIGITS_FACTOR``
    times the digits of ``_digit_limit`` (a limit of 0 is none).  The
    value's numerator and denominator divide sum c_j a^j b^(d-j) and b^d,
    both at most sum |c_j| * M^d for M = max(|a|, b), so neither has more
    than floor(log10 sum |c_j| + d log10 M) + 1 digits.  Writing an int
    takes time quadratic in its digits: 0.06 s for 43,000 and 50 s for
    1,290,000 (Python 3.11.7, 2 cores)."""
    cap = VALUE_DIGITS_FACTOR * _digit_limit()
    d = len(polynomial.coeffs) - 1
    m = max(abs(q.numerator), q.denominator)
    bound = int(math.log10(sum(map(abs, polynomial.coeffs))) + d * math.log10(m)) + 1
    if cap and bound > cap:
        raise ValueError(f"the value at q could have {bound} digits, over the cap of {cap}")


def _scaled_digits(text: str) -> int:
    """The digits of the longer of the numerator and denominator that
    ``Fraction`` builds from a decimal with an exponent, before reducing;
    0 for any other text, whose parts ``Fraction`` reads through ``int``."""
    form = re.fullmatch(r"\s*[-+]?(?=\.?\d)([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*", text)
    if form is None:
        return 0
    whole, point, exponent = (part.replace("_", "") for part in form.groups(""))
    try:
        shift = int(exponent)
    except ValueError:  # Fraction refuses it as well
        return 0
    return max(len((whole + point).lstrip("0")) + max(shift, 0), len(point) + max(-shift, 0) + 1)


@contextlib.contextmanager
def _exact_digits():
    """Write integers of any length.  The interpreter refuses to convert
    integers of over 4,300 digits to or from text, to keep parsing
    untrusted input cheap; the limit is lifted only while our own results
    are formatted, never while input is parsed."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # 3.10.7 and later
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


# ---------------------------------------------------------------------------
# handlers
#
# Each returns (exit code, JSON payload, text lines).  A payload's echo of
# the input tree is built only under --json, as text mode never prints it,
# and the text of a polynomial only without it, as JSON lists coefficients.


def _handle_seq(args) -> Handled:
    n = _positive("--n", args.n)
    cap = _env_cap(CENSUS_LIMIT)
    if (args.all_methods or args.method == "census") and n > cap:
        raise ValueError(f"census method is capped at n = {cap}; set TGK_MAX_N to raise it")
    if args.all_methods:
        table = seq.census_table(n, census_limit=cap)
        lines = []
        agree = True
        for i in range(1, n + 1):
            values = {m: table[m][i - 1] for m in seq.METHODS}
            if len(set(values.values())) == 1:
                lines.append(f"{i}\t{table['stirling'][i - 1]}\tOK")
            else:
                agree = False
                detail = ",".join(f"{m}={v}" for m, v in values.items())
                lines.append(f"{i}\t{detail}\tMISMATCH")
        payload = {"n": n, "methods": table, "agree": agree}
        return (0 if agree else 1), payload, lines
    values = seq.METHODS[args.method](n, cap)
    with _exact_digits():
        lines = [f"{i}\t{v}" for i, v in enumerate(values, start=1)]
    return 0, {"n": n, "method": args.method, "values": values}, lines


def _handle_stirling(args) -> Handled:
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if args.k is not None:
        value = seq.stirling_first(n, args.k)
        with _exact_digits():
            text = str(value)
        return 0, {"n": n, "k": args.k, "value": value}, [text]
    row = seq._stirling_row(n)
    with _exact_digits():
        lines = [f"{k}\t{v}" for k, v in enumerate(row)]
    return 0, {"n": n, "row": row}, lines


def _handle_gamma(args) -> Handled:
    p = _parse_integers(args.perm)
    text = format_labeled_tree(tree.first_inversion_tree(p))  # which checks p the one time
    return 0, {"perm": format_permutation(p) if args.json else None, "tree": text}, [text]


def _handle_gamma_inv(args) -> Handled:
    lt = parse_labeled_tree(args.tree)
    p = tree.perm_from_increasing_tree(lt)
    text = format_permutation(p)
    return 0, {"tree": format_labeled_tree(lt) if args.json else None, "perm": text}, [text]


def _handle_label(args) -> Handled:
    t = parse_plane_tree(args.tree)
    labeled = tree.eastpush_labeling(t) if args.mode == "eastpush" else tree.westpop_labeling(t)
    text = format_labeled_tree(labeled)
    payload = {
        "mode": args.mode,
        "tree": format_plane_tree(t) if args.json else None,
        "labeled": text,
    }
    return 0, payload, [text]


def _handle_avoid(args) -> Handled:
    p = parse_permutation(args.perm)
    result = avoids(p, int(args.pattern))
    payload = {
        "perm": format_permutation(p),
        "pattern": int(args.pattern),
        "avoids": result,
    }
    return 0, payload, ["true" if result else "false"]


def _handle_phi(args) -> Handled:
    t = parse_plane_tree(args.tree)
    if args.via == "prunings":
        polynomial = poly.game_polynomial_from_prunings(t)
    else:
        polynomial = poly.game_polynomial(t)
    q = None if args.eval is None else _fraction(args.eval)
    if q is not None:
        _check_value_digits(polynomial, q)
    payload = {
        "tree": format_plane_tree(t) if args.json else None,
        "via": args.via,
        "coefficients": list(polynomial.coeffs),
    }
    with _exact_digits():
        lines = [] if args.json else [str(polynomial)]
        if q is not None:
            value = str(polynomial(q))  # a Fraction, which prints as an int when it is one
            lines.append(f"value at q={q}: {value}")
            payload["eval"] = {"q": str(q), "value": value}
    return 0, payload, lines


def _handle_prunings(args) -> Handled:
    t = parse_plane_tree(args.tree)
    lat = lattice.PruningLattice(t)
    lines = [f"count\t{len(lat)}"]
    payload = {"tree": format_plane_tree(t) if args.json else None, "count": len(lat)}
    if args.rgf:
        polynomial = lat.rank_polynomial()
        lines.append(f"rgf\t{polynomial}")
        payload["rgf"] = list(polynomial.coeffs)
    if args.list:
        entries = []
        for mask in lat:
            pruned = format_plane_tree(lat.pruned_subtree(mask))
            lines.append(f"{lat.rank(mask)}\t{pruned}")
            entries.append({"rank": lat.rank(mask), "mask": hex(mask), "tree": pruned})
        payload["prunings"] = entries
    return 0, payload, lines


def _handle_winner(args) -> Handled:
    t = parse_plane_tree(args.tree)
    who = game.winner(t)
    move = game.optimal_move(t)
    lines = [who.value]
    children = [format_plane_tree(child) if child else "()" for child in t] if args.json else None
    subtree = None
    if move is not None:
        subtree = children[move - 1] if args.json else format_plane_tree(t[move - 1])
        lines.append(f"move {move} {subtree}")
    payload = {
        "tree": f"({' '.join(children)})" if args.json else None,
        "winner": who.value,
        "move": move,
        "subtree": subtree,
    }
    return 0, payload, lines


def _handle_tamari_fiber(args) -> Handled:
    t = parse_plane_tree(args.tree)
    fib = tamari.fiber(t, limit=_env_cap(tamari.ENUMERATION_LIMIT))
    payload = {
        "tree": format_plane_tree(t) if args.json else None,
        "top": format_permutation(fib.top),
        "bottom": format_permutation(fib.bottom),
        "members": [format_permutation(p) for p in fib.members],
    }
    lines = [f"top\t{payload['top']}", f"bottom\t{payload['bottom']}", f"size\t{len(fib.members)}"]
    lines.extend(f"member\t{member}" for member in payload["members"])
    return 0, payload, lines


def _handle_tamari_op(args) -> Handled:
    op = tamari.tamari_join if args.command == "tamari-join" else tamari.tamari_meet
    a = tamari.TamariElement.from_tree(parse_plane_tree(args.a))
    b = tamari.TamariElement.from_tree(parse_plane_tree(args.b))
    result = op(a, b)
    text = format_plane_tree(result.tree)
    payload = {"a": args.a, "b": args.b, "tree": text, "fif": list(result.fif)}
    return 0, payload, [text]


def _checked(results, **head) -> Handled:
    """Exit 1 when any check failed; the payload is ``head``, then ``ok``
    and the checks, and there is one line per check."""
    ok = all(r.passed for r in results)
    payload = {**head, "ok": ok, "checks": [r._asdict() for r in results]}
    return (0 if ok else 1), payload, [r.line() for r in results]


def _handle_tamari_verify(args) -> Handled:
    n = _positive("--n", args.n)
    return _checked(tamari.verify_congruence(n, limit=_env_cap(tamari.ENUMERATION_LIMIT)), n=n)


def _handle_euler(args) -> Handled:
    t = parse_plane_tree(args.tree)
    phi = poly.game_polynomial(t)
    chi_r = geometry.euler_characteristic_real(phi)
    chi_c = geometry.euler_characteristic_complex(phi)
    poincare = geometry.poincare_polynomial(phi)
    payload = {
        "tree": format_plane_tree(t) if args.json else None,
        "chi_real": chi_r,
        "chi_complex": chi_c,
        "poincare": list(poincare.coeffs),
    }
    for q in args.q or ():
        _check_value_digits(phi, q)
    with _exact_digits():  # argparse has read --q under the limit
        lines = [] if args.json else [f"chi_real\t{chi_r}", f"chi_complex\t{chi_c}", f"poincare\t{poincare}"]
        if args.q:
            points = {}
            for q in args.q:
                value = geometry.point_count(phi, q, strict=args.strict)
                points[str(q)] = value
                lines.append(f"points({q})\t{value}")
            payload["points"] = points
    return 0, payload, lines


def _handle_montecarlo(args) -> Handled:
    t = parse_plane_tree(args.tree)
    q = _fraction(args.q)
    trials = _positive("--trials", args.trials)
    empirical = poly.event_frequency(t, q, trials=trials, seed=args.seed)
    exact = float(poly.game_polynomial(t)(q))
    error = abs(empirical - exact)
    lines = [f"empirical\t{empirical:.6f}", f"exact\t{exact:.6f}", f"abs_error\t{error:.6f}"]
    payload = {
        "tree": format_plane_tree(t) if args.json else None,
        "q": str(q),
        "trials": trials,
        "seed": args.seed,
        "empirical": empirical,
        "exact": exact,
        "abs_error": error,
    }
    return 0, payload, lines


def _handle_verify(args) -> Handled:
    cfg = VerifyConfig(
        n=_positive("--n", args.n),
        seed=args.seed,
        samples=_positive("--samples", args.samples),
        trials=_positive("--trials", args.trials),
        census_limit=_env_cap(CENSUS_LIMIT),
    )
    code, payload, lines = _checked(checks.run_verify(cfg))
    lines.append(f"VERIFY: {'PASS' if payload['ok'] else 'FAIL'}")
    return code, payload, lines


# ---------------------------------------------------------------------------
# parser


class _UsageError(Exception):
    """A command line a parser could not read; ``parser`` is the one whose
    usage ``argparse`` would print with the message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        exc = _UsageError(message)
        exc.parser = self
        raise exc


@functools.lru_cache(maxsize=32)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``tgk`` parser of every subcommand, or of ``command`` alone,
    built on the first call for each and shared by every later one in the
    process.  It takes no input but the name, so it is a constant of the
    program, and ``parse_args`` reads it without changing it: each call gets
    a fresh namespace.  The cache holds one parser per name, 32 at most."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON document instead of text")

    parser = _Parser(prog="tgk", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON document instead of text")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help):
        if command not in (None, name):  # take the arguments of a subcommand not built, and drop them
            return argparse.Namespace(add_argument=lambda *args, **kwargs: None)
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    p = subcommand("seq", _handle_seq, "the census sequence, five ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=_SEQ_METHODS, default="stirling")
    p.add_argument("--all-methods", action="store_true")

    p = subcommand("stirling", _handle_stirling, "unsigned Stirling numbers, first kind")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = subcommand("gamma", _handle_gamma, "permutation to increasing tree")
    p.add_argument("--perm", required=True)

    p = subcommand("gamma-inv", _handle_gamma_inv, "increasing tree to permutation")
    p.add_argument("--tree", required=True)

    p = subcommand("label", _handle_label, "stack labelings of a plane tree")
    p.add_argument("--mode", choices=("eastpush", "westpop"), required=True)
    p.add_argument("--tree", required=True)

    p = subcommand("avoid", _handle_avoid, "pattern avoidance query")
    p.add_argument("--pattern", choices=("213", "312"), required=True)
    p.add_argument("--perm", required=True)

    p = subcommand("phi", _handle_phi, "game polynomial of a plane tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--via", choices=("recursion", "prunings"), default="recursion")
    p.add_argument("--eval", default=None, metavar="Q", help="also evaluate at a rational q")

    p = subcommand("prunings", _handle_prunings, "the pruning lattice of a plane tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--rgf", action="store_true", help="include the rank generating function")
    p.add_argument("--list", action="store_true", help="list every pruning")

    p = subcommand("winner", _handle_winner, "game winner and optimal move")
    p.add_argument("--tree", required=True)

    p = subcommand("tamari-fiber", _handle_tamari_fiber, "all permutations over a tree")
    p.add_argument("--tree", required=True)

    for name in ("tamari-join", "tamari-meet"):
        p = subcommand(name, _handle_tamari_op, f"{name.split('-')[1]} of two trees")
        p.add_argument("--a", required=True, metavar="TREE")
        p.add_argument("--b", required=True, metavar="TREE")

    p = subcommand("tamari-verify", _handle_tamari_verify, "congruence checks at size n")
    p.add_argument("--n", type=int, required=True)

    p = subcommand("euler", _handle_euler, "cell-level geometry of a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--q", type=int, action="append", help="also count points at q (repeatable)")
    p.add_argument("--strict", action="store_true", help="reject q that is not a prime power")

    p = subcommand("montecarlo", _handle_montecarlo, "empirical check of phi at q in [-1,0]")
    p.add_argument("--tree", required=True)
    p.add_argument("--q", required=True, help="rational in [-1, 0]; write fractions as --q=-1/2")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = subcommand("verify", _handle_verify, "run the cross-identity suite")
    defaults = VerifyConfig()
    p.add_argument("--n", type=int, default=defaults.n)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--trials", type=int, default=defaults.trials)

    return parser


def _error(message: str, kind: str, as_json: bool) -> int:
    """Exit 2: the message is on stderr already, and under --json one
    ``{"error", "kind"}`` document goes to stdout."""
    if as_json:
        print(json.dumps({"error": message, "kind": kind}))
    return 2


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Read ``argv`` with the parser of the command it names alone.  Help,
    a line that names no command and a line that this parser refuses go to
    the parser of every command, whose usage line lists them all; so what is
    printed is what that parser prints."""
    if not any(a.startswith("-h") or len(a) > 2 and "--help".startswith(a) for a in argv):
        command = next((a for a in argv if not a.startswith("-")), None)
        if command is not None:
            with contextlib.suppress(_UsageError):
                return build_parser(command).parse_args(argv)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)  # what argparse prints before it exits 2
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        # the line was not read, so look for --json, or a prefix argparse takes for it, by hand
        return _error(str(exc), "usage", any(a.startswith("--j") and "--json".startswith(a) for a in argv))
    except SystemExit as exc:  # --help and --version
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload, lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error(str(exc), "input", args.json)
    if args.json:
        with _exact_digits():
            print(json.dumps({"command": args.command, **payload}))
    else:
        for line in lines:
            print(line)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
