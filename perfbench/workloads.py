"""Seeded inputs, the calls that time them, and the checks on their answers.

Every op is rebuilt from ``(workload, seed, index)`` alone, so a run, a
replay under the tracer and the self-tests see byte-identical inputs.  An
op's expected answer is computed by ``oracles`` when the op is built, which
is always before its timed call starts.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles as o

REASONS = {
    "exhaustive": "the paper's three cross-check jobs as fresh tgk processes: tamari, game and perm do the work, the big-tree poly and tree paths none",
    "big-trees": "one large tree or permutation per cli.main call: tree parse and format, the poly product, geometry and game; no lattice or tamari",
    "small-queries": "many library calls on small repeated inputs: per-call cost, the lru caches and materialized lattices decide",
}

# The three cross-check jobs the paper is about, run in turn as ``tgk <argv>``.
JOBS = (
    ("verify", lambda seed: ["verify", "--n", "7", "--seed", str(seed), "--json"]),
    ("seq", lambda seed: ["seq", "--n", "10", "--all-methods", "--json"]),
    ("tamari-verify", lambda seed: ["tamari-verify", "--n", "8", "--json"]),
)
SEQUENCE = [1, 0, 1, 1, 8, 26, 194, 1142, 9736, 81384]


def check_job(kind: str, code: int, stdout: str) -> str | None:
    """None when a job's exit code and JSON document are right."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    if kind == "seq":
        if doc.get("agree") is not True:
            return "methods disagree"
        methods = doc.get("methods", {})
        bad = [m for m, values in methods.items() if values != SEQUENCE]
        if len(methods) != 5 or bad:
            return f"sequence mismatch in {bad or 'method list'}"
        return None
    checks = doc.get("checks") or []
    if doc.get("ok") is not True or not checks or not all(c.get("passed") for c in checks):
        return "a check did not pass"
    if kind == "tamari-verify" and doc.get("n") != 8:
        return "wrong size"
    return None


@dataclass
class Op:
    index: int
    kind: str  # the command or library call
    cls: str  # input class: shallow or deep in big-trees, small otherwise
    shape: str
    depth: int
    inputs: str  # what the program receives, for reproducibility checks
    call: Callable  # call(api) -> result; the only timed part
    check: Callable  # check(result) -> None, or what was wrong


SIZE_LEVELS = 8
# Ops per kind that cover the size range once; a latency summary keeps
# whole cycles of each kind, so every level weighs the same.
CYCLE = {"exhaustive": 1, "big-trees": SIZE_LEVELS, "small-queries": 1}


def _spread(k: int) -> float:
    """Size quantile of a kind's k-th op: eight levels in bit-reversed order
    (0, 4, 2, 6, 1, 5, 3, 7), so any eight consecutive ops of a kind cover the
    size range evenly and every stretch of a run sees the same mix.  Sizes
    do not depend on the seed; the shapes and permutations drawn do."""
    level = int(f"{k % SIZE_LEVELS:03b}"[::-1], 2)
    return (level + 0.5) / SIZE_LEVELS


def _expect_equal(want):
    def check(got):
        return None if got == want else f"expected {str(want)[:120]!r}, got {str(got)[:120]!r}"

    return check


# ---------------------------------------------------------------------------
# big-trees


TREE_COMMANDS = ("phi", "winner", "euler", "label")
COMMANDS = TREE_COMMANDS + ("gamma", "gamma-inv")
DEEP_EVERY = 10  # op indices 9, 19, 29, ... are deep-class probes
SHALLOW_MAX_DEPTH = 120
DEEP_MIN_DEPTH = 500


def _random_attachment(n: int, rng: random.Random) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[rng.randrange(v)].append(v)
    return o.parse_plane(o.plane_text(kids))


def _caterpillar(spine: int, total: int, rng: random.Random) -> list[list[int]]:
    """A path of ``spine`` edges with leaves hung on either side of it."""
    kids: list[list[int]] = [[] for _ in range(spine + 1)]
    for v in range(spine):
        kids[v].append(v + 1)
    for _ in range(total - spine - 1):
        v = rng.randrange(spine + 1)
        leaf = len(kids)
        kids.append([])
        kids[v].insert(rng.randrange(len(kids[v]) + 1), leaf)
    return o.parse_plane(o.plane_text(kids))


def _tree(shape: str, u: float, rng: random.Random) -> list[list[int]]:
    if shape == "random":
        return _random_attachment(round(100 * 20**u), rng)
    if shape == "star":
        n = round(100 * 10**u)
        return [list(range(1, n))] + [[] for _ in range(n - 1)]
    if shape == "caterpillar":
        spine = 10 + round(110 * u)
        return _caterpillar(spine, round(100 * 20**u), rng)
    if shape == "path":
        n = 501 + round(2500 * u)
        return [[v + 1] for v in range(n - 1)] + [[]]
    if shape == "deep-caterpillar":
        spine = 500 + round(2500 * u)
        return _caterpillar(spine, spine + 1 + rng.randrange(spine // 4 + 1), rng)
    raise ValueError(shape)


def _cli_call(argv):
    def call(api):
        out = io.StringIO()
        with redirect_stdout(out):
            code = api.main(argv)
        return code, out.getvalue()

    return call


def _json_check(inner):
    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not one JSON document"
        return inner(doc)

    return check


def _phi_check(kids, text: str, rng: random.Random):
    n = len(kids)
    points = [rng.randrange(2, o.MOD) for _ in range(2)]
    want = [o.phi_mod(kids, x) for x in points]
    value = str(o.phi_at_minus_half(kids))

    def inner(doc):
        coeffs = doc.get("coefficients")
        if doc.get("tree") != text or doc.get("via") != "recursion":
            return "echoed tree or route differs"
        if not isinstance(coeffs, list) or len(coeffs) != n:
            return f"degree is not {n - 1}"
        if [o.eval_mod(coeffs, x) for x in points] != want:
            return "coefficients differ from the oracle product"
        if doc.get("eval") != {"q": "-1/2", "value": value}:
            return "value at -1/2 differs"
        return None

    return inner


def _euler_check(kids, text: str, rng: random.Random):
    n = len(kids)
    points = [rng.randrange(2, o.MOD) for _ in range(2)]
    want = [o.phi_mod(kids, x) for x in points]
    exact = {
        "tree": text,
        "chi_real": o.phi_at(kids, -1),
        "chi_complex": o.phi_at(kids, 1),
        "points": {"2": o.phi_at(kids, 2), "3": o.phi_at(kids, 3)},
    }

    def inner(doc):
        for key, value in exact.items():
            if doc.get(key) != value:
                return f"{key} differs"
        poincare = doc.get("poincare")
        if not isinstance(poincare, list) or len(poincare) != 2 * n - 1 or any(poincare[1::2]):
            return "poincare polynomial is not phi(q^2)"
        if [o.eval_mod(poincare[::2], x) for x in points] != want:
            return "poincare coefficients differ from the oracle product"
        return None

    return inner


def _winner_doc(kids, text: str) -> dict:
    loses = o.phi_minus_one(kids)
    move = next((k for k, c in enumerate(kids[0], start=1) if loses[c]), None)
    return {
        "command": "winner",
        "tree": text,
        "winner": "player2" if loses[0] else "player1",
        "move": move,
        "subtree": None if move is None else o.plane_text(kids, kids[0][move - 1]),
    }


def big_trees_op(seed: int, i: int) -> Op:
    rng = random.Random(f"big-trees/{seed}/{i}")
    deep = i % DEEP_EVERY == DEEP_EVERY - 1
    if deep:
        k = i // DEEP_EVERY
    else:
        k = i - i // DEEP_EVERY
    u = _spread(k // len(COMMANDS))
    command = COMMANDS[k % len(COMMANDS)]
    turn = k // len(COMMANDS)

    if command in TREE_COMMANDS:
        shapes = ("path", "deep-caterpillar") if deep else ("random", "star", "caterpillar")
        shape = shapes[turn % len(shapes)]
        kids = _tree(shape, u, rng)
        text = o.plane_text(kids)
        d = o.depth(kids)
        if command == "phi":
            argv = ["phi", "--tree", text, "--eval=-1/2"]
            inner = _phi_check(kids, text, rng)
        elif command == "euler":
            argv = ["euler", "--tree", text, "--q", "2", "--q", "3"]
            inner = _euler_check(kids, text, rng)
        elif command == "winner":
            argv = ["winner", "--tree", text]
            inner = _expect_equal(_winner_doc(kids, text))
        else:
            mode = ("eastpush", "westpop")[turn % 2]
            labels = o.eastpush_labels(kids) if mode == "eastpush" else o.westpop_labels(kids)
            argv = ["label", "--mode", mode, "--tree", text]
            inner = _expect_equal(
                {"command": "label", "mode": mode, "tree": text, "labeled": o.labeled_text(kids, labels)}
            )
    else:
        if deep:
            shape = "reversed-tail"
            n = 501 + round(2500 * u)
            p = (1, *range(n, 1, -1))
        else:
            shape = "random-perm"
            n = round(100 * 100**u)
            rest = list(range(2, n + 1))
            rng.shuffle(rest)
            p = (1, *rest)
        d = o.depth(o.shape_kids(o.increasing_tree(p)))
        ptext = o.perm_text(p)
        ttext = o.gamma_text(p)
        if command == "gamma":
            argv = ["gamma", "--perm", ptext]
            inner = _expect_equal({"command": "gamma", "perm": ptext, "tree": ttext})
        else:
            argv = ["gamma-inv", "--tree", ttext]
            labels, lkids = o.parse_labeled(ttext)
            want = o.perm_text(o.perm_of_labeling(labels, lkids))
            inner = _expect_equal({"command": "gamma-inv", "tree": ttext, "perm": want})
    if deep and d < DEEP_MIN_DEPTH or not deep and d > SHALLOW_MAX_DEPTH:
        raise AssertionError(f"big-trees op {i}: depth {d} is outside its class")
    cls = "deep" if deep else "shallow"
    argv.append("--json")
    return Op(i, command, cls, shape, d, " ".join(argv), _cli_call(argv), _json_check(inner))


# ---------------------------------------------------------------------------
# small-queries

SMALL_CALLS = (
    "game_polynomial",
    "game_polynomial_from_prunings",
    "rank_generating_function",
    "covers_above",
    "winner",
    "fiber",
    "tamari_join",
    "tamari_meet",
    "tamari_leq",
    "placements_match_prunings",
    "roundtrip",
    "avoids",
)
POOL = 128  # distinct trees and permutations per seed
SMALL_POOL = 32  # trees and permutations small enough for fiber and placements
HOT = 16  # half of all draws come from the first HOT entries of a pool
CANDIDATES = 31  # random trees drawn per pool slot


class Pool:
    """The seeded inputs small-queries draws from.  Each tree's tuple form
    is built once, so a repeated draw hands the program an equal object."""

    def __init__(self, seed: int):
        rng = random.Random(f"small-queries/{seed}/pool")
        self.trees = [self._typical_tree(5 + j % 15, rng) for j in range(POOL)]
        self.small_trees = [_random_attachment(5 + j % 3, rng) for j in range(SMALL_POOL)]
        self.perms = [self._perm(5 + j % 5, rng) for j in range(POOL)]
        self.small_perms = [self._perm(5 + j % 3, rng) for j in range(SMALL_POOL)]
        self.tuples = {}
        self.by_size: dict[int, list[int]] = {}
        for j, kids in enumerate(self.trees):
            self.by_size.setdefault(len(kids), []).append(j)

    @staticmethod
    def _typical_tree(n: int, rng: random.Random) -> list[list[int]]:
        """The tree with the median number of prunings among CANDIDATES
        random ones of n vertices.  The lattice calls cost about that number,
        which on 19 vertices ranges over three orders of magnitude; with one
        random tree per slot, the pool's few largest lattices set the
        lattice calls' 90th percentile, which spread 33-54% over seeds."""
        trees = [_random_attachment(n, rng) for _ in range(CANDIDATES)]
        trees.sort(key=lambda kids: (o.prunings(kids), o.plane_text(kids)))
        return trees[CANDIDATES // 2]

    @staticmethod
    def _perm(n: int, rng: random.Random) -> tuple[int, ...]:
        rest = list(range(2, n + 1))
        rng.shuffle(rest)
        return (1, *rest)

    def tree(self, kids):
        key = id(kids)
        if key not in self.tuples:
            self.tuples[key] = o.to_tuple(kids)
        return self.tuples[key]


def _draw(rng: random.Random, k: int) -> int:
    return rng.randrange(min(HOT, k)) if rng.random() < 0.5 else rng.randrange(k)


def _fiber_check(kids):
    size = o.fiber_size(kids)
    top = o.perm_of_labeling(o.eastpush_labels(kids), kids)
    bottom = o.perm_of_labeling(o.westpop_labels(kids), kids)

    def check(fib):
        members = fib.members
        if len(members) != size or len(set(members)) != size:
            return f"fiber has {len(members)} members, hook length formula gives {size}"
        if fib.top != top or fib.bottom != bottom:
            return "fiber extremes differ from the stack labelings"
        if not o.avoids(fib.top, 213) or not o.avoids(fib.bottom, 312):
            return "fiber extremes contain the forbidden pattern"
        for p in members:
            if o.shape_kids(o.increasing_tree(p)) != kids:
                return f"member {p} lies over another tree"
        return None

    return check


def small_queries_op(pool: Pool, seed: int, i: int) -> Op:
    rng = random.Random(f"small-queries/{seed}/{i}")
    kind = SMALL_CALLS[i % len(SMALL_CALLS)]
    if kind in ("fiber", "placements_match_prunings"):
        source = pool.small_trees if kind == "fiber" else pool.small_perms
    elif kind in ("roundtrip", "avoids"):
        source = pool.perms
    else:
        source = pool.trees
    item = source[_draw(rng, len(source))]

    if kind in ("roundtrip", "avoids", "placements_match_prunings"):
        p = item
        shape, d = f"perm-{len(p)}", o.depth(o.shape_kids(o.increasing_tree(p)))
        if kind == "roundtrip":
            want = (o.gamma_tuple(p), p)

            def call(api, p=p):
                lt = api.first_inversion_tree(p)
                return lt, api.perm_from_increasing_tree(lt)

        elif kind == "avoids":
            pattern = (213, 312)[i // len(SMALL_CALLS) % 2]
            want = o.avoids(p, pattern)

            def call(api, p=p, pattern=pattern):
                return api.avoids(p, pattern)

        else:
            want = True

            def call(api, p=p):
                return api.placements_match_prunings(p)

        return Op(i, kind, "small", shape, d, f"{kind} {p}", call, _expect_equal(want))

    kids = item
    t = pool.tree(kids)
    shape, d = f"tree-{len(kids)}", o.depth(kids)
    extra = ""
    if kind in ("game_polynomial", "game_polynomial_from_prunings", "rank_generating_function"):
        want = o.phi_coeffs(kids)

        def call(api, t=t, fn=kind):
            return list(getattr(api, fn)(t).coeffs)

        check = _expect_equal(want)
    elif kind == "covers_above":
        par = o.parents(kids)
        mask = 1
        for v in range(1, len(kids)):
            if mask >> par[v] & 1 and rng.random() < 0.5:
                mask |= 1 << v
        extra = hex(mask)
        want = (o.prunings(kids), o.covers_above(kids, mask))

        def call(api, t=t, mask=mask):
            lat = api.PruningLattice(t)
            return len(lat), api.covers_above(lat, mask)

        check = _expect_equal(want)
    elif kind == "winner":
        doc = _winner_doc(kids, "")
        want = (doc["winner"], doc["move"])

        def call(api, t=t):
            return api.winner(t).value, api.optimal_move(t)

        check = _expect_equal(want)
    elif kind == "fiber":

        def call(api, t=t):
            return api.fiber(t)

        check = _fiber_check(kids)
    else:
        same = pool.by_size[len(kids)]
        other = pool.trees[same[_draw(rng, len(same))]]
        u = pool.tree(other)
        extra = o.plane_text(other)
        fa, fb = o.fif(kids), o.fif(other)
        if kind == "tamari_leq":
            want = o.fif_join(fa, fb) == fb

            def call(api, t=t, u=u):
                return api.tamari_leq(api.from_tree(t), api.from_tree(u))

        else:
            merged = o.fif_join(fa, fb) if kind == "tamari_join" else o.fif_meet(fa, fb)
            want = (merged, o.tree_of_fif(merged))

            def call(api, t=t, u=u, fn=kind):
                e = getattr(api, fn)(api.from_tree(t), api.from_tree(u))
                return e.fif, e.tree

        check = _expect_equal(want)
    return Op(i, kind, "small", shape, d, f"{kind} {o.plane_text(kids)} {extra}", call, check)
