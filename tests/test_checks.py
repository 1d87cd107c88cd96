"""Tests for the cross-identity suite and its reporting."""

import random
import re

from treegamekit import checks, game, lattice, perm, poly, report, tamari, tree
from treegamekit.checks import ALL_CHECKS, VerifyConfig, run_verify
from treegamekit.report import CheckResult


def quotient_oracle(n):
    """Definition-level quotient order on frozensets: class A is below
    class B when some member of A is weak-order below some member of B."""
    elements = [tamari.TamariElement.from_tree(t) for t in tree.plane_trees(n)]
    members = {e.fif: [] for e in elements}
    for p in perm.enumerate_fixing_one(n):
        members[perm.first_inversions(p)].append(perm.inversions(p))
    return [
        [any(ia <= ib for ia in members[a.fif] for ib in members[b.fif]) for b in elements]
        for a in elements
    ]


class TestReport:
    def test_pass_line(self):
        r = CheckResult("alpha", True, "n=4")
        assert r.line() == "CHECK alpha: PASS (n=4)"

    def test_fail_line(self):
        r = CheckResult("beta", False)
        assert r.line() == "CHECK beta: FAIL"

    def test_render_and_json(self):
        rs = [CheckResult("a", True, "x"), CheckResult("b", False, "y")]
        assert [r.line() for r in rs] == ["CHECK a: PASS (x)", "CHECK b: FAIL (y)"]
        blob = [r._asdict() for r in rs]
        assert blob[0] == {"name": "a", "passed": True, "details": "x"}
        assert list(blob[0]) == ["name", "passed", "details"]  # the order --json writes
        assert blob[1]["passed"] is False


class TestRunVerify:
    def test_all_checks_pass_small(self):
        cfg = VerifyConfig(n=4, samples=30, trials=1500)
        results = run_verify(cfg)
        assert len(results) == len(ALL_CHECKS)
        for r in results:
            assert r.passed, r.line()

    def test_names_are_distinct(self):
        cfg = VerifyConfig(n=3, samples=5, trials=200)
        names = [r.name for r in run_verify(cfg)]
        assert len(set(names)) == len(names)

    def test_config_defaults(self):
        cfg = VerifyConfig()
        assert cfg.n == 7
        assert cfg.samples == 200


class TestQuotientRows:
    def test_rows_are_the_definition(self):
        for n in range(1, 7):
            elements, index, above, below = checks._quotient_rows(n)
            assert [index[e.fif] for e in elements] == list(range(len(elements)))
            leq = quotient_oracle(n)
            for a in range(len(elements)):
                assert [bool(above[a] >> b & 1) for b in range(len(elements))] == leq[a], n
                assert [bool(below[a] >> b & 1) for b in range(len(elements))] == [row[a] for row in leq], n


def _result(name, n=5):
    """The result that ``run_verify`` reports under ``name``."""
    [result] = [r for r in run_verify(VerifyConfig(n=n, samples=5, trials=200)) if r.name == name]
    return result


class TestFaultInjection:
    """Each rewritten check fails once one of its routes is broken."""

    def test_checks_pass_unbroken(self):
        results = {r.name: r for r in run_verify(VerifyConfig(n=5, samples=5, trials=200))}
        for name in ("congruence", "join-meet-bruteforce", "separator-weight-identity", "signed-placements",
                     "pruning-sum", "winner-sign"):
            assert results[name].passed, results[name].line()

    def test_merged_fibers_fail_congruence(self, monkeypatch):
        real = tamari._first_inversions
        star, other = real((1, 2, 3, 4)), real((1, 2, 4, 3))
        monkeypatch.setattr(tamari, "_first_inversions", lambda p: other if real(p) == star else real(p))
        failed = {c.name for c in tamari.verify_congruence(4) if not c.passed}
        assert failed & {"fiber-interval", "fiber-hook-count"}
        result = _result("congruence")
        assert not result.passed and result.details.startswith("n=4: ")

    def test_join_swapped_for_meet_fails(self, monkeypatch):
        monkeypatch.setattr(tamari, "tamari_join", tamari.tamari_meet)
        result = _result("join-meet-bruteforce")
        assert not result.passed and "join mismatch" in result.details

    def test_shape_weight_off_by_one_fails(self, monkeypatch):
        real = tree.increasing_labelings
        path = tree.rooted_trees(4)[0]
        monkeypatch.setattr(tree, "increasing_labelings", lambda t: real(t) + (t == path))
        result = _result("separator-weight-identity")
        assert not result.passed and result.details == "n=4: shape weights sum to 7, not 3!"

    def test_shifted_shape_weight_fails_the_polynomial(self, monkeypatch):
        # one weight up and one down still sum to (n - 1)!; the polynomial differs
        real = tree.increasing_labelings
        path, star = tree.rooted_trees(4)[0], tree.rooted_trees(4)[-1]
        monkeypatch.setattr(tree, "increasing_labelings", lambda t: real(t) + (t == path) - (t == star))
        result = _result("separator-weight-identity")
        assert not result.passed and result.details.startswith("n=4: ")

    def test_flipped_sign_fails_signed_placements(self, monkeypatch):
        real = perm._signed_placements
        assert real((1, 3, 2)) == 1
        monkeypatch.setattr(perm, "_signed_placements", lambda p: -real(p) if p == (1, 3, 2) else real(p))
        result = _result("signed-placements")
        assert not result.passed and result.details == "n=3: signed total -1, expected 1"

    def test_wrong_pruning_route_fails_the_exhaustive_prefix(self, monkeypatch):
        # pruning-sum walks every rooted tree through its cap before any sample
        real = poly.game_polynomial_from_prunings
        broken = tree.rooted_trees(4)[1]
        monkeypatch.setattr(poly, "game_polynomial_from_prunings",
                            lambda t: real(t) + poly.Poly((1,)) if t == broken else real(t))
        result = _result("pruning-sum")
        assert not result.passed and result.details == f"routes disagree on {tree.format_plane_tree(broken)}"
        assert result.details == "routes disagree on ((() ()))"

    def test_wrong_winner_fails_on_samples(self, monkeypatch):
        # winner-sign has no exhaustive part: the first seeded sample fails it
        real = game.winner
        flipped = {game.Winner.FIRST: game.Winner.SECOND, game.Winner.SECOND: game.Winner.FIRST}
        monkeypatch.setattr(game, "winner", lambda t: flipped[real(t)])
        rng = random.Random(0)
        first = tree.random_plane_tree(rng.randint(1, 12), rng)
        result = _result("winner-sign")
        assert not result.passed and result.details == f"sign test disagrees on {tree.format_plane_tree(first)}"


class TestRunner:
    """The one loop behind every row of the table."""

    def test_exhaustive_route_stops_at_first_failure(self):
        seen = []

        def route(n):
            seen.append(n)
            return "broken at 2" if n == 2 else None

        check = checks._runner(checks.Route("probe", 5, route, "through n={n}"))
        assert check(VerifyConfig(n=7)) == CheckResult("probe", False, "broken at 2")
        assert seen == [1, 2]

    def test_exhaustive_route_pass_reads_the_capped_size(self):
        seen = []
        check = checks._runner(checks.Route("probe", 5, seen.append, "through n={n}"))
        assert check(VerifyConfig(n=7)) == CheckResult("probe", True, "through n=5")
        assert seen == [1, 2, 3, 4, 5]
        assert check(VerifyConfig(n=3)).details == "through n=3"

    def test_tree_route_sees_rooted_trees_then_samples(self):
        seen = []
        row = checks.Route("probe", 3, seen.append, "to {n} plus {samples}", sample_max=6)
        assert checks._runner(row)(VerifyConfig(n=7, seed=4, samples=3)).details == "to 3 plus 3"
        rng = random.Random(4)
        samples = [tree.random_plane_tree(rng.randint(1, 6), rng) for _ in range(3)]
        assert seen == [*tree.rooted_trees(1), *tree.rooted_trees(2), *tree.rooted_trees(3), *samples]

    def test_tree_route_stops_at_first_failure(self):
        seen = []

        def route(t):
            seen.append(t)
            return "broken" if len(seen) == 2 else None

        check = checks._runner(checks.Route("probe", 0, route, "{samples} samples", sample_max=12))
        assert check(VerifyConfig(samples=50)) == CheckResult("probe", False, "broken")
        assert len(seen) == 2


class TestTable:
    # perfbench/run.py keys its per-check timings by these names
    NAMES = [
        "sequence-methods",
        "stirling-row-sums",
        "separator-weight-identity",
        "signed-placements",
        "bijection-roundtrip",
        "pattern-bijections",
        "placements-lattice-iso",
        "congruence",
        "join-meet-bruteforce",
        "pruning-sum",
        "winner-sign",
        "euler-data",
        "monte-carlo",
    ]

    # every cap by value: raising one is a deliberate edit here, logged in CHANGES.md
    CAPS = {
        "stirling-row-sums": 200,
        "separator-weight-identity": 8,
        "signed-placements": 7,
        "bijection-roundtrip": 8,
        "pattern-bijections": 8,
        "placements-lattice-iso": 6,
        "congruence": 7,
        "join-meet-bruteforce": 6,
        "pruning-sum": 9,
        "winner-sign": 0,
        "euler-data": 0,
    }

    def test_caps_by_value(self):
        assert {row.name: row.cap for row in checks.ROUTES} == self.CAPS
        assert report.CENSUS_LIMIT == 20
        assert tamari.ENUMERATION_LIMIT == 8
        assert poly.MATERIALIZE_LIMIT == lattice.MATERIALIZE_LIMIT == 20

    def test_names_in_order(self):
        assert isinstance(ALL_CHECKS, tuple)
        cfg = VerifyConfig(n=2, samples=1, trials=100)
        assert [r.name for r in run_verify(cfg)] == self.NAMES
        assert [row.name for row in checks.ROUTES] == self.NAMES[1:-1]

    def test_pass_details_name_the_capped_size(self):
        for n in (250, 12, 3):  # 250 is above every cap
            results = {r.name: r for r in run_verify(VerifyConfig(n=n, samples=1, trials=100))}
            for name, cap in self.CAPS.items():
                if cap:
                    result = results[name]
                    assert result.passed, result.line()
                    assert str(min(n, cap)) in re.findall(r"\d+", result.details), result.line()
