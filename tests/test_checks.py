"""Tests for the cross-identity suite and its reporting."""

from treegamekit import checks, perm, tamari, tree
from treegamekit.checks import ALL_CHECKS, VerifyConfig, run_verify
from treegamekit.report import CheckResult, render_lines, results_json


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
        assert render_lines(rs) == ["CHECK a: PASS (x)", "CHECK b: FAIL (y)"]
        blob = results_json(rs)
        assert blob[0] == {"name": "a", "passed": True, "details": "x"}
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


def _run(check, n=5):
    return check(VerifyConfig(n=n, samples=5, trials=200))


class TestFaultInjection:
    """Each rewritten check fails once one of its routes is broken."""

    def test_checks_pass_unbroken(self):
        for check in (checks._check_congruence, checks._check_join_meet,
                      checks._check_separator_weight, checks._check_signed_placements):
            assert _run(check).passed, check.__name__

    def test_merged_fibers_fail_congruence(self, monkeypatch):
        real = tamari.first_inversions
        star, other = real((1, 2, 3, 4)), real((1, 2, 4, 3))
        monkeypatch.setattr(tamari, "first_inversions", lambda p: other if real(p) == star else real(p))
        report = tamari.verify_congruence(4)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed & {"fiber-interval", "fiber-hook-count"}
        result = _run(checks._check_congruence)
        assert not result.passed and result.details.startswith("n=4: ")

    def test_join_swapped_for_meet_fails(self, monkeypatch):
        monkeypatch.setattr(tamari, "tamari_join", tamari.tamari_meet)
        result = _run(checks._check_join_meet)
        assert not result.passed and "join mismatch" in result.details

    def test_shape_weight_off_by_one_fails(self, monkeypatch):
        real = tree.increasing_labelings
        path = tree.rooted_trees(4)[0]
        monkeypatch.setattr(tree, "increasing_labelings", lambda t: real(t) + (t == path))
        result = _run(checks._check_separator_weight)
        assert not result.passed and result.details == "n=4: shape weights sum to 7, not 3!"

    def test_shifted_shape_weight_fails_the_polynomial(self, monkeypatch):
        # one weight up and one down still sum to (n - 1)!; the polynomial differs
        real = tree.increasing_labelings
        path, star = tree.rooted_trees(4)[0], tree.rooted_trees(4)[-1]
        monkeypatch.setattr(tree, "increasing_labelings", lambda t: real(t) + (t == path) - (t == star))
        result = _run(checks._check_separator_weight)
        assert not result.passed and result.details.startswith("n=4: ")

    def test_flipped_sign_fails_signed_placements(self, monkeypatch):
        real = perm._signed_placements
        assert real((1, 3, 2)) == 1
        monkeypatch.setattr(perm, "_signed_placements", lambda p: -real(p) if p == (1, 3, 2) else real(p))
        result = _run(checks._check_signed_placements)
        assert not result.passed and result.details == "n=3: signed total -1, expected 1"
