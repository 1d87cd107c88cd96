"""Self-tests for the benchmark: its oracles, its input generator and its checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The oracles are compared with the
program on small inputs; nothing here is part of a timed run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import unittest
from fractions import Fraction

import harness
import oracles as o
import run
import speed
import workloads as w

harness.import_treegamekit()

import treegamekit as tgk  # noqa: E402


def kids_of(t):
    return o.parse_plane(tgk.format_plane_tree(t))


def small_trees(max_n=7):
    for n in range(1, max_n + 1):
        yield from tgk.plane_trees(n)


def small_perms(max_n=7):
    for n in range(1, max_n + 1):
        yield from tgk.enumerate_fixing_one(n)


class OraclesAgreeWithTheProgram(unittest.TestCase):
    def test_text_round_trips(self):
        for t in small_trees():
            text = tgk.format_plane_tree(t)
            self.assertEqual(o.plane_text(o.parse_plane(text)), text)
            self.assertEqual(o.to_tuple(o.parse_plane(text)), t)
            self.assertEqual(o.tuple_size(t), len(o.parse_plane(text)))

    def test_game_polynomial_and_its_values(self):
        for t in small_trees():
            kids = kids_of(t)
            phi = tgk.game_polynomial(t)
            self.assertEqual(o.phi_coeffs(kids), list(phi.coeffs))
            for x in (-1, 1, 2, 3):
                self.assertEqual(o.phi_at(kids, x), phi(x))
            self.assertEqual(o.phi_at_minus_half(kids), phi(Fraction(-1, 2)))
            self.assertEqual(o.phi_mod(kids, 12345), o.eval_mod(phi.coeffs, 12345))
            self.assertEqual(o.prunings(kids), len(tgk.PruningLattice(t)))

    def test_winner_and_move(self):
        for t in small_trees():
            doc = w._winner_doc(kids_of(t), "")
            self.assertEqual(doc["winner"], tgk.winner(t).value)
            self.assertEqual(doc["move"], tgk.optimal_move(t))

    def test_stack_labelings(self):
        for t in small_trees():
            kids = kids_of(t)
            self.assertEqual(o.labeled_text(kids, o.eastpush_labels(kids)),
                             tgk.format_labeled_tree(tgk.eastpush_labeling(t)))
            self.assertEqual(o.labeled_text(kids, o.westpop_labels(kids)),
                             tgk.format_labeled_tree(tgk.westpop_labeling(t)))

    def test_first_inversion_bijection(self):
        for p in small_perms():
            self.assertEqual(tuple(o.first_inversions(p)), tgk.first_inversions(p))
            lt = tgk.first_inversion_tree(p)
            self.assertEqual(o.gamma_tuple(p), lt)
            text = o.gamma_text(p)
            self.assertEqual(text, tgk.format_labeled_tree(lt))
            labels, kids = o.parse_labeled(text)
            self.assertEqual(o.perm_of_labeling(labels, kids), p)
            self.assertEqual(o.shape_kids(o.increasing_tree(p)), kids_of(tgk.plane_shape(lt)))
            for pattern in (213, 312):
                self.assertEqual(o.avoids(p, pattern), tgk.avoids(p, pattern))

    def test_fibers(self):
        for t in small_trees(6):
            kids = kids_of(t)
            fib = tgk.fiber(t)
            self.assertEqual(o.fiber_size(kids), len(fib.members))
            self.assertIsNone(w._fiber_check(kids)(fib))

    def test_tamari(self):
        for n in range(1, 6):
            trees = tgk.plane_trees(n)
            for a, b in itertools.product(trees, repeat=2):
                ea, eb = tgk.TamariElement.from_tree(a), tgk.TamariElement.from_tree(b)
                fa, fb = o.fif(kids_of(a)), o.fif(kids_of(b))
                self.assertEqual(fa, ea.fif)
                self.assertEqual(o.tree_of_fif(fa), a)
                self.assertEqual(o.fif_join(fa, fb), tgk.tamari_join(ea, eb).fif)
                self.assertEqual(o.fif_meet(fa, fb), tgk.tamari_meet(ea, eb).fif)

    def test_covers(self):
        for t in small_trees(6):
            lat = tgk.PruningLattice(t)
            for mask in lat:
                self.assertEqual(o.covers_above(kids_of(t), mask), lat.covers_above(mask))


def _inputs(workload, seed, count):
    make = harness.op_source(workload, seed)
    return [make(i) for i in range(count)]


def _digest(ops) -> str:
    return hashlib.sha256("\n".join(op.inputs for op in ops).encode()).hexdigest()


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload, count in (("big-trees", 40), ("small-queries", 200)):
            first = _digest(_inputs(workload, 7, count))
            self.assertEqual(first, _digest(_inputs(workload, 7, count)))
            self.assertNotEqual(first, _digest(_inputs(workload, 8, count)))

    def test_depth_classes(self):
        for seed in (1, 2):
            ops = _inputs("big-trees", seed, 60)
            self.assertEqual({op.kind for op in ops if op.cls == "deep"}, set(w.COMMANDS))
            for op in ops:
                if op.cls == "shallow":
                    self.assertLessEqual(op.depth, w.SHALLOW_MAX_DEPTH, op.inputs[:80])
                else:
                    self.assertGreaterEqual(op.depth, w.DEEP_MIN_DEPTH, op.inputs[:80])

    def test_small_inputs_repeat(self):
        ops = _inputs("small-queries", 3, 600)
        self.assertLess(len({op.inputs for op in ops}), len(ops) * 0.8)


class Checks(unittest.TestCase):
    """The checks accept the program's answers and reject altered ones."""

    def test_big_trees(self):
        api = harness.make_api()
        for op in _inputs("big-trees", 5, 18):
            if op.cls == "deep":
                continue
            code, text = op.call(api)
            self.assertIsNone(op.check((code, text)), op.inputs[:80])
            self.assertIsNotNone(op.check((code, text.replace("1", "2", 1))), op.inputs[:80])
            self.assertIsNotNone(op.check((2, "")))

    def test_small_queries(self):
        api = harness.make_api()
        for op in _inputs("small-queries", 5, 48):
            self.assertIsNone(op.check(op.call(api)), op.inputs)

    def test_jobs(self):
        good = json.dumps({"agree": True, "methods": {m: w.SEQUENCE for m in "abcde"}})
        self.assertIsNone(w.check_job("seq", 0, good))
        self.assertIsNotNone(w.check_job("seq", 0, '{"agree": true, "methods": {}}'))
        self.assertIsNone(w.check_job("verify", 0, '{"ok": true, "checks": [{"passed": true}]}'))
        self.assertIsNotNone(w.check_job("verify", 0, '{"ok": true, "checks": [{"passed": false}]}'))
        self.assertIsNotNone(w.check_job("tamari-verify", 0, '{"n": 7, "ok": true, "checks": [{"passed": true}]}'))
        self.assertIsNotNone(w.check_job("tamari-verify", 1, ""))


class Statistics(unittest.TestCase):
    def test_beta_cdf(self):
        for x in (0.1, 0.5, 0.9):
            self.assertAlmostEqual(run.beta_cdf(1, 1, x), x, places=12)
            self.assertAlmostEqual(run.beta_cdf(2, 1, x), x * x, places=12)
            self.assertAlmostEqual(run.beta_cdf(3.5, 2.5, x), 1 - run.beta_cdf(2.5, 3.5, 1 - x), places=12)

    def test_hd_quantile(self):
        self.assertAlmostEqual(run.hd_quantile([4.0] * 9, 0.9), 4.0, places=12)
        self.assertEqual(run.hd_quantile([7.0], 0.5), 7.0)
        xs = [i / 2000 for i in range(2001)]
        for q in (0.5, 0.9):
            self.assertAlmostEqual(run.hd_quantile(xs, q), q, places=3)
        # Across a gap between two size levels it moves smoothly with one op.
        low, high = [1.0] * 24, [2.0] * 24
        self.assertLess(abs(run.hd_quantile(low + high, 0.5) - run.hd_quantile(low + high[1:] + [1.0], 0.5)), 0.2)

    def test_balanced_cycles(self):
        results = harness.Results()
        for i in range(21):
            results.add(harness.Record(i, "a" if i % 2 else "b", "shallow", "", 0.001, "ok"), results.t0)
        self.assertEqual({k: len(xs) for k, xs in results.latencies_ms(cycle=4).items()}, {"a": 8, "b": 8})

    def test_speed_scale(self):
        s = speed.Speed()
        s.at, s.loop_s = speed.array("d", [0.0, 1.0, 2.0]), speed.array("d", [0.004, 0.008, 0.004])
        self.assertAlmostEqual(s.scale(0.1, 0.5), 0.1 * 0.004 / 0.006)  # samples at 0 and 1
        self.assertAlmostEqual(s.scale(0.1, 2.5), 0.1)  # only the last sample
        self.assertAlmostEqual(s.scale_by_run(0.1, 0.0), 0.1 * 0.004 / 0.004)


class Tracer(unittest.TestCase):
    def test_traced_stream_matches_untraced(self):
        # The tracer rebinds names in the imported modules, so it runs in
        # its own process, as it does in a traced benchmark run.
        code = (
            "import harness, spans\n"
            "harness.import_treegamekit()\n"
            "plain = harness.run_stream('small-queries', 4, harness.make_api(), count=120)\n"
            "tr = spans.Tracer(); tr.install()\n"
            "traced = harness.run_stream('small-queries', 4, harness.make_api(tr), count=120, tracer=tr)\n"
            "s = tr.summary()\n"
            "assert len(plain) == len(traced) == 120\n"
            "assert not plain.failures and not traced.failures\n"
            "assert s['self_sum_err_s'] < 1e-9, s['self_sum_err_s']\n"
            "assert abs(sum(s['self_s'].values()) - s['root_s']) < 1e-6\n"
            "assert s['calls']['tamari'] and s['calls']['lattice'] and s['calls']['perm']\n"
            "assert s['counters']['lattice.prunings_materialized'] > 0\n"
            "assert s['counters']['perm.perms_enumerated'] > 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=harness.HERE, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()
