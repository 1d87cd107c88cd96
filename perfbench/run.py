"""The treegamekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with run metadata, is also written to ``perfbench/out/``.

Workloads (see ``workloads.REASONS``): ``exhaustive`` runs the three
cross-check jobs in turn, one fresh ``python -m treegamekit`` process per
op; ``big-trees`` and ``small-queries`` make calls in this process.  Load is
a closed loop with one op in flight and at most one child process alive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time

import harness
import spans
import speed as sp
import workloads as w

WORKLOADS = tuple(w.REASONS)
CHECK_NAMES = (
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
)
# Report names for each exhaustive job's median time at the reference speed.
JOB_METRIC = {"verify": "verify_s", "seq": "seq_all_s", "tamari-verify": "tamari_verify_s"}


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1 - front * _beta_cf(b, a, 1 - x) / b


def hd_quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  A plain
    sample quantile is one order statistic; over ops of eight size levels
    it sits at or near the gap between two levels and jumps with single
    ops.  Order statistics more than ten standard deviations of the weight
    away from q get no weight (it is below 1e-20).  A failed op is +inf, so
    it ranks slower than any success; an estimate that weighs it is +inf."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    sd = math.sqrt(q * (1 - q) / (n + 2))
    lo, hi = max(0, math.floor((q - 10 * sd) * n)), min(n, math.ceil((q + 10 * sd) * n))
    cdf = [beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    total = 0.0
    for i in range(lo, hi):
        weight = cdf[i - lo + 1] - cdf[i - lo]
        if weight:
            if math.isinf(xs[i]):
                return math.inf
            total += weight * xs[i]
    return total


def kind_latency(kinds: dict[str, list[float]], q: float) -> float:
    """The geometric mean over op kinds of each kind's q-quantile, so every
    kind weighs the same whatever its share of the ops or its cost; a
    quantile over mixed kinds sits where one kind's latencies meet
    another's and jumps with the mix."""
    values = [hd_quantile(xs, q) for xs in kinds.values()]
    if any(math.isinf(v) for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metadata(seed: int) -> dict:
    sha = None
    if (harness.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "treegamekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def failure_list(results) -> list[dict]:
    return [
        {"index": r.index, "command": r.kind, "class": r.cls, "shape": r.shape, "kind": r.outcome, "detail": r.detail}
        for r in results.failures
    ]


def all_ops(kinds: dict[str, list[float]]) -> list[float]:
    return [x for xs in kinds.values() for x in xs]


# ---------------------------------------------------------------------------
# end-to-end run


def plain_run(workload: str, seed: int, seconds: float) -> dict:
    speed = sp.Speed()
    setup = harness.SetupSampler(seconds, speed)
    deadline = time.perf_counter() + seconds
    if workload == "exhaustive":
        results = harness.Results()
        while not len(results) or time.perf_counter() < deadline:
            speed.sample()
            start = time.perf_counter()
            results.add(harness.run_job(seed, len(results)), start)
            setup()
        rss, caches = harness.peak_rss_mb(children=True), None
    else:
        api = harness.make_api()

        def between():
            speed.maybe()
            setup()

        results = harness.run_stream(workload, seed, api, deadline=deadline, between=between)
        rss, caches = harness.peak_rss_mb(children=False), spans.cache_snapshot()
    speed.sample()
    samples = setup.finish()

    # Deep-class probes stay out of the latency metrics, so a deep op that
    # starts to succeed slowly reads as a lower fail_ratio, not as a
    # latency regression.
    scale = speed.scale_by_run if workload == "exhaustive" else speed.scale
    kinds = results.latencies_ms(scale=scale, cycle=w.CYCLE[workload])
    lat = all_ops(kinds)
    metrics = {
        "setup_s": (sorted(samples)[len(samples) // 2], "s", len(samples)),
        "op_p50_ms": (kind_latency(kinds, 0.5), "ms", len(lat)),
        "op_p90_ms": (kind_latency(kinds, 0.9), "ms", len(lat)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    report = {
        "all_ops_p50_ms": (hd_quantile(lat, 0.5), "ms", len(lat)),
        "all_ops_p90_ms": (hd_quantile(lat, 0.9), "ms", len(lat)),
        "all_ops_p99_ms": (hd_quantile(lat, 0.99), "ms", len(lat)),
        "fail_ratio": (len(results.failures) / len(results), "ratio", len(results)),
    }
    for kind, name in JOB_METRIC.items():
        if kind in kinds:
            report[name] = (hd_quantile(kinds[kind], 0.5) / 1000, "s", len(kinds[kind]))
    return {
        "results": results,
        "metrics": metrics,
        "report": report,
        "by_kind": {k: {"p50_ms": hd_quantile(xs, 0.5), "p90_ms": hd_quantile(xs, 0.9), "n": len(xs)}
                    for k, xs in sorted(kinds.items())},
        "caches": caches,
        "setup_samples": samples,
    }


# ---------------------------------------------------------------------------
# traced run


def _merge(total: dict, part: dict) -> dict:
    for key, value in part.items():
        if isinstance(value, dict):
            _merge(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            old = total.get(key, [0] * len(value))
            total[key] = [a + b for a, b in zip(old, value)]
        elif key == "self_sum_err_s":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def _worker(args: list[str], timeout: float) -> dict:
    out = harness.OUT / f"worker-{os.getpid()}.json"
    subprocess.run([sys.executable, str(harness.HERE / "worker.py"), *args, "--out", str(out)],
                   cwd=harness.ROOT, check=True, timeout=timeout)
    try:
        with open(out) as f:
            return json.load(f)
    finally:
        out.unlink()


def traced_run(workload: str, seed: int, seconds: float, spans_path) -> dict:
    """An untraced pass, then the same ops again under the tracer, each in
    fresh processes; the difference between the two is the overhead."""
    if workload == "exhaustive":
        deadline = time.perf_counter() + seconds
        plain, traced, summary = harness.Results(), harness.Results(), {}
        out = harness.OUT / f"job-{os.getpid()}.json"
        while not len(plain) or time.perf_counter() < deadline:
            i = len(plain)
            plain.add(harness.run_job(seed, i), time.perf_counter())
            traced.add(harness.run_job(seed, i, traced_out=out, spans=spans_path), time.perf_counter())
            with open(out) as f:
                _merge(summary, json.load(f)["summary"])
        out.unlink()
        rss = harness.peak_rss_mb(children=True)
    else:
        base = ["stream", "--workload", workload, "--seed", str(seed)]
        first = _worker([*base, "--seconds", str(seconds / 2)], timeout=seconds + 60)
        plain = harness.Results.from_json(first["results"])
        second = _worker([*base, "--count", str(len(plain)), "--seconds", "100", "--trace",
                          "--spans", str(spans_path)], timeout=150)
        traced = harness.Results.from_json(second["results"])
        summary, rss = second["summary"], first["rss_mb"]
    common = len(traced)  # the traced pass stops early only if it runs out of time

    def failed(results):
        return {(r.index, r.outcome) for r in results.failures if r.index < common}

    base_s = sum(plain.seconds[:common])
    return {
        "results": plain,
        "traced": traced,
        "summary": summary,
        "rss": rss,
        "overhead": sum(traced.seconds) / base_s - 1 if base_s else 0.0,
        "mismatch": len(failed(plain) ^ failed(traced)) + len(plain) - common,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(run: dict) -> dict:
    s = run["summary"]
    calls, self_s, errors = s.get("calls", {}), s.get("self_s", {}), s.get("errors", {})
    names, counters, checks = s.get("name_calls", {}), s.get("counters", {}), s.get("check_s", {})
    caches = s.get("caches", {})
    results = run["results"]
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    for name in CHECK_NAMES:
        m[f"checks.{name}.s"] = (checks.get(name, 0.0), "s")
    m["perm.perms_enumerated"] = (counters.get("perm.perms_enumerated", 0), "count")
    m["perm.first_inversions.calls"] = (names.get("perm.first_inversions", 0), "count")
    m["tree.parse_chars"] = (counters.get("tree.parse_chars", 0), "count")
    m["tree.first_inversion_tree.calls"] = (names.get("tree.first_inversion_tree", 0), "count")
    m["poly.phi_vertices"] = (counters.get("poly.phi_vertices", 0), "count")
    m["poly.profiles"] = (counters.get("poly.profiles", 0), "count")
    m["game.census_trees"] = (counters.get("game.census_trees", 0), "count")
    for key in spans.CACHES:
        hits, misses, entries = caches.get(key, [0, 0, 0])
        m[f"{key}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        m[f"{key}.entries"] = (entries, "count")
    m["tamari.fiber_kept_ratio"] = (
        _ratio(counters.get("tamari.fiber_kept", 0), counters.get("tamari.fiber_scanned", 0)), "ratio")
    m["tamari.congruence_pairs"] = (counters.get("tamari.congruence_pairs", 0), "count")
    m["lattice.prunings_materialized"] = (counters.get("lattice.prunings_materialized", 0), "count")
    traced = run["traced"]
    euler_ops = sum(traced.kinds[k] == "euler" for k in traced.kind)
    m["geometry.phi_calls_per_op"] = (_ratio(counters.get("geometry.poly_calls", 0), euler_ops), "count/op")
    failed = len(results.failures)
    m["ops.attempted"] = (len(results), "count")
    m["ops.failed"] = (failed, "count")
    m["ops.fail_ratio"] = (_ratio(failed, len(results)), "ratio")
    m["ops.recursion_errors"] = (sum(r.outcome == "RecursionError" for r in results.failures), "count")
    m["rss.peak_mb"] = (run["rss"], "MB")
    m["trace.overhead_ratio"] = (run["overhead"], "ratio")
    m["trace.spans"] = (s.get("spans", 0), "count")
    m["trace.self_sum_err_s"] = (s.get("self_sum_err_s", 0.0), "s")
    m["trace.failed_set_mismatch"] = (run["mismatch"], "count")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        harness.import_treegamekit()
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    meta = metadata(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {w.REASONS[args.workload]}")

    if args.trace:
        spans_path = harness.OUT / f"spans-{stem}.jsonl"
        spans_path.unlink(missing_ok=True)
        run = traced_run(args.workload, args.seed, args.seconds, spans_path)
        metrics = layer_metrics(run)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:>16.6g} {unit}")
        print(f"  spans written to {spans_path.relative_to(harness.ROOT)}")
        extra = {"failures_traced": failure_list(run["traced"])}
    else:
        run = plain_run(args.workload, args.seed, args.seconds)
        for name, (value, unit, n) in {**run["metrics"], **run["report"]}.items():
            print(f"  {name:16s} {value:>14.6g} {unit:5s} (n={n})")
        for kind, row in run["by_kind"].items():
            print(f"    {kind:30s} p50 {row['p50_ms']:>12.4f} ms  p90 {row['p90_ms']:>12.4f} ms  (n={row['n']})")
        if run["caches"]:
            print(f"  caches [hits, misses, entries]: {run['caches']}")
        metrics = {k: (v, unit) for k, (v, unit, _) in run["metrics"].items()}
        extra = {"by_kind": run["by_kind"], "caches": run["caches"], "setup_samples": run["setup_samples"],
                 "ops": run["results"].to_json()}

    results = run["results"]
    failures = failure_list(results)
    for f in failures[:10]:
        print(f"  failed op {f['index']}: {f['command']} [{f['class']} {f['shape']}] {f['kind']}: {f['detail'][:80]}")
    counts = results.class_counts()
    attempted = sum(c["attempted"] for name, c in counts.items() if name != "deep")
    failed = sum(c["failed"] for name, c in counts.items() if name != "deep")
    correct = failed == 0 and not any(r.outcome == "wrong" for r in results.failures)
    meta.update(loadavg_end=os.getloadavg(), op_counts=counts, why=w.REASONS[args.workload])
    print(f"  ops by class: {counts}")
    print(f"  meta: {json.dumps({k: meta[k] for k in ('git_sha', 'python', 'nproc', 'loadavg_start', 'loadavg_end')})}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(harness.OUT / f"{stem}.json", "w") as f:
        json.dump({**result, "meta": meta, "failures": failures, **extra}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
