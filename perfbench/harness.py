"""Where the program is found and how ops reach it.

big-trees and small-queries run in one long-lived process through
``cli.main`` and the library API; the exhaustive jobs run as fresh
``python -m treegamekit`` processes, one at a time.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
JOB_TIMEOUT_S = 120
SETUP_SAMPLES = 13
IMPORT_TIMER = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import treegamekit, treegamekit.cli\n"
    "print(time.perf_counter() - start)\n"
)


class CheckoutError(Exception):
    pass


def import_treegamekit():
    """Import the package from this checkout's sources, never from elsewhere."""
    init = SRC / "treegamekit" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no treegamekit sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import treegamekit

    if Path(treegamekit.__file__).resolve() != init.resolve():
        raise CheckoutError(f"imported treegamekit from {treegamekit.__file__}, not from this checkout")
    return treegamekit


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TGK_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_api(tracer=None) -> SimpleNamespace:
    """The public entry points the ops call; under a tracer each is a root span."""
    import treegamekit as tgk
    from treegamekit import cli

    entries = {
        "main": cli.main,
        "game_polynomial": tgk.game_polynomial,
        "game_polynomial_from_prunings": tgk.game_polynomial_from_prunings,
        "rank_generating_function": tgk.rank_generating_function,
        "PruningLattice": tgk.PruningLattice,
        "covers_above": tgk.PruningLattice.covers_above,
        "winner": tgk.winner,
        "optimal_move": tgk.optimal_move,
        "fiber": tgk.fiber,
        "from_tree": tgk.TamariElement.from_tree,
        "tamari_join": tgk.tamari_join,
        "tamari_meet": tgk.tamari_meet,
        "tamari_leq": tgk.tamari_leq,
        "placements_match_prunings": tgk.placements_match_prunings,
        "first_inversion_tree": tgk.first_inversion_tree,
        "perm_from_increasing_tree": tgk.perm_from_increasing_tree,
        "avoids": tgk.avoids,
    }
    if tracer is not None:
        entries = {k: tracer.wrap(v) for k, v in entries.items()}
    return SimpleNamespace(**entries)


@dataclass
class Record:
    index: int
    kind: str
    cls: str
    shape: str
    seconds: float
    outcome: str  # "ok", "wrong", "exit" or the exception type
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


class Results:
    """Per-op outcomes in columns of a few bytes each, so that the memory of
    the process running the ops does not grow with how many ops a run gets
    through; failed ops are also kept whole."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.kinds: list[str] = []
        self.classes: list[str] = []
        self.start = array("d")  # seconds from t0 to the op's start
        self.kind = array("H")
        self.cls = array("B")
        self.seconds = array("d")
        self.ok = array("B")
        self.failures: list[Record] = []

    def __len__(self) -> int:
        return len(self.seconds)

    @staticmethod
    def _code(names: list[str], name: str) -> int:
        if name not in names:
            names.append(name)
        return names.index(name)

    def add(self, r: Record, start: float) -> None:
        self.start.append(start - self.t0)
        self.kind.append(self._code(self.kinds, r.kind))
        self.cls.append(self._code(self.classes, r.cls))
        self.seconds.append(r.seconds)
        self.ok.append(r.ok)
        if not r.ok:
            self.failures.append(r)

    def latencies_ms(self, scale=None, cycle: int = 1) -> dict:
        """Latencies by kind, a failed op as +inf, deep-class probes left out.
        With ``scale(seconds, start)`` (``speed.Speed.scale``) each op's time
        is taken at the reference speed.  Each kind keeps its first ops in
        whole multiples of ``cycle``."""
        out: dict = {}
        for t, k, c, s, ok in zip(self.start, self.kind, self.cls, self.seconds, self.ok):
            if self.classes[c] != "deep":
                if scale is not None:
                    s = scale(s, self.t0 + t)
                out.setdefault(self.kinds[k], []).append(s * 1000 if ok else float("inf"))
        for kind, xs in out.items():
            del xs[max(len(xs) // cycle, 1) * cycle:]
        return out

    def class_counts(self) -> dict[str, dict[str, int]]:
        out = {name: {"attempted": 0, "failed": 0} for name in self.classes}
        for c, ok in zip(self.cls, self.ok):
            out[self.classes[c]]["attempted"] += 1
            out[self.classes[c]]["failed"] += not ok
        return out

    def to_json(self) -> dict:
        return {
            "kinds": self.kinds,
            "classes": self.classes,
            "start": list(self.start),
            "kind": list(self.kind),
            "cls": list(self.cls),
            "seconds": list(self.seconds),
            "ok": list(self.ok),
            "failures": [asdict(r) for r in self.failures],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Results":
        out = cls()
        out.kinds, out.classes = doc["kinds"], doc["classes"]
        out.start.extend(doc["start"])
        out.kind.extend(doc["kind"])
        out.cls.extend(doc["cls"])
        out.seconds.extend(doc["seconds"])
        out.ok.extend(doc["ok"])
        out.failures = [Record(**r) for r in doc["failures"]]
        return out


def _classify(problem: str | None) -> str:
    if problem is None:
        return "ok"
    return "exit" if problem.startswith("exit code") else "wrong"


def op_source(workload: str, seed: int):
    if workload == "big-trees":
        return lambda i: w.big_trees_op(seed, i)
    pool = w.Pool(seed)
    return lambda i: w.small_queries_op(pool, seed, i)


def run_stream(workload, seed, api, deadline=None, count=None, tracer=None, between=None) -> Results:
    """Closed loop, one op in flight: build op i (its oracle answer
    included), time its call, check the answer, repeat."""
    make = op_source(workload, seed)
    clock = time.perf_counter
    results = Results()
    i = 0
    while (count is None or i < count) and (deadline is None or clock() < deadline):
        op = make(i)
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            result = op.call(api)
        except Exception as exc:  # a failing op is a measurement, not a crash
            seconds = clock() - start
            outcome, detail = type(exc).__name__, str(exc)[:200]
        else:
            seconds = clock() - start
            detail = op.check(result)
            outcome = _classify(detail)
        results.add(Record(i, op.kind, op.cls, op.shape, seconds, outcome, detail or ""), start)
        i += 1
        if between is not None:
            between()
    return results


def run_job(seed: int, index: int, traced_out: Path | None = None,
            spans: Path | None = None) -> Record:
    """Exhaustive job ``index`` (the three jobs in turn) as a fresh process;
    with ``traced_out`` it runs under the tracer and leaves its summary there."""
    kind, make_argv = w.JOBS[index % len(w.JOBS)]
    argv = make_argv(seed)
    if traced_out is None:
        cmd = [sys.executable, "-m", "treegamekit", *argv]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "job", "--out", str(traced_out)]
        if spans is not None:
            cmd += ["--spans", str(spans), "--op", str(index)]
        cmd += ["--", *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    seconds = time.perf_counter() - start
    detail = w.check_job(kind, proc.returncode, proc.stdout)
    outcome = _classify(detail)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        name = last.partition(":")[0]
        if name.isidentifier() and (name.endswith("Error") or name.endswith("Exception")):
            outcome, detail = name, last[:200]
    return Record(index, kind, "job", "exhaustive", seconds, outcome, detail or "")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing treegamekit and its CLI,
    timed inside the child so that process start-up is left out."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True, timeout=JOB_TIMEOUT_S)
    return float(proc.stdout)


class SetupSampler:
    """Takes ``SETUP_SAMPLES`` import timings spread evenly over a run, so
    that their median does not hang on one moment of machine load; each is
    scaled to the reference speed by the ``speed.Speed`` samples taken just
    before and after it."""

    def __init__(self, seconds: float, speed):
        self.start = time.perf_counter()
        self.step = seconds / (SETUP_SAMPLES - 1)
        self.speed = speed
        self.taken: list[tuple[float, float]] = []
        self._take()

    def _take(self) -> None:
        self.speed.sample()
        start = time.perf_counter()
        self.taken.append((import_seconds(), start))
        self.speed.sample()

    def __call__(self) -> None:
        due = self.start + self.step * len(self.taken)
        if len(self.taken) < SETUP_SAMPLES and time.perf_counter() >= due:
            self._take()

    def finish(self) -> list[float]:
        while len(self.taken) < SETUP_SAMPLES:
            self._take()
        return [self.speed.scale(seconds, start) for seconds, start in self.taken]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
