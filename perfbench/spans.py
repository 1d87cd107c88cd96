"""Spans at the boundaries between treegamekit modules, recorded from outside.

``Tracer.install`` rebinds, in each calling module, the names it imported
from another treegamekit module (module objects included) to recording
wrappers, and wraps the entries of ``checks.ALL_CHECKS``.  It never
rebinds a name in the module that defines it, so recursion and calls
inside one module add no frames and every ``lru_cache`` keeps its own
``cache_info()``.  ``report`` is too small to be a layer: calls into it
count towards their caller.

A span is ``(id, parent, op, name, layer, start, end, error)``.  Spans stay
in memory (up to ``MAX_SPANS``) and are written out when the run ends.  A
generator is timed across its ``next`` calls, one span per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

import oracles

LAYERS = ("cli", "checks", "seq", "game", "tamari", "lattice", "poly", "geometry", "tree", "perm")
CACHES = {
    "game.mover_loses": ("game", "mover_loses"),
    "tamari.orbits": ("tamari", "_orbits"),
    "tree.plane_trees": ("tree", "plane_trees"),
    "seq.stirling_row": ("seq", "_stirling_row"),
}
MAX_SPANS = 50_000


def _count_parse(tr, args, kwargs, result):
    tr.counters["tree.parse_chars"] += len(args[0] if args else kwargs["text"])


def _count_phi(tr, args, kwargs, result):
    tr.counters["poly.phi_vertices"] += oracles.tuple_size(args[0] if args else kwargs["t"])


def _count_profiles(tr, args, kwargs, result):
    tr.counters["poly.profiles"] += len(result)


def _count_census(tr, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tr.counters["game.census_trees"] += math.factorial(n - 1)


def _count_fiber(tr, args, kwargs, result):
    tr.counters["tamari.fiber_kept"] += len(result.members)
    tr.counters["tamari.fiber_scanned"] += math.factorial(len(result.top) - 1)


def _count_congruence(tr, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tr.counters["tamari.congruence_pairs"] += math.factorial(n - 1) ** 2


# Work counters taken at the boundary, from a call's arguments or result.
HOOKS = {
    "tree.parse_plane_tree": _count_parse,
    "tree.parse_labeled_tree": _count_parse,
    "poly.game_polynomial": _count_phi,
    "poly.pruning_profiles": _count_profiles,
    "game.census_second_player_wins": _count_census,
    "tamari.fiber": _count_fiber,
    "tamari.verify_congruence": _count_congruence,
}
# Generators whose yielded items are counted.
ITEM_COUNTERS = {"perm.enumerate_fixing_one": "perm.perms_enumerated"}


def cache_snapshot() -> dict:
    """Hits, misses and entries of the program's lru caches, read from outside."""
    out = {}
    for key, (mod_name, attr) in CACHES.items():
        fn = getattr(sys.modules.get(f"treegamekit.{mod_name}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
    return out


def layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "treegamekit" and tail in LAYERS else None


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [id, name, layer, start, child_time]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.name_calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.check_s: defaultdict = defaultdict(float)
        self.root_s: defaultdict = defaultdict(float)  # op -> time under root spans
        self.op_self_s: defaultdict = defaultdict(float)  # op -> sum of self times
        self._lattice_open = 0
        self._lattice_init = None

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, layer: str, count: bool = True) -> list:
        if count:
            self.calls[layer] += 1
            self.name_calls[name] += 1
        if layer == "poly" and self.stack and self.stack[-1][2] == "geometry":
            self.counters["geometry.poly_calls"] += 1
        if layer == "lattice":
            self._lattice_open += 1
            if self._lattice_open == 1 and self._lattice_init is not None:
                sys.setprofile(self._profile)
        frame = [self.next_id, name, layer, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        frame[3] = self.clock()
        return frame

    def _exit(self, frame: list, error: bool) -> float:
        end = self.clock()
        self.stack.pop()
        span_id, name, layer, start, child = frame
        if layer == "lattice":
            self._lattice_open -= 1
            if self._lattice_open == 0:
                sys.setprofile(None)
        duration = end - start
        own = duration - child
        self.self_s[layer] += own
        self.op_self_s[self.op] += own
        if error:
            self.errors[layer] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        else:
            self.root_s[self.op] += duration
            parent_id = None
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent_id, self.op, name, layer, start, end, error))
        else:
            self.dropped += 1
        return duration

    def _profile(self, frame, event, arg):
        # Counts every PruningLattice built while a lattice span is open,
        # including those built inside lattice's own functions.
        if event == "return" and frame.f_code is self._lattice_init:
            masks = getattr(frame.f_locals.get("self"), "masks", None)
            if masks is not None:
                self.counters["lattice.prunings_materialized"] += len(masks)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, obj, name: str | None = None):
        """A recording stand-in for a treegamekit function, generator
        function or class; anything else is returned unchanged."""
        layer = layer_of(obj)
        if layer is None:
            return obj
        if inspect.isclass(obj):
            return _TracedClass(self, obj, name or f"{layer}.{obj.__qualname__}", layer)
        if inspect.isgeneratorfunction(obj):
            return self._wrap_generator(obj, name or f"{layer}.{obj.__qualname__}", layer)
        if inspect.isfunction(obj) or inspect.ismethod(obj) or isinstance(obj, functools._lru_cache_wrapper):
            return self._wrap_call(obj, name or f"{layer}.{obj.__qualname__}", layer)
        return obj

    def _wrap_call(self, func, name, layer):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(func, updated=())
        def traced(*args, **kwargs):
            frame = tracer._enter(name, layer)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, True)
                raise
            tracer._exit(frame, False)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, func, name, layer):
        tracer = self
        counter = ITEM_COUNTERS.get(name)

        @functools.wraps(func, updated=())
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.name_calls[name] += 1
            return _TracedGenerator(tracer, func(*args, **kwargs), name, layer, counter)

        return traced

    def _wrap_check(self, check):
        tracer = self

        @functools.wraps(check, updated=())
        def traced(cfg):
            frame = tracer._enter(f"checks.{check.__name__}", "checks", count=False)
            try:
                result = check(cfg)
            except BaseException:
                tracer._exit(frame, True)
                raise
            frame[1] = f"checks.{result.name}"
            tracer.check_s[result.name] += tracer._exit(frame, False)
            return result

        return traced

    def install(self) -> None:
        """Rebind cross-module names in every treegamekit layer module."""
        modules = {name: importlib.import_module(f"treegamekit.{name}") for name in LAYERS}
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, types.ModuleType):
                    target = value.__name__.rpartition(".")[2]
                    if value.__name__.startswith("treegamekit.") and target in LAYERS and target != mod_name:
                        setattr(module, attr, _ModuleProxy(self, value))
                elif layer_of(value) not in (None, mod_name):
                    setattr(module, attr, self.wrap(value))
        checks = modules["checks"]
        checks.ALL_CHECKS = tuple(self._wrap_check(c) for c in checks.ALL_CHECKS)
        self._lattice_init = modules["lattice"].PruningLattice.__init__.__code__

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Everything the per-layer metrics need, in a JSON-ready dict."""
        errors = [abs(self.root_s[op] - self.op_self_s[op]) for op in self.root_s]
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "self_s": dict(self.self_s),
            "name_calls": dict(self.name_calls),
            "counters": dict(self.counters),
            "check_s": dict(self.check_s),
            "caches": cache_snapshot(),
            "root_s": sum(self.root_s.values()),
            "self_sum_err_s": max(errors, default=0.0),
            "spans": len(self.spans) + self.dropped,
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class _TracedGenerator:
    __slots__ = ("tracer", "gen", "name", "layer", "counter")

    def __init__(self, tracer, gen, name, layer, counter):
        self.tracer, self.gen, self.name, self.layer, self.counter = tracer, gen, name, layer, counter

    def __iter__(self):
        return self

    def __next__(self):
        frame = self.tracer._enter(self.name, self.layer, count=False)
        try:
            item = next(self.gen)
        except StopIteration:
            self.tracer._exit(frame, False)
            raise
        except BaseException:
            self.tracer._exit(frame, True)
            raise
        self.tracer._exit(frame, False)
        if self.counter is not None:
            self.tracer.counters[self.counter] += 1
        return item


class _TracedClass:
    """Calling it constructs the real class inside a span; attribute access
    (class methods, enum members) goes straight to the class."""

    def __init__(self, tracer, cls, name, layer):
        self._cls = cls
        self._call = tracer._wrap_call(cls, name, layer)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


class _ModuleProxy:
    """Stands for a module object bound in another module: functions and
    classes read through it come back wrapped, everything else as is."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module
        self._wrapped = {}

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        cached = self._wrapped.get(attr)
        if cached is None or cached[0] is not value:
            cached = (value, self._tracer.wrap(value))
            self._wrapped[attr] = cached
        return cached[1]
