"""Per-layer timing from outside the program.

The benchmark never reads the program's own stage timings.  Instead a
traced operation wraps the public entry points of each layer (listed in
:data:`TARGETS`) and records one span per call.  A layer's *self time*
is its spans' duration minus the part covered by nested spans of any
layer, so the self times of every layer plus the root span's own
remainder (``bench.unattributed_s``) add up to the traced wall.
:meth:`LayerTracer.problems` names what would make that split lie: a
span closed out of order, top-level spans longer than the wall, a
negative self time, or a layer's self time that no printed metric
carries.

Each target is replaced wherever the program can look it up: a
function is swapped on its defining module *and* on every loaded
``repro`` module that imported it by name (``repro.core.engine``'s
``clone_term``, ``repro.core.pipeline``'s ``to_ssa``, ...); a method is
swapped on its class.

Worker processes of a parallel run inherit the wrappers when they fork.
Each worker writes its own layer counters to a file after every task,
and :meth:`LayerTracer.measure` merges them: a worker-side layer's self
time divided by the number of workers moves out of ``sched.wave`` and
into that layer.  The parent waits in ``sched.wave`` while the workers
run, so the wave's wall is shared out by each layer's use of the
workers' capacity (workers x wave wall); capacity no layer used (idle
workers, dispatch, pickling) stays in ``sched.wave``.  Worker-side call
counts are added as they are.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Modules imported before wrapping, so every ``from x import f``
#: binding the program makes already exists when the wrappers go in.
PRELOAD = (
    "repro",
    "repro.cache",
    "repro.core.incremental",
    "repro.sched",
    "repro.sched.scheduler",
    "repro.sched.worker",
    "repro.pta.flowsense",
)

#: (module, attribute path, layer).  Layers are named after the
#: ``repro`` package that owns the code.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.lang.parser", "parse_program", "lang.parse"),
    ("repro.lang.parser", "parse_program_tolerant", "lang.parse"),
    # The serial preparation pipeline's own work: per-function callee
    # signature maps, quarantine zones, the alias-hazard scan.
    ("repro.core.pipeline", "prepare_source", "pipeline"),
    ("repro.core.pipeline", "prepare_module", "pipeline"),
    ("repro.core.pipeline", "prepare_function", "pipeline"),
    ("repro.ir.lower", "lower_program", "ir.lower"),
    ("repro.ir.lower", "lower_function", "ir.lower"),
    # The program builds its call graph inside its own "lower" stage.
    ("repro.ir.callgraph", "CallGraph.__init__", "ir.lower"),
    ("repro.ir.ssa", "to_ssa", "ir.ssa"),
    ("repro.ir.gating", "GateInfo.__init__", "ir.gating"),
    ("repro.ir.controldep", "control_dependence", "ir.gating"),
    ("repro.transform.connectors", "transform_call_sites", "transform"),
    ("repro.transform.connectors", "transform_function_interface", "transform"),
    ("repro.transform.modref", "compute_modref", "transform"),
    ("repro.pta.intraproc", "PointsToAnalysis.run", "pta"),
    ("repro.pta.flowsense", "FlowSensitivePTA.run", "pta"),
    ("repro.seg.builder", "build_seg", "seg.build"),
    ("repro.core.engine", "Pinpoint.__init__", "engine.init"),
    ("repro.core.engine", "Pinpoint.check", "engine.check"),
    ("repro.core.context", "clone_term", "context.clone"),
    ("repro.smt.linear_solver", "LinearSolver.is_obviously_unsat", "smt.linear"),
    ("repro.smt.solver", "SMTSolver.check", "smt.solve"),
    ("repro.sched.scheduler", "prepare_program", "sched.prepare"),
    ("repro.sched.pool", "WorkerPool.run_wave", "sched.wave"),
    # A worker's own share of a task: unpickling, pickling, registries.
    ("repro.sched.worker", "prepare_task", "sched.task"),
    ("repro.cache.store", "SummaryStore.get", "cache.get"),
    ("repro.cache.store", "SummaryStore.put", "cache.put"),
    ("repro.core.incremental", "IncrementalAnalyzer.analyze", "incremental.analyze"),
    (
        "repro.core.incremental",
        "IncrementalAnalyzer.analyze_program",
        "incremental.analyze",
    ),
    ("repro.cache.keys", "prepare_cache_key", "incremental.key"),
    ("repro.cache.keys", "key_digest", "incremental.key"),
)

#: Share of the traced wall the wrapped layers may leave unattributed,
#: and the share by which tracing may slow an operation down.  Beyond
#: either, the traced run reports itself incorrect: a missed call site
#: or a mis-nested span shows up here.
UNATTRIBUTED_BOUND = 0.05
OVERHEAD_BOUND = 0.50


#: The one per-layer time that spans other layers: the whole of the
#: scheduler's preparation.  Every other ``*_s`` metric is a self time,
#: and those add up to the traced wall.
INCLUSIVE = ("sched.prepare_s",)

#: Every per-layer metric a traced run prints, with its unit.  Metrics a
#: workload never exercises (``sched.*`` on a serial run) read 0.
PER_LAYER_UNITS = {
    "lang.parse_s": "s",
    "pipeline.s": "s",
    "ir.lower_s": "s",
    "ir.ssa_s": "s",
    "ir.gating_s": "s",
    "transform.s": "s",
    "pta.s": "s",
    "pta.runs": "count",
    "seg.build_s": "s",
    "seg.vertices": "count",
    "seg.edges": "count",
    "engine.init_s": "s",
    "engine.check_self_s": "s",
    "engine.search_steps": "count",
    "engine.candidates": "count",
    "engine.summary_hit_ratio": "ratio",
    "context.clone_s": "s",
    "context.clone_calls": "count",
    "smt.linear_s": "s",
    "smt.linear_queries": "count",
    "smt.linear_pruned_ratio": "ratio",
    "smt.solve_s": "s",
    "smt.solve_queries": "count",
    "sched.prepare_s": "s",
    "sched.wave_s": "s",
    "sched.waves": "count",
    "sched.tasks": "count",
    "sched.parent_s": "s",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "incremental.analyze_s": "s",
    "incremental.key_s": "s",
    "incremental.reuse_ratio": "ratio",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Self time and call counts per layer, for one operation at a time.

    ``spill_dir`` is where forked workers leave their counters; without
    it, worker-side layers stay folded into ``sched.wave``."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # One entry per open span: seconds covered by its children.
        self._stack: List[List[float]] = [[0.0]]
        self._undo: List[Tuple[object, str, object]] = []
        # Spans whose frame was not on top of the stack when they ended.
        self.misnested = 0
        # The process that measures; any other process is a worker.
        self._pid = os.getpid()
        self._workers = 0
        self.wall_s = 0.0
        self.unattributed_s = 0.0

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, after=None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack.pop() is not frame:
                    self.misnested += 1
                self_s[layer] += elapsed - frame[0]
                total_s[layer] += elapsed
                stack[-1][0] += elapsed
                calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _worker_task(self, task: Callable) -> Callable:
        """Around a worker's task: start from zero in a freshly forked
        worker, and leave the counters for the parent after each task."""
        pids = [self._pid]

        @functools.wraps(task)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != pids[0]:
                pids[0] = pid
                self._reset()
            try:
                return task(*args, **kwargs)
            finally:
                if pid != self._pid and self.spill_dir is not None:
                    self._spill(pid)

        return wrapper

    def _after_hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def linear(args, result):
            if result:
                counts["smt.linear_pruned"] += 1

        def wave(args, result):
            counts["sched.tasks"] += len(args[1])
            self._workers = max(self._workers, args[0].jobs)

        def cache_get(args, result):
            if result is not None:
                counts["cache.hits"] += 1

        return {
            "smt.linear": linear,
            "sched.wave": wave,
            "cache.get": cache_get,
        }

    def install(self) -> None:
        """Wrap every target everywhere the program can look it up."""
        for name in PRELOAD:
            importlib.import_module(name)
        hooks = self._after_hooks()
        for module_name, path, layer in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, hooks.get(layer))
            if layer == "sched.task":
                wrapper = self._worker_task(wrapper)
            self._replace(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def unwrapped(self) -> List[str]:
        """``module.attr`` bindings that still hold an unwrapped target.
        Empty after :meth:`install`; the self-test asserts it."""
        originals = {id(original) for _owner, _attr, original in self._undo}
        return [
            f"{mod_name}.{name}"
            for mod_name, module in list(sys.modules.items())
            if mod_name.startswith("repro")
            for name, value in list(vars(module).items())
            if id(value) in originals
        ]

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()
        del self._stack[:]
        self._stack.append([0.0])
        self.misnested = 0
        self._workers = 0

    def _spill_files(self) -> List[str]:
        if self.spill_dir is None:
            return []
        return [
            os.path.join(self.spill_dir, name)
            for name in sorted(os.listdir(self.spill_dir))
            if name.startswith("layers-worker-") and name.endswith(".json")
        ]

    def _spill(self, pid: int) -> None:
        path = os.path.join(self.spill_dir, f"layers-worker-{pid}.json")
        state = {"self_s": self.self_s, "calls": self.calls, "counts": self.counts,
                 "misnested": self.misnested}
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        os.replace(path + ".tmp", path)

    def _merge_workers(self) -> None:
        """Fold the counters the workers left behind into this tracer."""
        moved = 0.0
        for path in self._spill_files():
            with open(path, encoding="utf-8") as handle:
                state = json.load(handle)
            os.unlink(path)
            self.calls.update(state["calls"])
            self.counts.update(state["counts"])
            self.misnested += state["misnested"]
            for layer, seconds in state["self_s"].items():
                if layer != "sched.task":
                    share = seconds / max(1, self._workers)
                    self.self_s[layer] += share
                    moved += share
        if moved:
            self.self_s["sched.wave"] -= moved

    def measure(self, operation: Callable[[], object]) -> object:
        """Run ``operation`` as the root span, from zeroed counters."""
        self._reset()
        self._pid = os.getpid()
        for path in self._spill_files():
            os.unlink(path)
        root = self._stack[0]
        start = time.perf_counter()
        result = operation()
        self.wall_s = time.perf_counter() - start
        self.unattributed_s = self.wall_s - root[0]
        self._merge_workers()
        return result

    def problems(self) -> List[str]:
        """What makes the last split untrue; empty when it holds."""
        found = []
        if self.misnested or len(self._stack) != 1:
            found.append(f"{self.misnested} spans ended out of order")
        if self.unattributed_s < 0:
            found.append("top-level spans add up to more than the traced wall")
        negative = sorted(layer for layer, s in self.self_s.items() if s < -1e-9)
        if negative:
            found.append(f"negative self time in {', '.join(negative)}")
        printed = sum(
            value for name, value in self.layer_metrics().items()
            if PER_LAYER_UNITS[name] == "s" and name not in INCLUSIVE
        )
        if abs(printed - self.wall_s) > 1e-6 * max(1.0, self.wall_s):
            found.append(f"printed self times add up to {printed:.6f} s, "
                         f"not the traced wall {self.wall_s:.6f} s")
        return found

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics this tracer measures directly."""
        s = self.self_s
        c = self.calls
        k = self.counts
        gets = c["cache.get"]
        return {
            "lang.parse_s": s["lang.parse"],
            "pipeline.s": s["pipeline"],
            "ir.lower_s": s["ir.lower"],
            "ir.ssa_s": s["ir.ssa"],
            "ir.gating_s": s["ir.gating"],
            "transform.s": s["transform"],
            "pta.s": s["pta"],
            "pta.runs": c["pta"],
            "seg.build_s": s["seg.build"],
            "engine.init_s": s["engine.init"],
            "engine.check_self_s": s["engine.check"],
            "context.clone_s": s["context.clone"],
            "context.clone_calls": c["context.clone"],
            "smt.linear_s": s["smt.linear"],
            "smt.linear_queries": c["smt.linear"],
            "smt.linear_pruned_ratio": _ratio(k["smt.linear_pruned"], c["smt.linear"]),
            "smt.solve_s": s["smt.solve"],
            "smt.solve_queries": c["smt.solve"],
            "sched.prepare_s": self.total_s["sched.prepare"],
            "sched.parent_s": s["sched.prepare"],
            "sched.wave_s": s["sched.wave"],
            "sched.waves": c["sched.wave"],
            "sched.tasks": k["sched.tasks"],
            "cache.get_s": s["cache.get"],
            "cache.gets": gets,
            "cache.hit_ratio": _ratio(k["cache.hits"], gets),
            "cache.put_s": s["cache.put"],
            "incremental.analyze_s": s["incremental.analyze"],
            "incremental.key_s": s["incremental.key"],
            "bench.unattributed_s": self.unattributed_s,
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
