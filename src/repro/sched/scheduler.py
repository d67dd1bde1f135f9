"""Wave scheduler: parallel + cached bottom-up preparation.

``prepare_program`` is the parallel/cached counterpart of
:func:`repro.core.pipeline.prepare_module`.  It produces the *same*
:class:`~repro.core.pipeline.PreparedModule` a serial run would —
byte-identical downstream reports are the contract — while

- dispatching per-function stage 1-3 work (connector transformation,
  intraprocedural points-to, SEG construction) for each call-graph wave
  onto a process pool (``jobs > 1``), and/or
- reusing per-function artifacts from an in-memory tier (a daemon
  session's previous run) and loading/persisting them through an
  on-disk :class:`~repro.cache.store.SummaryStore` (``--cache-dir``).

This is the one bottom-up "key -> look up -> prepare -> store" loop
beside the serial reference: the CLI's pool and store and the daemon's
:class:`~repro.core.incremental.IncrementalAnalyzer` sessions all run
through it, so every kind of reuse gets the same quarantine,
verification and budget handling.  Budget-degraded artifacts are never
reused: they would replay a budget's diagnostics into unbudgeted runs.

Determinism is preserved by construction:

- wave order is used only for *dispatch*; the merged module's
  ``functions``/``order`` follow the exact serial ``bottom_up_order``,
  so the engine's summary/checker pass (which stays serial — context
  numbering is sequential across it) sees the same world in the same
  order;
- diagnostics are buffered per function and replayed in serial order
  during final assembly, so the diagnostics list is byte-identical to a
  ``--jobs 1`` run;
- verification (and the admit/quarantine decision it implies) runs at
  the wave barrier because a rejected function must not publish its
  connector signature to later waves — exactly the serial data flow.

Failure semantics match the serial quarantine ladder: a Python
exception inside a worker ships back as ``(type, message)`` and becomes
the same ``prepare``-stage diagnostic a serial run records; a *dead or
hung worker process* becomes a ``sched``-stage quarantine (serial runs
can't crash that way, and a healthy parallel run records neither).
SEG-construction failures ship ``seg=None`` and the engine rebuilds
under its own ``seg`` quarantine, so deterministic failures reproduce
with identical diagnostics.

Resource budgets are cooperative (checked inside the analysis loops of
*this* process), so a limited budget forces the serial path — workers
could not observe a shared deadline.  Cache lookups still apply.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.keys import key_digest, prepare_cache_key
from repro.cache.store import SummaryStore
from repro.core.pipeline import (
    PreparedFunction,
    PreparedModule,
    prepare_function,
)
from repro.ir.callgraph import CallGraph
from repro.ir.lower import lower_program
from repro.lang import ast
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.progress import get_progress
from repro.obs.trace import Span, get_tracer, trace
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import (
    REASON_BUDGET,
    REASON_QUARANTINED,
    STAGE_PREPARE,
    STAGE_PTA,
    STAGE_SCHED,
    DiagnosticLog,
)
from repro.robust.faults import fault_point
from repro.robust.quarantine import FATAL
from repro.sched.pool import WorkerCrash, WorkerPool
from repro.sched.waves import scc_waves

_log = get_logger("sched")


#: In-memory reuse tier: function name -> (content-key digest, prepared
#: artifacts, SEG or None).  ``prepare_program`` reads it before the disk
#: store and replaces its contents with the run's reusable functions.
MemoryTier = Dict[str, Tuple[str, PreparedFunction, Any]]


@dataclass
class _Outcome:
    """Buffered per-function result, recorded into the module (and its
    diagnostics) only during the serial-order assembly pass."""

    kind: str  # "prepared" | "quarantined"
    result: Optional[PreparedFunction] = None
    seg: Any = None
    cached: bool = False
    stage: str = STAGE_PREPARE
    detail: str = ""
    line: int = 0
    violations: List[Any] = field(default_factory=list)
    admitted: bool = True


def prepare_program(
    program: ast.Program,
    *,
    jobs: int = 1,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    verify: str = "",
    store: Optional[SummaryStore] = None,
    worker_timeout: float = 0.0,
    pta_tier: str = "fi",
    memory: Optional[MemoryTier] = None,
) -> PreparedModule:
    """Prepare a parsed program across ``jobs`` processes with optional
    artifact reuse; drop-in replacement for ``prepare_module``.

    With ``memory`` or ``store`` every function's content-key digest is
    recorded in ``PreparedModule.digests`` and the number served from
    either tier in ``PreparedModule.reused``."""
    from repro.verify import (
        MODE_OFF,
        SEVERITY_ERROR,
        record_violations,
        resolve_mode,
        severity_of,
        timed_verify,
    )
    from repro.verify.ir_verifier import verify_function_ir

    started = time.perf_counter()
    verify_mode = resolve_mode(verify)
    registry = get_registry()
    prepared = PreparedModule()
    if diagnostics is not None:
        prepared.diagnostics = diagnostics

    effective_jobs = max(1, int(jobs))
    if budget is not None and budget.limited and effective_jobs > 1:
        registry.counter(
            "sched.serial_fallback",
            "Parallel runs forced serial by a cooperative resource budget",
        ).inc()
        _log.info(
            "resource budgets are cooperative; forcing serial preparation",
            requested_jobs=effective_jobs,
        )
        effective_jobs = 1

    with trace("lower", unit="<module>"):
        module = lower_program(program)
        callgraph = CallGraph(module)
    prepared.callgraph = callgraph
    serial_order = callgraph.bottom_up_order()
    ast_by_name = {f.name: f for f in program.functions}
    prepared.asts = dict(ast_by_name)

    waves = scc_waves(callgraph)
    registry.gauge("sched.jobs", "Worker processes of the last run").set(
        effective_jobs
    )
    registry.gauge("sched.waves", "Call-graph waves of the last run").set(
        len(waves)
    )
    progress = get_progress()
    progress.set_stage(
        "prepare", functions=len(serial_order), waves=len(waves), jobs=effective_jobs
    )
    progress.set_functions_total(len(serial_order))

    signatures: Dict[str, Any] = {}
    outcomes: Dict[str, _Outcome] = {}
    digest_of: Dict[str, str] = {}

    pool = WorkerPool(effective_jobs, timeout=worker_timeout) if effective_jobs > 1 else None
    tracer = get_tracer()
    # Cost attribution across the wave loop: per-wave wall, per-task
    # compute, and the per-wave straggler (the one task every other
    # worker waits on at the barrier) feed the attr.* gauges below.
    total_wave_seconds = 0.0
    work_seconds = 0.0
    critical_path_seconds = 0.0
    try:
        for wave_index, wave in enumerate(waves):
            names = [name for scc in wave for name in scc]
            wave_started = time.perf_counter()
            task_seconds: Dict[str, float] = {}
            with trace("sched.wave", unit=str(wave_index)) as span:
                pending: List[Tuple[str, ast.FuncDef, Dict[str, Any]]] = []
                for name in names:
                    func_ast = ast_by_name[name]
                    # A task carries its own callees' signatures only:
                    # the same map feeds the content key and the payload.
                    usable = callgraph.published_callees(name, signatures)
                    if store is not None or memory is not None:
                        digest = key_digest(
                            prepare_cache_key(func_ast, usable, pta_tier=pta_tier)
                        )
                        digest_of[name] = digest
                        hit = _lookup(name, digest, memory, store)
                        if hit is not None:
                            result, seg = hit
                            outcomes[name] = _Outcome(
                                "prepared", result=result, seg=seg, cached=True
                            )
                            continue
                    pending.append((name, func_ast, usable))
                span.set(
                    functions=len(names),
                    cached=len(names) - len(pending),
                    dispatched=len(pending),
                )

                if pool is not None and pending:
                    registry.counter(
                        "sched.tasks", "Function tasks dispatched to workers"
                    ).inc(len(pending))
                    wave_uid = getattr(span, "uid", None)
                    trace_id = tracer.trace_id if tracer.enabled else ""
                    with trace(
                        "sched.dispatch.serialize", unit=str(wave_index)
                    ) as ser_span:
                        ser_started = time.perf_counter()
                        payloads = [
                            (
                                name,
                                pickle.dumps(
                                    (
                                        name,
                                        func_ast,
                                        usable,
                                        wave_index,
                                        pta_tier,
                                        # Trace context: each task carries the
                                        # wave span it belongs to plus its own
                                        # submission timestamp (queue wait).
                                        (trace_id, wave_uid, time.perf_counter()),
                                    ),
                                    protocol=pickle.HIGHEST_PROTOCOL,
                                ),
                            )
                            for name, func_ast, usable in pending
                        ]
                        serialize_seconds = time.perf_counter() - ser_started
                        serialize_bytes = sum(len(blob) for _, blob in payloads)
                        ser_span.set(
                            tasks=len(payloads), bytes=serialize_bytes
                        )
                    registry.counter(
                        "sched.dispatch.serialize_seconds",
                        "Parent-side task payload pickling",
                    ).inc(serialize_seconds)
                    registry.counter(
                        "sched.dispatch.serialize_bytes",
                        "Task payload bytes shipped to workers",
                    ).inc(serialize_bytes)
                    raw = pool.run_wave(payloads)
                    result_bytes = 0
                    with trace("sched.dispatch.decode", unit=str(wave_index)):
                        for name, func_ast, _usable in pending:
                            blob = raw[name]
                            if isinstance(blob, (bytes, bytearray)):
                                result_bytes += len(blob)
                            outcomes[name], timings = _decode_worker_result(
                                blob, name, parent_uid=wave_uid
                            )
                            task_seconds[name] = float(
                                timings.get("task_seconds", 0.0)
                            )
                    registry.counter(
                        "sched.dispatch.result_bytes",
                        "Outcome bytes shipped back from workers",
                    ).inc(result_bytes)
                else:
                    for name, func_ast, usable in pending:
                        task_started = time.perf_counter()
                        outcomes[name] = _run_inline(
                            name, func_ast, usable, prepared.linear, budget,
                            pta_tier,
                        )
                        task_seconds[name] = time.perf_counter() - task_started

                # Wave-boundary admission gate: a function must pass the
                # IR verifier before its connector signature becomes
                # visible to later waves — the serial pipeline's exact
                # data flow.  Diagnostics are recorded later, in serial
                # order, during assembly.
                for name in names:
                    out = outcomes[name]
                    if out.kind != "prepared":
                        continue
                    result = out.result
                    if verify_mode != MODE_OFF:
                        with timed_verify("ir"), trace("verify.ir", unit=name):
                            out.violations = verify_function_ir(
                                result.function,
                                result.control_deps,
                                dom=result.gates.dom,
                            )
                        if any(
                            severity_of(v.rule) == SEVERITY_ERROR
                            for v in out.violations
                        ):
                            out.admitted = False
                            continue
                    signatures[name] = result.signature
                    if (
                        store is not None
                        and not out.cached
                        and not result.points_to.degraded
                    ):
                        store.put(digest_of[name], name, result, out.seg)
                if task_seconds:
                    slowest = max(task_seconds, key=task_seconds.get)
                    span.set(
                        straggler=slowest,
                        straggler_seconds=round(task_seconds[slowest], 6),
                    )

            wave_elapsed = time.perf_counter() - wave_started
            total_wave_seconds += wave_elapsed
            work_seconds += sum(task_seconds.values())
            # The wave barrier cannot close before its slowest task; a
            # wave with no dispatched work still spends its wall time
            # (cache lookups) on the critical path.
            critical_path_seconds += (
                max(task_seconds.values()) if task_seconds else wave_elapsed
            )

            wave_outcomes = [outcomes[name] for name in names]
            progress.wave_progress(
                done=wave_index + 1,
                total=len(waves),
                prepared=sum(
                    1
                    for out in wave_outcomes
                    if out.kind == "prepared" and out.admitted
                ),
                cached=sum(1 for out in wave_outcomes if out.cached),
                quarantined=sum(
                    1
                    for out in wave_outcomes
                    if out.kind != "prepared" or not out.admitted
                ),
            )
    finally:
        if pool is not None:
            pool.close()

    # Run-level attribution gauges: computed from plain perf counters,
    # so they exist (and land in run history) even when tracing is off.
    registry.gauge(
        "attr.wave_seconds", "Wall seconds spent inside the wave loop"
    ).set(round(total_wave_seconds, 6))
    registry.gauge(
        "attr.work_seconds", "Summed per-task compute across all waves"
    ).set(round(work_seconds, 6))
    registry.gauge(
        "attr.critical_path_seconds",
        "Lower bound on scheduler wall: sum of per-wave stragglers",
    ).set(round(critical_path_seconds, 6))
    utilization = (
        work_seconds / (effective_jobs * total_wave_seconds)
        if total_wave_seconds > 0
        else 0.0
    )
    registry.gauge(
        "attr.utilization",
        "Fraction of available worker-seconds spent computing "
        "(work / jobs x wave wall)",
    ).set(round(min(1.0, utilization), 4))
    overhead_ratio = (
        max(0.0, total_wave_seconds - critical_path_seconds) / total_wave_seconds
        if total_wave_seconds > 0
        else 0.0
    )
    registry.gauge(
        "attr.overhead_ratio",
        "Share of wave wall not explained by straggler compute "
        "(dispatch, pickling, queueing, barrier waste)",
    ).set(round(overhead_ratio, 4))

    # Serial-order assembly: identical functions/order/diagnostics to a
    # prepare_module run over the same outcomes.
    log = prepared.diagnostics
    for name in serial_order:
        out = outcomes.get(name)
        if out is None:  # pragma: no cover - every name gets an outcome
            continue
        func_ast = ast_by_name[name]
        if out.kind == "quarantined":
            log.record(
                out.stage,
                name,
                REASON_QUARANTINED,
                detail=out.detail,
                line=func_ast.line or out.line,
            )
            continue
        if out.violations:
            errors = record_violations(out.violations, log)
            if errors:
                prepared.verify_failures[name] = ("cfg", out.result.function)
                continue
        if out.result.points_to.degraded:
            log.record(
                STAGE_PTA,
                name,
                REASON_BUDGET,
                detail="points-to conditions degraded to TRUE",
                line=func_ast.line,
            )
        prepared.functions[name] = out.result
        prepared.order.append(name)
        if out.seg is not None:
            prepared.segs[name] = out.seg

    prepared.seconds = time.perf_counter() - started
    prepared.reused = sum(1 for out in outcomes.values() if out.cached)
    prepared.digests = digest_of
    if memory is not None:
        memory.clear()
        for name in prepared.order:
            result = prepared.functions[name]
            if not result.points_to.degraded:
                memory[name] = (digest_of[name], result, prepared.segs.get(name))
    _log.info(
        "module prepared",
        functions=len(prepared.functions),
        quarantined=len(serial_order) - len(prepared.functions),
        jobs=effective_jobs,
        waves=len(waves),
        cached=prepared.reused,
    )
    return prepared


def _lookup(
    name: str,
    digest: str,
    memory: Optional[MemoryTier],
    store: Optional[SummaryStore],
) -> Optional[Tuple[PreparedFunction, Any]]:
    """(artifacts, SEG or None) for ``digest``: the in-memory tier first,
    then the disk store."""
    entry = memory.get(name) if memory is not None else None
    if entry is not None and entry[0] == digest:
        return entry[1], entry[2]
    if store is not None:
        hit = store.get(digest)
        if hit is not None:
            return hit[1], hit[2]
    return None


# ----------------------------------------------------------------------
def _run_inline(
    name: str,
    func_ast: ast.FuncDef,
    usable: Dict[str, Any],
    linear,
    budget: Optional[ResourceBudget],
    pta_tier: str = "fi",
) -> _Outcome:
    """In-process task execution: serial pipeline semantics.  The SEG is
    left to the engine, exactly as after ``prepare_module``."""
    try:
        with trace("prepare.fn", unit=name):
            fault_point("prepare", name)
            result = prepare_function(
                func_ast, usable, linear, budget=budget, pta_tier=pta_tier
            )
    except FATAL:
        raise
    except Exception as error:
        return _Outcome(
            "quarantined",
            stage=STAGE_PREPARE,
            detail=f"{type(error).__name__}: {error}",
            line=getattr(error, "line", 0) or 0,
        )
    return _Outcome("prepared", result=result)


def _decode_worker_result(
    raw: object, name: str, parent_uid: Optional[int] = None
) -> Tuple[_Outcome, Dict[str, float]]:
    """Turn one pool result (bytes or WorkerCrash) into an outcome plus
    the worker's dispatch-timing dict, merging the worker's metrics and
    spans into this process.  ``parent_uid`` is the local uid of the
    dispatching wave span: absorbed worker spans re-parent under it so
    the merged Chrome trace keeps its cross-process causality."""
    no_timings: Dict[str, float] = {}
    if isinstance(raw, WorkerCrash):
        return (
            _Outcome("quarantined", stage=STAGE_SCHED, detail=raw.detail),
            no_timings,
        )
    decode_started = time.perf_counter()
    try:
        outcome = pickle.loads(raw)
    except Exception as error:
        return (
            _Outcome(
                "quarantined",
                stage=STAGE_SCHED,
                detail=f"worker result unreadable: {type(error).__name__}: {error}",
            ),
            no_timings,
        )
    get_registry().counter(
        "sched.dispatch.result_decode_seconds", "Parent-side result unpickling"
    ).inc(time.perf_counter() - decode_started)
    kind = outcome[0]
    timings = outcome[-1]
    if kind == "ok":
        _kind, _name, result, seg, seg_error, registry, spans = outcome[:7]
        _absorb_worker_observability(registry, spans, parent_uid)
        if seg_error:
            _log.warning("worker SEG build failed", function=name, error=seg_error)
        return _Outcome("prepared", result=result, seg=seg), timings
    if kind == "error":
        _kind, _name, exc_type, message, line, registry, spans = outcome[:7]
        _absorb_worker_observability(registry, spans, parent_uid)
        return (
            _Outcome(
                "quarantined",
                stage=STAGE_PREPARE,
                detail=f"{exc_type}: {message}",
                line=line,
            ),
            timings,
        )
    return (
        _Outcome(
            "quarantined",
            stage=STAGE_SCHED,
            detail=f"worker returned unknown outcome kind {kind!r}",
        ),
        no_timings,
    )


def _absorb_worker_observability(
    registry: Optional[MetricsRegistry],
    spans: Optional[List[Span]],
    parent_uid: Optional[int] = None,
) -> None:
    if isinstance(registry, MetricsRegistry):
        get_registry().merge(registry)
    tracer = get_tracer()
    if tracer.enabled and spans:
        tracer.absorb(spans, parent=parent_uid)
