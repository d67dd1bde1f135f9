"""Per-function preparation pipeline (the left half of the paper's
Fig. 6 architecture).

Functions are processed bottom-up over the call graph so a caller is
transformed against its callees' already-computed connector signatures:

1. lower the AST to a CFG;
2. rewrite call sites against known callee signatures (Fig. 3(b));
3. run Mod/Ref on a throwaway SSA copy to find this function's own
   side effects;
4. rewrite the function's interface (Fig. 3(a)), registering its
   connector signature for upper-level callers;
5. convert to SSA and run the quasi path-sensitive points-to analysis,
   whose conditional data dependence feeds the SEG builder.

Calls to functions in the same call-graph SCC (recursion) are left
untransformed — the paper unrolls call-graph cycles once; such calls are
treated as opaque external calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir import cfg
from repro.ir.callgraph import CallGraph
from repro.ir.controldep import control_dependence
from repro.ir.gating import GateInfo
from repro.ir.lower import lower_program
from repro.ir.ssa import to_ssa
from repro.lang import ast
from repro.lang.parser import parse_program, parse_program_tolerant
from repro.obs.log import get_logger
from repro.obs.progress import get_progress
from repro.obs.trace import trace
from repro.pta.intraproc import PointsToAnalysis, PointsToResult
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import (
    REASON_BUDGET,
    REASON_PARSE_ERROR,
    STAGE_PARSE,
    STAGE_PREPARE,
    STAGE_PTA,
    DiagnosticLog,
)
from repro.robust.faults import fault_point
from repro.robust.quarantine import Quarantine
from repro.smt.linear_solver import LinearSolver
from repro.transform.connectors import (
    ConnectorSignature,
    transform_call_sites,
    transform_function_interface,
)
from repro.transform.modref import ModRefSummary, compute_modref

_log = get_logger("pipeline")


@dataclass
class PreparedFunction:
    """Everything later stages need about one function."""

    name: str
    function: cfg.Function  # transformed, SSA
    points_to: PointsToResult
    gates: GateInfo
    control_deps: Dict[str, list]
    signature: ConnectorSignature
    modref: ModRefSummary
    # Call sites where two distinct actual arguments may point to the
    # same object — violations of the paper's "distinct parameters do
    # not alias" soundiness assumption (§4.2, improvable with partial
    # transfer functions per Wilson & Lam).  Surfaced as diagnostics so
    # users know where the analysis may be unsound.
    alias_hazards: List[tuple] = field(default_factory=list)
    # Precision tier this function was prepared under ("fi" or "fs"),
    # and — on the fs tier — the sparse must-alias pass's result
    # (repro.pta.flowsense.FlowSenseResult) whose proofs justified any
    # flow-sensitive strong updates.  The verifier audits points_to
    # against it.
    pta_tier: str = "fi"
    flow: Optional[object] = None
    # Source line of the function header when these artifacts were
    # prepared.  Content keys ignore line numbers, so a function reused
    # after an edit above it keeps its old lines; the engine shifts its
    # report and diagnostic lines by the header's move.
    line: int = 0


@dataclass
class PreparedModule:
    functions: Dict[str, PreparedFunction] = field(default_factory=dict)
    callgraph: Optional[CallGraph] = None
    order: List[str] = field(default_factory=list)
    linear: LinearSolver = field(default_factory=LinearSolver)
    # Degradations and quarantines accumulated while building this
    # module (parse recovery, per-function preparation failures).  The
    # engine folds these into every CheckResult.
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    # Functions quarantined by the IR verifier, kept around (keyed by
    # name, valued ('cfg', Function)) so --dump-on-verify-fail can
    # render the offending artifact.
    verify_failures: Dict[str, tuple] = field(default_factory=dict)
    # SEGs built ahead of the engine (by scheduler workers or loaded
    # from the on-disk artifact cache).  The engine consumes these
    # instead of rebuilding; absence just means "build it yourself".
    segs: Dict[str, object] = field(default_factory=dict)
    # Surface ASTs of every successfully parsed function, kept so the
    # engine's per-function escalation path (--pta=fs) can re-prepare a
    # candidate function under the precise tier without re-parsing.
    asts: Dict[str, ast.FuncDef] = field(default_factory=dict)
    # Reuse bookkeeping of the wave scheduler (empty/0 after
    # prepare_module): each function's content-key digest, and how many
    # functions came from a reuse tier instead of being prepared.
    digests: Dict[str, str] = field(default_factory=dict)
    reused: int = 0
    # Wall seconds of the preparation loop that built this module.
    seconds: float = 0.0

    def __getitem__(self, name: str) -> PreparedFunction:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self):
        return iter(self.functions.values())


def prepare_module(
    program: ast.Program,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    verify: str = "",
    pta_tier: str = "fi",
) -> PreparedModule:
    """Run the preparation pipeline on a whole program.

    A function whose preparation raises is *quarantined*: it is dropped
    from the prepared module (recorded as a diagnostic) and its callers
    treat calls to it as opaque external calls — exactly the treatment
    same-SCC callees already get.  Nothing short of a fatal signal
    aborts the whole module.

    ``verify`` (``off``/``fast``/``full``, defaulting to the
    ``REPRO_VERIFY`` environment variable) runs the IR verifier on each
    prepared function; a function violating a structural invariant is
    quarantined just like one whose preparation crashed."""
    from repro.verify import MODE_OFF, record_violations, resolve_mode, timed_verify
    from repro.verify.ir_verifier import verify_function_ir

    started = time.perf_counter()
    verify_mode = resolve_mode(verify)
    prepared = PreparedModule()
    if diagnostics is not None:
        prepared.diagnostics = diagnostics
    linear = prepared.linear

    # Lower twice is avoided: we lower once for the call graph shape, then
    # re-lower per function for the throwaway Mod/Ref copy (lowering is
    # deterministic, but instruction uids differ; only the final SSA
    # function's uids matter downstream).
    with trace("lower", unit="<module>"):
        module = lower_program(program)
        callgraph = CallGraph(module)
    prepared.callgraph = callgraph
    order = callgraph.bottom_up_order()

    ast_by_name = {f.name: f for f in program.functions}
    prepared.asts = dict(ast_by_name)
    signatures: Dict[str, ConnectorSignature] = {}

    progress = get_progress()
    progress.set_stage("prepare", functions=len(order))
    progress.set_functions_total(len(order))

    log = prepared.diagnostics
    for name in order:
        func_ast = ast_by_name[name]

        usable = callgraph.published_callees(name, signatures)
        zone = Quarantine(log, STAGE_PREPARE, name, line=func_ast.line)
        with zone, trace("prepare.fn", unit=name):
            fault_point("prepare", name)
            result = prepare_function(
                func_ast, usable, linear, budget=budget, pta_tier=pta_tier
            )
        if zone.tripped:
            progress.tick(quarantined=1)
            continue
        if verify_mode != MODE_OFF:
            with timed_verify("ir"), trace("verify.ir", unit=name):
                violations = verify_function_ir(
                    result.function, result.control_deps, dom=result.gates.dom
                )
            if violations:
                errors = record_violations(violations, log)
                if errors:
                    prepared.verify_failures[name] = ("cfg", result.function)
                    progress.tick(quarantined=1)
                    continue
        if result.points_to.degraded:
            log.record(
                STAGE_PTA,
                name,
                REASON_BUDGET,
                detail="points-to conditions degraded to TRUE",
                line=func_ast.line,
            )
        signatures[name] = result.signature
        prepared.functions[name] = result
        prepared.order.append(name)
        progress.tick(prepared=1)
    prepared.seconds = time.perf_counter() - started
    _log.info(
        "module prepared",
        functions=len(prepared.functions),
        quarantined=len(order) - len(prepared.functions),
    )
    return prepared


def prepare_function(
    func_ast: ast.FuncDef,
    usable_signatures: Dict[str, ConnectorSignature],
    linear: Optional[LinearSolver] = None,
    budget: Optional[ResourceBudget] = None,
    pta_tier: str = "fi",
) -> PreparedFunction:
    """Run all per-function preparation stages for one function, given
    its callees' connector signatures.  This is the unit of work the
    incremental analyzer caches.

    ``pta_tier="fs"`` additionally runs the sparse flow-sensitive
    must-alias pass (:mod:`repro.pta.flowsense`) on the SSA function and
    feeds its proofs to the local points-to analysis, enabling strong
    updates through must-alias singleton pointers."""
    from repro.ir.lower import lower_function

    linear = linear or LinearSolver()

    # Per-function uid scope: instruction uids (and the loop-gate
    # variable names and SEG vertex identities derived from them) must
    # not depend on which process, or in what order, prepared this
    # function — that is what makes parallel and cache-warmed runs
    # byte-identical to serial ones.
    with cfg.scoped_uids():
        # Throwaway copy for Mod/Ref.
        scratch = lower_function(func_ast)
        transform_call_sites(scratch, usable_signatures)
        to_ssa(scratch)
        modref = compute_modref(scratch, linear=linear)

        # The real function: transform call sites + own interface, SSA.
        function = lower_function(func_ast)
        transform_call_sites(function, usable_signatures)
        signature = transform_function_interface(function, modref)
        to_ssa(function)

        gates = GateInfo(function)
        flow = None
        if pta_tier == "fs":
            from repro.pta.flowsense import FlowSensitivePTA

            with trace("pta.flowsense", unit=func_ast.name):
                flow = FlowSensitivePTA(function).run()
        analysis = PointsToAnalysis(
            function, gates=gates, linear=linear, budget=budget, flow=flow
        )
        points_to = analysis.run()
    return PreparedFunction(
        name=func_ast.name,
        function=function,
        points_to=points_to,
        gates=gates,
        control_deps=control_dependence(function),
        signature=signature,
        modref=modref,
        alias_hazards=_find_alias_hazards(function, points_to),
        pta_tier=pta_tier,
        flow=flow,
        line=func_ast.line,
    )


def _find_alias_hazards(function: cfg.Function, points_to: PointsToResult):
    """Call sites passing two possibly-aliasing actuals to distinct
    formal parameters — where the callee-side no-alias assumption may
    lose writes (paper §4.2)."""
    from repro.pta.memory import AllocObject

    def alloc_objects(var: cfg.Var):
        # Only allocation sites witness a real may-alias; the speculative
        # per-parameter aux object every formal carries does not.
        return {
            obj
            for obj, _ in points_to.pts(var.name)
            if isinstance(obj, AllocObject)
        }

    hazards = []
    for instr in function.all_instrs():
        if not isinstance(instr, cfg.Call) or instr.synthetic:
            continue
        pointer_args = [
            (index, arg, alloc_objects(arg))
            for index, arg in enumerate(instr.args)
            if isinstance(arg, cfg.Var)
        ]
        pointer_args = [entry for entry in pointer_args if entry[2]]
        for position, (i, lhs, lhs_objs) in enumerate(pointer_args):
            for j, rhs, rhs_objs in pointer_args[position + 1 :]:
                if lhs.name == rhs.name or lhs_objs & rhs_objs:
                    hazards.append((instr.uid, i, j, instr.line))
    return hazards


def prepare_source(
    source: str,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    recover: bool = False,
    verify: str = "",
    jobs: int = 1,
    store=None,
    worker_timeout: float = 0.0,
    pta_tier: str = "fi",
) -> PreparedModule:
    """Parse and prepare a program given as source text.

    With ``recover=True`` the parser quarantines malformed functions
    (recorded as ``parse`` diagnostics) instead of failing the whole
    program; input in which *nothing* parses still raises.

    ``jobs > 1`` prepares call-graph waves on a process pool and
    ``store`` (a :class:`repro.cache.SummaryStore`) persists/loads
    per-function artifacts; both route through the wave scheduler,
    which guarantees results identical to the serial path."""
    if budget is not None:
        budget.start()
    get_progress().set_stage("parse")
    if not recover:
        with trace("parse", unit="<module>"):
            program = parse_program(source)
        return _prepare(
            program, budget, diagnostics, verify, jobs, store, worker_timeout,
            pta_tier,
        )
    log = diagnostics if diagnostics is not None else DiagnosticLog()
    with trace("parse", unit="<module>") as span:
        program, errors = parse_program_tolerant(source)
        span.set(functions=len(program.functions), parse_errors=len(errors))
    for error in errors:
        log.record(
            STAGE_PARSE,
            getattr(error, "unit", "") or "<module>",
            REASON_PARSE_ERROR,
            detail=error.message,
            line=error.line,
        )
    return _prepare(
        program, budget, log, verify, jobs, store, worker_timeout, pta_tier
    )


def _prepare(
    program: ast.Program,
    budget: Optional[ResourceBudget],
    diagnostics: Optional[DiagnosticLog],
    verify: str,
    jobs: int,
    store,
    worker_timeout: float,
    pta_tier: str = "fi",
) -> PreparedModule:
    """Serial pipeline, or the wave scheduler when parallelism or the
    artifact cache is requested."""
    if jobs and jobs > 1 or store is not None:
        from repro.sched.scheduler import prepare_program

        return prepare_program(
            program,
            jobs=jobs or 1,
            budget=budget,
            diagnostics=diagnostics,
            verify=verify,
            store=store,
            worker_timeout=worker_timeout,
            pta_tier=pta_tier,
        )
    return prepare_module(
        program, budget, diagnostics, verify=verify, pta_tier=pta_tier
    )
