"""Incremental analysis: reuse per-function artifacts across runs.

Industrial static analysis is run on every commit, so re-analysis cost
matters as much as cold cost (the paper cites Coverity's incremental
scanning as the deployment context).  Pinpoint's architecture makes
function-level incrementality natural: everything stage 1-3 computes for
a function (connectors, points-to, SEG) depends only on

- the function's own AST, and
- the connector signatures of its (non-recursive) callees.

The :class:`IncrementalAnalyzer` keys each function's prepared artifacts
by exactly that pair (:func:`repro.cache.keys.prepare_cache_key`).
Re-analyzing an edited program reuses every function whose key is
unchanged; an edit that changes a callee's
*interface* (its Mod/Ref behaviour) transitively invalidates callers,
while a body-only edit re-analyzes just the one function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.engine import CheckMemo, EngineConfig, Pinpoint
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.sched.scheduler import MemoryTier, prepare_program


@dataclass
class IncrementalStats:
    analyzed: int = 0
    reused: int = 0

    @property
    def total(self) -> int:
        return self.analyzed + self.reused


class IncrementalAnalyzer:
    """Analyzes successive versions of a program, reusing artifacts.

    Preparation is the wave scheduler's loop
    (:func:`repro.sched.scheduler.prepare_program`) with this analyzer's
    previous run as its in-memory tier, so sessions get the same
    quarantine, verification and budget handling as ``repro check``.
    ``store`` (a :class:`repro.cache.SummaryStore`) adds the persistent
    tier behind it: a brand-new analyzer warm-starts from a cache
    directory populated by a previous process.
    """

    def __init__(
        self, config: Optional[EngineConfig] = None, store=None
    ) -> None:
        self.config = config
        self.store = store
        self._memory: MemoryTier = {}
        # Check-phase memo: per-checker, per-function summaries/reports
        # recorded by the engine so warm re-checks replay unchanged
        # functions instead of re-searching them (see
        # :class:`repro.core.engine.CheckMemo`).  The prepare tier
        # bounds re-*preparation* to the edit's invalidation cone; this
        # bounds the *checker pass* the same way.
        self.check_memo = CheckMemo()
        self.last_stats = IncrementalStats()

    def analyze(self, source: str, budget=None) -> Pinpoint:
        """Prepare (incrementally) and wrap in an engine."""
        program = parse_program(source)
        return self.analyze_program(program, budget=budget)

    @property
    def warm(self) -> bool:
        """Has this analyzer prepared at least one program already?
        (The service layer uses this to classify requests cold/warm.)"""
        return bool(self._memory)

    @property
    def cached_functions(self) -> int:
        return len(self._memory)

    def analyze_program(self, program: ast.Program, budget=None) -> Pinpoint:
        if budget is not None:
            budget.start()
        # Preparation runs on the fi tier, as in Pinpoint.from_source;
        # under --pta=fs the engine escalates report functions itself.
        prepared = prepare_program(
            program,
            budget=budget,
            verify=self.config.verify if self.config is not None else "",
            store=self.store,
            memory=self._memory,
        )
        self.last_stats = IncrementalStats(
            analyzed=len(prepared.asts) - prepared.reused,
            reused=prepared.reused,
        )
        self.check_memo.prune(set(prepared.asts))
        engine = Pinpoint(prepared, self.config, budget)
        engine.check_memo = self.check_memo
        # Harvest the SEGs this engine just built (before any check-time
        # fs escalation can swap functions to the precise tier, so the
        # kept SEG always matches the kept fi artifacts).
        for name, (digest, result, seg) in list(self._memory.items()):
            if seg is None and name in engine.functions:
                self._memory[name] = (digest, result, engine.functions[name].seg)
        return engine

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop one function's reusable artifacts, or everything."""
        if name is None:
            self._memory.clear()
        else:
            self._memory.pop(name, None)
        self.check_memo.invalidate(name)


def apply_function_edit(
    program: ast.Program, new_func: ast.FuncDef
) -> ast.Program:
    """A new program with one function's definition replaced.

    This is the single-function-delta entry point the analysis daemon's
    ``/v1/edit`` endpoint builds on: the caller parses just the edited
    function's text, splices it over the old definition here, and feeds
    the result back through :meth:`IncrementalAnalyzer.analyze_program`
    — where the AST x interface fingerprints confine re-preparation to
    the edited function (plus interface-invalidated callers).

    The input program is not mutated (sessions keep it as their current
    state until the re-check succeeds).  Raises ``KeyError`` when the
    program has no function of that name — an edit can change a body or
    interface, not add or remove functions (submit a full ``/v1/check``
    for structural changes).
    """
    if not any(f.name == new_func.name for f in program.functions):
        raise KeyError(new_func.name)
    return ast.Program(
        functions=[
            new_func if f.name == new_func.name else f
            for f in program.functions
        ]
    )
