"""Call-graph condensation into parallel waves.

The bottom-up phase is embarrassingly parallel *across* call-graph SCCs
at the same depth: a function's stage 1-3 artifacts depend only on its
own AST plus the connector signatures of its (non-recursive) callees,
so once every callee SCC is prepared, all SCCs whose dependencies are
satisfied can be prepared concurrently.

``scc_waves`` condenses the call graph (Tarjan SCCs, already computed
bottom-up by :class:`~repro.ir.callgraph.CallGraph`) and assigns each
SCC a *wave*: ``wave(S) = 1 + max(wave(T) for callee SCCs T)``, leaves
at wave 0.  Every function in wave *k* can be prepared as soon as waves
``< k`` are merged — that is the scheduler's barrier.

Determinism: SCCs within a wave keep their bottom-up (Tarjan) order and
members within an SCC are sorted, so flattening the waves visits
functions in a reproducible order.  Note this *wave order* is only used
for dispatch; the merged module always presents functions in the exact
serial ``bottom_up_order`` so downstream passes (and reports) are
byte-identical to a ``--jobs 1`` run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.callgraph import CallGraph


def scc_waves(callgraph: CallGraph) -> List[List[List[str]]]:
    """Waves of SCCs: ``waves[k]`` lists the SCCs whose callee SCCs all
    live in waves ``< k``.  Each SCC is a sorted list of member names."""
    sccs = callgraph.sccs()  # bottom-up: callees before callers
    scc_of = callgraph.scc_of

    level: Dict[int, int] = {}
    for index, scc in enumerate(sccs):
        depth = 0
        for member in scc:
            for callee in callgraph.callees.get(member, ()):
                target = scc_of.get(callee)
                if target is None or target == index:
                    continue  # external or same-SCC (recursion)
                # Bottom-up order guarantees callee SCCs come earlier.
                depth = max(depth, level[target] + 1)
        level[index] = depth

    if not sccs:
        return []
    waves: List[List[List[str]]] = [[] for _ in range(max(level.values()) + 1)]
    for index, scc in enumerate(sccs):
        waves[level[index]].append(sorted(scc))
    return waves


def wave_sizes(waves: List[List[List[str]]]) -> List[int]:
    """Functions per wave (for metrics and the docs' examples)."""
    return [sum(len(scc) for scc in wave) for wave in waves]
