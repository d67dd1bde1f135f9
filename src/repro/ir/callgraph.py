"""Call graph construction and bottom-up ordering.

Pinpoint analyzes functions bottom-up (callees before callers, Section 2),
so callee SEGs and summaries exist when a caller is processed.  Recursive
cycles are collapsed into SCCs (Tarjan); within an SCC we follow the
paper's soundy policy of unrolling call-graph cycles once — calls to
functions in the same SCC are treated as external calls (no summary) on
the second encounter.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Mapping, Set, TypeVar

from repro.ir import cfg

T = TypeVar("T")


class CallGraph:
    def __init__(self, module: cfg.Module) -> None:
        self.module = module
        self.callees: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self.call_sites: Dict[str, List[cfg.Call]] = {}
        for function in module:
            self.callees.setdefault(function.name, set())
            self.callers.setdefault(function.name, set())
        for function in module:
            for instr in function.all_instrs():
                if isinstance(instr, cfg.Call) and instr.callee in module:
                    self.callees[function.name].add(instr.callee)
                    self.callers[instr.callee].add(function.name)
                    self.call_sites.setdefault(instr.callee, []).append(instr)

    # ------------------------------------------------------------------
    def sccs(self) -> List[List[str]]:
        """Tarjan SCCs in reverse topological (bottom-up) order."""
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        index: Dict[str, int] = {}
        on_stack: Set[str] = set()
        result: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan to survive deep synthetic call chains.
            work = [(node, iter(sorted(self.callees.get(node, ()))))]
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.callees.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[current] = min(lowlink[current], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        scc.append(member)
                        if member == current:
                            break
                    result.append(scc)

        for name in sorted(self.callees):
            if name not in index:
                strongconnect(name)
        return result

    def bottom_up_order(self) -> List[str]:
        """Function names, callees before callers."""
        order: List[str] = []
        for scc in self.sccs():
            order.extend(sorted(scc))
        return order

    @cached_property
    def scc_of(self) -> Dict[str, int]:
        """Function name -> index of its SCC in :meth:`sccs` order."""
        return {m: index for index, scc in enumerate(self.sccs()) for m in scc}

    def published_callees(
        self, name: str, published: Mapping[str, T]
    ) -> Dict[str, T]:
        """``{callee: published[callee]}`` for the callees of ``name``
        outside its SCC that appear in ``published``.

        This is everything a function's preparation may read of other
        functions (paper §3.3): same-SCC calls stay opaque (recursion is
        unrolled once), and functions it does not call are irrelevant."""
        scc = self.scc_of.get(name)
        return {
            callee: published[callee]
            for callee in sorted(self.callees.get(name, ()))
            if callee in published and self.scc_of[callee] != scc
        }

    def is_recursive_call(self, caller: str, callee: str) -> bool:
        """Whether caller and callee share an SCC (mutual/self recursion)."""
        scc_of = self.scc_of
        return caller == callee or scc_of.get(caller, -1) == scc_of.get(callee, -2)
