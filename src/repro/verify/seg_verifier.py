"""SEG verifier: well-formedness per the paper's Definition 3.2.

Checks one function's symbolic expression graph against the IR it was
built from: every edge connects registered vertices and is indexed both
ways, def/use vertices resolve to real definitions and operand uses,
control-dependence gates name actual branch conditions, and the Aux
formal/return lists pair exactly with the connector signature the
``transform`` stage produced (Fig. 3).

:func:`verify_call_interfaces` is the module-wide companion: it checks
that every call site to a defined callee carries one extra receiver per
callee Aux return (recursive, same-SCC calls legitimately stay
untransformed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir import cfg
from repro.ir.ssa import base_name
from repro.pta.memory import aux_param_name, aux_return_name
from repro.seg.graph import SEG
from repro.verify.ir_verifier import instr_defs
from repro.verify.violation import Violation


def verify_seg(seg: SEG, prepared) -> List[Violation]:
    """Check one function's SEG; ``prepared`` is its PreparedFunction."""
    function: cfg.Function = prepared.function
    unit = function.name
    violations: List[Violation] = []

    # ----------------------------- seg-dangling-edge / seg-index-symmetry
    # Edges with an unregistered endpoint are reported as dangling and
    # excluded from the symmetry comparison (they are already broken;
    # double-reporting would mask the root cause).
    def well_formed_edges(index: Dict) -> Set[int]:
        ids = set()
        for key, edges in index.items():
            for edge in edges:
                if edge.src not in seg.vertices or edge.dst not in seg.vertices:
                    violations.append(
                        Violation(
                            "seg-dangling-edge",
                            unit,
                            f"edge {edge.src} -> {edge.dst} has an "
                            "unregistered endpoint",
                        )
                    )
                else:
                    ids.add(id(edge))
        return ids

    out_ids = well_formed_edges(seg.out_edges)
    in_ids = well_formed_edges(seg.in_edges)
    if out_ids != in_ids:
        only_out = len(out_ids - in_ids)
        only_in = len(in_ids - out_ids)
        violations.append(
            Violation(
                "seg-index-symmetry",
                unit,
                f"{only_out} edge(s) missing from the in-index, "
                f"{only_in} missing from the out-index",
            )
        )
    # An edge filed under the wrong key is also an index corruption.
    for src, edges in seg.out_edges.items():
        for edge in edges:
            if edge.src != src:
                violations.append(
                    Violation(
                        "seg-index-symmetry",
                        unit,
                        f"edge {edge.src} -> {edge.dst} filed under "
                        f"out-key {src}",
                    )
                )
    for dst, edges in seg.in_edges.items():
        for edge in edges:
            if edge.dst != dst:
                violations.append(
                    Violation(
                        "seg-index-symmetry",
                        unit,
                        f"edge {edge.src} -> {edge.dst} filed under "
                        f"in-key {dst}",
                    )
                )

    # ------------------------------ seg-def-unresolved / seg-use-anchor
    defined: Set[str] = set(function.params) | set(function.aux_params)
    for instr in _iter_instrs(function):
        defined.update(instr_defs(instr))
    for key in seg.vertices:
        kind = key[0]
        if kind == "def":
            name = key[1]
            # Bare names are source-level undefined variables and
            # ``x.undef`` marks definition-free phi paths; both are
            # deliberate free values, not graph corruption.
            if name in defined or "." not in name or name.endswith(".undef"):
                continue
            violations.append(
                Violation(
                    "seg-def-unresolved",
                    unit,
                    f"def vertex names unknown SSA variable {name!r}",
                )
            )
        elif kind == "use":
            name, uid = key[1], key[2]
            instr = seg.instr_by_uid.get(uid)
            if instr is None:
                violations.append(
                    Violation(
                        "seg-use-anchor",
                        unit,
                        f"use vertex {name!r} anchored at unknown "
                        f"statement uid {uid}",
                    )
                )
            elif name not in instr.used_vars():
                violations.append(
                    Violation(
                        "seg-use-anchor",
                        unit,
                        f"use vertex {name!r} anchored at {instr!r}, "
                        "which does not read it",
                        line=instr.line,
                    )
                )
        elif kind in ("const", "op"):
            uid = key[-1]
            if uid not in seg.instr_by_uid:
                violations.append(
                    Violation(
                        "seg-use-anchor",
                        unit,
                        f"{kind} vertex anchored at unknown statement "
                        f"uid {uid}",
                    )
                )

    # -------------------------------------------------- seg-gate-condition
    branch_conds: Set[str] = set()
    for block in function.blocks.values():
        term = block.terminator
        if isinstance(term, cfg.Branch) and isinstance(term.cond, cfg.Var):
            branch_conds.add(term.cond.name)
    for uid, controls in seg.control.items():
        if uid not in seg.instr_by_uid:
            violations.append(
                Violation(
                    "seg-gate-condition",
                    unit,
                    f"control entry for unknown statement uid {uid}",
                )
            )
        for cond_var, _taken in controls:
            if cond_var not in branch_conds:
                violations.append(
                    Violation(
                        "seg-gate-condition",
                        unit,
                        f"gate references {cond_var!r}, which is not the "
                        "condition of any Branch",
                    )
                )

    violations.extend(_verify_aux_pairing(function, prepared.signature))
    return violations


def _verify_aux_pairing(function: cfg.Function, signature) -> List[Violation]:
    """The connector model's Fig. 3 contract between the transformed
    function body and its advertised signature."""
    unit = function.name
    violations: List[Violation] = []
    if len(function.aux_params) != len(signature.aux_params):
        violations.append(
            Violation(
                "aux-pairing",
                unit,
                f"{len(function.aux_params)} Aux formal(s) vs "
                f"{len(signature.aux_params)} in the signature",
            )
        )
    else:
        for ssa_name, (param, depth) in zip(
            function.aux_params, signature.aux_params
        ):
            expected = aux_param_name(param, depth)
            if base_name(ssa_name) != expected:
                violations.append(
                    Violation(
                        "aux-pairing",
                        unit,
                        f"Aux formal {ssa_name!r} does not match the "
                        f"signature's {expected!r}",
                    )
                )
    if len(function.aux_returns) != len(signature.aux_returns):
        violations.append(
            Violation(
                "aux-pairing",
                unit,
                f"{len(function.aux_returns)} Aux return(s) vs "
                f"{len(signature.aux_returns)} in the signature",
            )
        )
    else:
        for name, (param, depth) in zip(
            function.aux_returns, signature.aux_returns
        ):
            expected = aux_return_name(param, depth)
            if base_name(name) != expected:
                violations.append(
                    Violation(
                        "aux-pairing",
                        unit,
                        f"Aux return {name!r} does not match the "
                        f"signature's {expected!r}",
                    )
                )
    for ret in function.return_instrs():
        if len(ret.extra_values) != len(function.aux_returns):
            violations.append(
                Violation(
                    "aux-pairing",
                    unit,
                    f"return carries {len(ret.extra_values)} extra "
                    f"value(s) for {len(function.aux_returns)} Aux "
                    "return(s)",
                    line=ret.line,
                )
            )
    return violations


def verify_call_interfaces(module) -> List[Violation]:
    """Module-wide Aux pairing at call sites (``full`` mode only).

    A call to a defined callee outside the caller's SCC must carry one
    extra receiver per callee Aux return; same-SCC calls are expected to
    stay untransformed (the paper unrolls call-graph cycles once).  With
    no call graph available, only transformed calls are checked.
    """
    violations: List[Violation] = []
    scc_of: Dict[str, int] = (
        module.callgraph.scc_of if module.callgraph is not None else {}
    )
    for prepared in module:
        caller = prepared.name
        for instr in _iter_instrs(prepared.function):
            if not isinstance(instr, cfg.Call) or instr.callee not in module:
                continue
            callee_sig = module[instr.callee].signature
            expected = len(callee_sig.aux_returns)
            got = len(instr.extra_receivers)
            same_scc = (
                scc_of.get(caller) is not None
                and scc_of.get(caller) == scc_of.get(instr.callee)
            )
            if same_scc or (not scc_of and got == 0):
                # Untransformed by design (or indistinguishable from it
                # without a call graph).
                if got != 0:
                    violations.append(
                        Violation(
                            "call-aux-pairing",
                            caller,
                            f"same-SCC call to {instr.callee!r} carries "
                            f"{got} extra receiver(s); expected none",
                            line=instr.line,
                        )
                    )
                continue
            if got != expected:
                violations.append(
                    Violation(
                        "call-aux-pairing",
                        caller,
                        f"call to {instr.callee!r} carries {got} extra "
                        f"receiver(s) for {expected} Aux return(s)",
                        line=instr.line,
                    )
                )
    return violations


def _iter_instrs(function: cfg.Function):
    """All instructions, unreachable blocks included, without assuming a
    well-formed CFG (``block_order`` would)."""
    for block in function.blocks.values():
        yield from block.all_instrs()
