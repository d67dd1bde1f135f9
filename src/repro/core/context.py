"""Cloning-based context sensitivity (paper Section 3.3.1(2)).

When a callee's summarized constraint is used at a call site, every
variable in it is renamed with a per-context suffix (``x.2`` becomes
``x.2~7``), so two call sites of the same function get independent
constraint copies — the cloning-based approach of Whaley & Lam / Lattner
et al. that the paper follows.

A :class:`Context` remembers which call site created it and in which
parent context, so formal parameters surfacing later inside the cloned
constraint can still be bound to the right actuals (the lazy part of
Equations (2) and (3)).

Cloning is memoized per (term, suffix).  A clone appends the context's
suffix to every variable, so the clone of any subterm depends only on
that subterm and the suffix, not on the root it was reached from or on
the call site.  Suffixes repeat a great deal: :meth:`ContextAllocator.reset`
restarts the ``~N`` idents for every function, and every checker clones
the same callee summaries again.  The memo is owned by the
:class:`~repro.core.engine.Pinpoint` engine, shared by all of its checker
runs and freed with it; its entries are terms the hash-consing factory
keeps anyway, so a hit returns the very object a fresh clone would build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir import cfg
from repro.smt import terms as T
from repro.smt.terms import Term


@dataclass(frozen=True)
class Context:
    """One clone of a function's constraints.

    ``None`` plays the role of the root context (the function the
    value-flow search started in), whose variables are never renamed.
    """

    ident: int
    function: str
    call: Optional[cfg.Call]  # the call site that created this clone
    parent: Optional["Context"]  # context the call site lives in

    @property
    def depth(self) -> int:
        depth = 0
        node: Optional[Context] = self
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def suffix(self) -> str:
        return f"~{self.ident}"


class ContextAllocator:
    """Allocates fresh contexts; one per engine run.

    The checker run calls :meth:`reset` before processing each function,
    so the idents a function's search allocates — and therefore the
    ``~N`` suffixes baked into its summarized conditions and report
    condition strings — depend only on that function's own artifacts and
    callee summaries, never on how much work preceded it in the run.
    That history-independence is what lets the session-level check memo
    replay a function's results byte-identically.  Suffix *chains* stay
    unambiguous because :func:`clone_term` renames every variable of the
    cloned constraint, so nested clones accumulate ``~i~j`` paths that
    are unique within the function even though idents restart.

    ``position`` is the ident of the last context handed out (0 after a
    reset).  The engine's memo of assembled path conditions keys each
    entry by the position at entry, because the idents an assembly
    allocates start right after it.  A hit then moves the position on by
    the number of contexts the original assembly allocated, so every
    later ident — and every report's condition string — stays
    byte-identical to a run without the memo."""

    def __init__(self) -> None:
        self.position = 0

    def reset(self) -> None:
        self.position = 0

    def new(
        self,
        function: str,
        call: Optional[cfg.Call],
        parent: Optional[Context],
    ) -> Context:
        self.position += 1
        return Context(self.position, function, call, parent)


def rename_var(name: str, context: Optional[Context]) -> str:
    return name if context is None else name + context.suffix()


def clone_term(
    term: Term, context: Optional[Context], memo: Optional[dict] = None
) -> Term:
    """Rename every variable in ``term`` into ``context``.

    ``memo`` (suffix -> {term id: clone}) carries clones across calls;
    the engine passes its own so each (subterm, suffix) pair is rebuilt
    once per engine.  Without one, the call starts from an empty memo.
    Either way the result is the hash-consed term that renaming every
    variable ``v`` to ``v + context.suffix()`` builds.
    """
    if context is None:
        return term
    if memo is None:
        memo = {}
    return T.FACTORY.add_suffix(term, context.suffix(), memo)


def ctx_ivar(name: str, context: Optional[Context]) -> Term:
    return T.int_var(rename_var(name, context))


def ctx_bvar(name: str, context: Optional[Context]) -> Term:
    return T.bool_var(rename_var(name, context))
