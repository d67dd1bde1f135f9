"""Property-based tests (hypothesis) for core data structures and
invariants."""

from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import CHECKERS
from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.smt.simplify import simplify
from repro.smt.solver import Result, SMTSolver
from repro.synth.generator import GeneratorConfig, generate_program
from repro.synth.precision import generate_precision_suite, suite_source


# ----------------------------------------------------------------------
# Term strategies
# ----------------------------------------------------------------------
_names = st.sampled_from(["a", "b", "c", "d", "e"])
_int_names = st.sampled_from(["x", "y", "z"])


@st.composite
def bool_terms(draw, depth=3):
    if depth == 0:
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return T.bool_var(draw(_names))
        if choice == 1:
            return T.TRUE if draw(st.booleans()) else T.FALSE
        lhs = T.int_var(draw(_int_names))
        rhs_choice = draw(st.integers(0, 1))
        rhs = (
            T.const(draw(st.integers(-5, 5)))
            if rhs_choice
            else T.int_var(draw(_int_names))
        )
        op = draw(st.sampled_from([T.eq, T.ne, T.lt, T.le, T.gt, T.ge]))
        return op(lhs, rhs)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return T.not_(draw(bool_terms(depth=depth - 1)))
    if choice == 1:
        return T.and_(
            draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))
        )
    if choice == 2:
        return T.or_(
            draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))
        )
    return draw(bool_terms(depth=0))


# ----------------------------------------------------------------------
# Hash-consing invariants
# ----------------------------------------------------------------------
@given(bool_terms())
@settings(max_examples=200, deadline=None)
def test_terms_hash_consed(term):
    """Rebuilding the same structure yields the identical object."""
    rebuilt = _rebuild(term)
    assert rebuilt is term


def _rebuild(term):
    if not term.args:
        return term
    args = tuple(_rebuild(a) for a in term.args)
    return T.FACTORY._rebuild(term.kind, args)


@given(bool_terms())
@settings(max_examples=200, deadline=None)
def test_double_negation_is_identity(term):
    assert T.not_(T.not_(term)) is term


@given(bool_terms(), bool_terms())
@settings(max_examples=200, deadline=None)
def test_and_or_commutative(a, b):
    assert T.and_(a, b) is T.and_(b, a)
    assert T.or_(a, b) is T.or_(b, a)


@given(bool_terms(), bool_terms(), bool_terms())
@settings(max_examples=100, deadline=None)
def test_and_associative(a, b, c):
    assert T.and_(T.and_(a, b), c) is T.and_(a, T.and_(b, c))


@given(bool_terms(depth=0))
@settings(max_examples=200, deadline=None)
def test_atom_contradiction_always_false(term):
    """Syntactic complement detection is guaranteed at the atom level
    (conjunction flattening can hide deeper pairs — those are caught by
    the solvers, see test_smt_excluded_middle)."""
    assert T.and_(term, T.not_(term)) is T.FALSE
    assert T.or_(term, T.not_(term)) is T.TRUE


# ----------------------------------------------------------------------
# Evaluation-based semantics oracle
# ----------------------------------------------------------------------
def _evaluate(term, bool_env, int_env):
    kind = term.kind
    if term is T.TRUE:
        return True
    if term is T.FALSE:
        return False
    if kind == "bvar":
        return bool_env[term.value]
    if kind == "ivar":
        return int_env[term.value]
    if kind == "const":
        return term.value
    if kind == "not":
        return not _evaluate(term.args[0], bool_env, int_env)
    if kind == "and":
        return all(_evaluate(a, bool_env, int_env) for a in term.args)
    if kind == "or":
        return any(_evaluate(a, bool_env, int_env) for a in term.args)
    lhs = _evaluate(term.args[0], bool_env, int_env)
    rhs = _evaluate(term.args[1], bool_env, int_env) if len(term.args) > 1 else None
    return {
        "eq": lambda: lhs == rhs,
        "ne": lambda: lhs != rhs,
        "lt": lambda: lhs < rhs,
        "le": lambda: lhs <= rhs,
        "gt": lambda: lhs > rhs,
        "ge": lambda: lhs >= rhs,
        "add": lambda: lhs + rhs,
        "sub": lambda: lhs - rhs,
        "mul": lambda: lhs * rhs,
        "neg": lambda: -lhs,
    }[kind]()


_envs = st.fixed_dictionaries(
    {
        "bools": st.fixed_dictionaries(
            {name: st.booleans() for name in ["a", "b", "c", "d", "e"]}
        ),
        "ints": st.fixed_dictionaries(
            {name: st.integers(-5, 5) for name in ["x", "y", "z"]}
        ),
    }
)


@given(bool_terms(), _envs)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_semantics(term, envs):
    simple = simplify(term)
    original = _evaluate(term, envs["bools"], envs["ints"])
    simplified = _evaluate(simple, envs["bools"], envs["ints"])
    assert original == simplified


@given(bool_terms(), _envs)
@settings(max_examples=150, deadline=None)
def test_smt_sat_respects_witness(term, envs):
    """If a concrete environment satisfies the term, the solver must not
    answer UNSAT (soundness of the UNSAT answer)."""
    if _evaluate(term, envs["bools"], envs["ints"]):
        assert SMTSolver().check(term) is not Result.UNSAT


@given(bool_terms())
@settings(max_examples=75, deadline=None)
def test_smt_excluded_middle(term):
    """term | !term is always satisfiable; term & !term never."""
    solver = SMTSolver()
    assert solver.check(T.or_(term, T.not_(term))) is Result.SAT
    assert solver.check(T.and_(term, T.not_(term))) is Result.UNSAT


@given(bool_terms(), _envs)
@settings(max_examples=150, deadline=None)
def test_linear_solver_never_flags_satisfiable(term, envs):
    """The linear filter must never flag a condition some environment
    satisfies (it only catches genuine contradictions)."""
    if _evaluate(term, envs["bools"], envs["ints"]):
        assert not LinearSolver().is_obviously_unsat(term)


@given(bool_terms())
@settings(max_examples=100, deadline=None)
def test_linear_solver_agrees_with_smt(term):
    """Anything the linear solver flags, the SMT solver refutes too."""
    if LinearSolver().is_obviously_unsat(term):
        assert SMTSolver().check(term) is Result.UNSAT


# ----------------------------------------------------------------------
# Renaming invariants
# ----------------------------------------------------------------------
@given(bool_terms())
@settings(max_examples=150, deadline=None)
def test_rename_roundtrip(term):
    mapping = {name: name + "~1" for name in term.variables()}
    inverse = {v: k for k, v in mapping.items()}
    renamed = T.FACTORY.rename(term, mapping)
    assert T.FACTORY.rename(renamed, inverse) is term


@given(bool_terms())
@settings(max_examples=150, deadline=None)
def test_rename_variables_disjoint(term):
    mapping = {name: name + "~ctx" for name in term.variables()}
    renamed = T.FACTORY.rename(term, mapping)
    if mapping:
        assert not (renamed.variables() & term.variables())


@given(bool_terms(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_memoized_clone_matches_rename(term, i, j):
    """Context cloning through a shared memo returns the very term the
    reference rename builds, on a memo miss and on a memo hit, for a
    clone and for a clone of that clone (suffix chain ``~i~j``)."""
    from repro.core.context import Context, clone_term

    outer = Context(i, "f", None, None)
    inner = Context(j, "g", None, outer)

    def oracle(t, context):
        suffix = context.suffix()
        return T.FACTORY.rename(t, {v: v + suffix for v in t.variables()})

    memo: dict = {}
    once = oracle(term, outer)
    assert clone_term(term, outer, memo) is once  # miss: the memo was empty
    assert term.ident in memo[outer.suffix()]
    assert clone_term(term, outer, memo) is once  # hit
    assert clone_term(term, outer) is once  # no memo at all

    twice = oracle(once, inner)
    assert clone_term(once, inner, memo) is twice
    assert once.ident in memo[inner.suffix()]
    assert clone_term(once, inner, memo) is twice  # hit


# ----------------------------------------------------------------------
# Engine-wide assembly memo: transparent and checker-order independent
# ----------------------------------------------------------------------
_CORPUS = sorted(
    str(path) for path in (Path(__file__).parent / "corpus").glob("*.pin")
)
_CHECKER_NAMES = sorted(CHECKERS)


def _check_capturing(engine, name):
    """Run checker ``name`` on ``engine``: its reports, diagnostics and
    the summaries of its (last) bottom-up pass, function by function."""
    from repro.core import engine as engine_mod

    passes = []
    finish = engine_mod._CheckerRun.finish

    def capturing(run):
        passes.append(dict(run.summaries))
        return finish(run)

    with mock.patch.object(engine_mod._CheckerRun, "finish", capturing):
        result = engine.check(CHECKERS[name]())
    return result.reports, result.diagnostics, passes[-1]


class _NeverStores(dict):
    """An assembly memo that never hits: every condition is built."""

    def __setitem__(self, key, value):
        pass


def _assert_memo_transparent(source, tier, order):
    """One engine runs all six checkers in ``order``, sharing its
    assembly memo; each checker's reports, diagnostics and per-function
    summaries (constraints included) must equal those of a fresh engine
    that builds every condition itself."""
    from repro.core.engine import EngineConfig, Pinpoint

    def engine():
        return Pinpoint.from_source(
            source, EngineConfig(pta_tier=tier), recover=True, jobs=1
        )

    shared = engine()
    together = {name: _check_capturing(shared, name) for name in order}
    for name in order:
        fresh = engine()
        fresh.assembly_memo = _NeverStores()
        assert together[name] == _check_capturing(fresh, name), name


@pytest.mark.parametrize("tier", ["fi", "fs"])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    order=st.permutations(_CHECKER_NAMES),
)
@settings(max_examples=6, deadline=None)
def test_assembly_memo_transparent_on_generated_programs(tier, seed, order):
    source = generate_program(
        GeneratorConfig(seed=seed, target_lines=250, taint_period=3)
    ).source
    _assert_memo_transparent(source, tier, order)


@pytest.mark.parametrize("tier", ["fi", "fs"])
@pytest.mark.parametrize(
    "subject", [*_CORPUS, "precision"], ids=lambda subject: Path(subject).name
)
@given(order=st.permutations(_CHECKER_NAMES))
@settings(max_examples=2, deadline=None)
def test_assembly_memo_transparent_on_corpus(tier, subject, order):
    # "precision" is the curated fs-tier suite, whose strong updates make
    # escalation swap functions between the two passes of a checker.
    if subject == "precision":
        source = suite_source(generate_precision_suite())
    else:
        source = Path(subject).read_text()
    _assert_memo_transparent(source, tier, order)
