"""Performance regression guards.

Generous wall-clock bounds that only trip on order-of-magnitude
regressions (an accidental quadratic loop, a lost memo table), not on
machine noise.
"""

import time

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.synth.generator import GeneratorConfig, generate_program


def test_thousand_line_program_under_budget():
    program = generate_program(GeneratorConfig(seed=99, target_lines=1000))
    start = time.perf_counter()
    engine = Pinpoint.from_source(program.source)
    engine.check(UseAfterFreeChecker())
    elapsed = time.perf_counter() - start
    # Typically ~0.5 s; 30 s only trips on a complexity regression.
    assert elapsed < 30, f"1k-line analysis took {elapsed:.1f}s"


def test_term_factory_shares_subterms():
    from repro.smt import terms as T

    before = T.FACTORY.size()
    a = T.bool_var("perf_a")
    parts = [T.or_(a, T.bool_var(f"perf_{i}")) for i in range(100)]
    first = T.and_(*parts)
    second = T.and_(*parts)
    assert first is second
    created = T.FACTORY.size() - before
    # 1 var + 100 vars + 100 ors + 1 and, plus the negations the
    # complement checks materialize (~2 per or).  Order-of-magnitude
    # guard: sharing failure would create thousands.
    assert created < 600


def test_deep_negation_linear():
    # Regression guard for the De Morgan memo: negating a deep nest must
    # not be exponential.
    from repro.smt import terms as T

    term = T.bool_var("z0")
    for i in range(200):
        term = T.or_(T.and_(term, T.bool_var(f"zg{i}")), T.bool_var(f"zh{i}"))
    start = time.perf_counter()
    negated = T.not_(term)
    assert T.not_(negated) is term
    assert time.perf_counter() - start < 5


def test_linear_solver_scales_with_sharing():
    from repro.smt import terms as T
    from repro.smt.linear_solver import LinearSolver

    base = T.and_(*[T.bool_var(f"ls{i}") for i in range(200)])
    solver = LinearSolver()
    start = time.perf_counter()
    for i in range(200):
        solver.is_obviously_unsat(T.and_(base, T.bool_var(f"extra{i}")))
    assert time.perf_counter() - start < 5


def test_disabled_tracing_overhead_is_negligible():
    # trace() with tracing off must stay a constant-time no-op: one
    # attribute load, one truth test, one shared handle.  Guard both the
    # cost and the "no spans collected" invariant.
    from repro.obs.trace import NULL_SPAN, Tracer, set_tracer, trace

    old = set_tracer(Tracer(enabled=False))
    try:
        assert trace("hot.path", unit="f") is NULL_SPAN
        start = time.perf_counter()
        for _ in range(100_000):
            with trace("hot.path"):
                pass
        elapsed = time.perf_counter() - start
    finally:
        set_tracer(old)
    # ~30 ms typical; 5 s only trips if the fast path grows real work.
    assert elapsed < 5, f"100k disabled spans took {elapsed:.2f}s"


def test_disabled_tracing_collects_nothing():
    from repro.obs.trace import Tracer, set_tracer, trace

    old = set_tracer(Tracer(enabled=False))
    try:
        with trace("a", unit="f") as span:
            span.set(ignored=True)
        from repro.obs.trace import get_tracer

        assert get_tracer().spans == []
    finally:
        set_tracer(old)


def test_happens_after_reachability_cached():
    source_lines = ["fn f(a) {"]
    for i in range(50):
        source_lines.append(f"    if (a > {i}) {{ a = a + 1; }}")
    source_lines.append("    p = malloc();")
    source_lines.append("    free(p);")
    source_lines.append("    x = *p;")
    source_lines.append("    return x;")
    source_lines.append("}")
    start = time.perf_counter()
    result = Pinpoint.from_source("\n".join(source_lines)).check(
        UseAfterFreeChecker()
    )
    assert len(result) == 1
    assert time.perf_counter() - start < 20


def test_verify_fast_overhead_under_ten_percent():
    # --verify=fast must stay a cheap structural sweep: its recorded
    # wall time (the verify.seconds counter) is bounded to <10% of the
    # whole analysis on a 1k-line program.  The ratio is measured over
    # three runs and the best is kept: the absolute times are a few
    # hundred milliseconds, so a single garbage-collection pause landing
    # inside the verifier (whose trigger is whatever the rest of the
    # test suite left on the heap) would otherwise dominate the ratio.
    import gc

    from repro import EngineConfig
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    program = generate_program(GeneratorConfig(seed=99, target_lines=1000))
    ratios = []
    verify_ran = False
    for _ in range(3):
        old = get_registry()
        set_registry(MetricsRegistry())
        try:
            gc.collect()
            start = time.perf_counter()
            engine = Pinpoint.from_source(
                program.source, EngineConfig(verify="fast")
            )
            engine.check(UseAfterFreeChecker())
            elapsed = time.perf_counter() - start
            verify_seconds = get_registry().counter("verify.seconds").total()
        finally:
            set_registry(old)
        verify_ran = verify_ran or verify_seconds > 0
        ratios.append(verify_seconds / elapsed)
        if ratios[-1] < 0.10:
            break
    assert verify_ran, "fast mode should have run the verifier"
    assert min(ratios) < 0.10, (
        f"verifier consistently above 10% of analysis time across "
        f"{len(ratios)} runs: " + ", ".join(f"{100 * r:.1f}%" for r in ratios)
    )


def test_task_payload_does_not_grow_with_program_size():
    # A pool task carries its own AST plus its callees' signatures, so
    # the mean payload stays flat as the program grows.  Carrying every
    # published signature instead grows it ~4x from 1k to 5k lines.
    from repro.lang.parser import parse_program
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
    from repro.sched.scheduler import prepare_program

    previous = get_registry()
    per_task = []
    try:
        for lines in (1000, 5000):
            registry = set_registry(MetricsRegistry())
            source = generate_program(
                GeneratorConfig(seed=1, target_lines=lines)
            ).source
            prepare_program(parse_program(source), jobs=2)
            tasks = registry.get("sched.tasks").total()
            per_task.append(
                registry.get("sched.dispatch.serialize_bytes").total() / tasks
            )
    finally:
        set_registry(previous)
    small, large = per_task
    assert large < 1.25 * small, f"payload per task {small:.0f} -> {large:.0f} B"


def test_clone_work_does_not_grow_with_identical_callers(monkeypatch):
    # Every caller below splices the same callee summary into the same
    # context suffix (idents restart per function), so the engine's
    # clone memo rebuilds its nodes once.  Without the memo the rebuild
    # count grows with the number of callers (8x from 10 to 80).
    from repro.cli import CHECKERS
    from repro.smt import terms as T

    callee = (
        "fn release(p, c) {\n"
        "    if (c > 3) {\n"
        "        free(p);\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    )
    caller = (
        "fn caller{i}(c) {{\n"
        "    p = malloc();\n"
        "    r = release(p, c);\n"
        "    x = *p;\n"
        "    return x;\n"
        "}}\n"
    )
    original = T.FACTORY._rebuild
    calls = [0]

    def counting(kind, args):
        calls[0] += 1
        return original(kind, args)

    monkeypatch.setattr(T.FACTORY, "_rebuild", counting)
    counts = []
    for callers in (10, 80):
        source = callee + "".join(caller.format(i=i) for i in range(callers))
        engine = Pinpoint.from_source(source)
        calls[0] = 0
        results = [engine.check(checker()) for checker in CHECKERS.values()]
        counts.append(calls[0])
        assert sum(len(result.reports) for result in results) >= callers
    small, large = counts
    assert 0 < small and large < 1.25 * small, f"rebuilds {small} -> {large}"


def test_history_recording_overhead_under_two_x(tmp_path):
    # A history-recorded check reads its wall time and peak RSS from
    # outside the analysis.  Wrapping the run in tracemalloc instead
    # made it 5-6x slower than a plain check.  Best of two runs each,
    # after a warm-up run, so the shared term table is equally warm.
    import contextlib
    import io

    from repro.cli import main

    subject = tmp_path / "g2000.pin"
    subject.write_text(
        generate_program(GeneratorConfig(seed=1, target_lines=2000)).source
    )
    history = tmp_path / "history"

    def timed(*extra):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", str(subject), "--all", "--json", *extra])
        assert code in (0, 1)
        return time.perf_counter() - start

    timed()
    plain = min(timed() for _ in range(2))
    recorded = min(timed("--history-dir", str(history)) for _ in range(2))
    assert any(history.iterdir()), "the recorded run wrote no history"
    assert recorded <= 2 * plain, f"plain {plain:.2f}s, recorded {recorded:.2f}s"


def test_second_run_of_a_checker_assembles_nothing(monkeypatch):
    # Path conditions are memoized per engine, keyed by what an assembly
    # reads (function, visible callee summaries, trace, context ident at
    # entry), none of it checker-specific.  Running a checker again on
    # the same engine must therefore hit the memo for every condition:
    # no local path condition is built and no callee summary is cloned.
    from repro.core import engine as engine_mod
    from repro.seg.conditions import ConditionBuilder

    program = generate_program(GeneratorConfig(seed=7, target_lines=600))
    engine = Pinpoint.from_source(program.source, jobs=1)
    counts = {"pc": 0, "clone": 0}
    pc, clone = ConditionBuilder.pc, engine_mod.clone_term

    def counting_pc(self, path):
        counts["pc"] += 1
        return pc(self, path)

    def counting_clone(*args, **kwargs):
        counts["clone"] += 1
        return clone(*args, **kwargs)

    monkeypatch.setattr(ConditionBuilder, "pc", counting_pc)
    monkeypatch.setattr(engine_mod, "clone_term", counting_clone)
    first = engine.check(UseAfterFreeChecker())
    assert counts["pc"] > 0 and counts["clone"] > 0, counts
    counts.update(pc=0, clone=0)
    second = engine.check(UseAfterFreeChecker())
    assert counts == {"pc": 0, "clone": 0}
    assert second.reports == first.reports and second.reports
