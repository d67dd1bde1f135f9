"""Self-tests of the benchmark (small subjects, about a minute).

    PYTHONPATH=src python3 -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import subjects  # noqa: E402
from repro.synth.generator import GeneratorConfig, generate_program  # noqa: E402

SMALL = GeneratorConfig(seed=3, target_lines=1500, taint_period=7)


@pytest.fixture(scope="module")
def program():
    return generate_program(SMALL)


@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path))


def _only(records):
    assert len(records) == 1, records
    assert "error" not in records[0], records[0]["error"]
    return records[0]


def _batch(runner, program, **extra):
    source = runner.write("subject.fn", program.source)
    job = {"mode": "batch", "source": source, "jobs": 1,
           "checkers": list(subjects.ALL_CHECKERS)}
    job.update(extra)
    return _only(runner.run(job))


def _assert_split_closes(record):
    values = record["layers"]
    assert record["split_problems"] == []
    share = values["bench.unattributed_s"] / record["wall_s"]
    assert 0 <= share <= layers.UNATTRIBUTED_BOUND, values
    assert all(
        value >= -1e-9 for name, value in values.items() if name.endswith("_s")
    ), values


@pytest.mark.parametrize(
    "extra",
    [{}, {"jobs": 2, "checkers": ["use-after-free"]}],
    ids=["serial", "parallel"],
)
def test_layer_split_closes_on_batch_operations(runner, program, extra):
    record = _batch(runner, program, trace=True, **extra)
    _assert_split_closes(record)
    assert record["layers"]["lang.parse_s"] > 0
    if extra.get("jobs", 1) > 1:
        assert record["layers"]["sched.waves"] > 0
        # Preparation ran in the workers, and their layers came back.
        assert record["layers"]["pta.runs"] > 0
        assert record["layers"]["seg.build_s"] > 0


def test_layer_split_closes_on_session_edits(runner, program, tmp_path):
    source = runner.write("subject.fn", program.source)
    edits = subjects.plan_edits(program.source, 5, 3)
    job = {"mode": "session", "source": source, "checkers": list(subjects.ALL_CHECKERS),
           "seconds": 1000, "edits": [[e.function, e.interface] for e in edits],
           "cache_dir": str(tmp_path / "cache"), "trace": True}
    records = runner.run(job)
    assert not [r for r in records if "error" in r]
    assert len(records) == 4 and records[0]["setup"]
    for record in records[1:]:
        _assert_split_closes(record)
        assert record["layers"]["incremental.analyze_s"] > 0
        # Each edit re-prepares at least the edited function: a store
        # miss, then a write.
        assert record["layers"]["cache.gets"] > 0
        assert record["layers"]["cache.put_s"] > 0


def test_every_target_is_wrapped_wherever_it_is_looked_up():
    import repro.core.context as context
    import repro.core.engine as engine
    import repro.core.pipeline as pipeline
    import repro.ir.ssa as ssa

    clone_term, to_ssa = context.clone_term, ssa.to_ssa
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        assert engine.clone_term is context.clone_term
        assert engine.clone_term.__wrapped__ is clone_term
        assert pipeline.to_ssa.__wrapped__ is to_ssa
    finally:
        tracer.uninstall()
    assert engine.clone_term is clone_term and pipeline.to_ssa is to_ssa


def test_self_times_subtract_nested_spans():
    tracer = layers.LayerTracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(5)])
    tracer.measure(lambda: [outer() for _ in range(3)])
    assert tracer.calls == {"outer": 3, "inner": 15}
    assert tracer.self_s["outer"] < tracer.total_s["outer"]
    assert tracer.total_s["inner"] == pytest.approx(tracer.self_s["inner"])
    assert sum(tracer.self_s.values()) + tracer.unattributed_s == pytest.approx(
        tracer.wall_s
    )


def test_split_problems_are_caught():
    tracer = layers.LayerTracer()
    tracer.measure(lambda: None)
    assert tracer.problems() == []
    # A span that ends while a later one is still open.
    stack = tracer._stack
    span = tracer._wrap("outer", lambda: stack.append([0.0]))
    tracer.measure(span)
    assert any("out of order" in p for p in tracer.problems())
    # A layer whose self time no printed metric carries.
    tracer.measure(tracer._wrap("unprinted", lambda: sum(range(20000))))
    assert any("printed self times" in p for p in tracer.problems())


def test_worker_layers_move_out_of_the_wave(tmp_path):
    tracer = layers.LayerTracer(spill_dir=str(tmp_path))
    state = {"self_s": {"pta": 0.06, "sched.task": 0.01}, "calls": {"pta": 4},
             "counts": {}, "misnested": 0}

    class Pool:
        jobs = 2

    def wave(_pool, _tasks):
        time.sleep(0.1)
        # Two workers, each 0.06 s in the pointer analysis.
        for pid in (1, 2):
            (tmp_path / f"layers-worker-{pid}.json").write_text(json.dumps(state))

    run_wave = tracer._wrap("sched.wave", wave, tracer._after_hooks()["sched.wave"])
    tracer.measure(lambda: run_wave(Pool(), ["f", "g"]))
    assert tracer.problems() == []
    assert tracer.calls["pta"] == 8
    assert tracer.self_s["pta"] == pytest.approx(0.06)
    assert tracer.self_s["sched.wave"] == pytest.approx(tracer.total_s["sched.wave"] - 0.06)
    assert list(tmp_path.iterdir()) == []


def test_ground_truth_verdicts_per_checker(runner, program):
    record = _batch(runner, program)
    verdicts = subjects.judge(program, record["reports"])
    assert set(verdicts) == set(subjects.TRUTH_KINDS)
    for checker, verdict in verdicts.items():
        assert verdict.seeded > 0, checker
        assert verdict.correct, (checker, verdict)
    fp_seeded = [t for t in program.ground_truth if t.kind == "uaf-loop-fp"]
    assert verdicts["use-after-free"].expected_fp >= len(fp_seeded)
    # A report on a function no truth names is unexpected.
    wrong = {"use-after-free": [("u1_root", 1, "u1_root", 2)]}
    assert subjects.judge(program, wrong)["use-after-free"].unexpected == 1


def test_edits_keep_ground_truth_and_reach_callers(program):
    from repro import IncrementalAnalyzer, Pinpoint
    from repro.cli import CHECKERS

    edits = subjects.plan_edits(program.source, 11, 6)
    assert any(e.interface for e in edits) and not all(e.interface for e in edits)
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(program.source)
    text = program.source
    for ordinal, edit in enumerate(edits):
        text = subjects.apply_edit(text, edit, ordinal)
        analyzer.analyze(text)
        reprepared = analyzer.last_stats.analyzed
        assert reprepared > 1 if edit.interface else reprepared == 1, edit
    engine = Pinpoint.from_source(text, jobs=1)
    reports = {
        name: [
            (r.source.function, r.source.line, r.sink.function, r.sink.line)
            for r in engine.check(CHECKERS[name]()).reports
        ]
        for name in subjects.TRUTH_KINDS
    }
    assert all(v.correct for v in subjects.judge(program, reports).values())


def test_benchmark_json_matches_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    program = generate_program(SMALL)
    judge = run.Judge("batch-all-parallel", program)
    judge.recall.append(1.0)
    metrics = run.end_to_end(judge, [{"wall_s": 1.0, "peak_rss_mb": 9.0}], [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-all-parallel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
