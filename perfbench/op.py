"""One benchmark process: runs operations and prints one JSON line each.

Invoked by ``run.py`` as ``python3 perfbench/op.py <job.json>`` in a
fresh interpreter, so no hash-consed term or interned name survives
from one batch operation to the next (a CLI user pays that cost on
every run).  The job file names the mode:

``batch``
    ``Pinpoint.from_source`` plus the listed checkers on one source
    file, with the given ``jobs``.  With ``probe`` the process stops
    once it is ready to start the timer.
``session``
    An ``IncrementalAnalyzer`` with an artifact store at ``cache_dir``
    (a ``repro daemon --cache-dir`` session) analyzes the base source
    and runs every checker (the set-up), then applies the planned edits
    one after the other, re-analyzing and re-checking after each, until
    ``seconds`` have passed.

Each output line carries the wall of the operation from source text to
final reports (``wall_s``), the process's peak RSS, the reports of the
judged checkers, the findings digest and any degradation diagnostics.
With ``trace`` the line also carries the per-layer metrics of
:mod:`layers` and the problems, if any, that make their split untrue.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import subjects  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _findings(results) -> dict:
    from repro.core.report import report_as_dict

    findings = {r.checker: [report_as_dict(x) for x in r.reports] for r in results}
    judged = {
        r.checker: [
            (x.source.function, x.source.line, x.sink.function, x.sink.line)
            for x in r.reports
        ]
        for r in results
        if r.checker in subjects.TRUTH_KINDS
    }
    diagnostics = sorted({str(d) for r in results for d in r.diagnostics})
    return {
        "digest": subjects.findings_digest(findings),
        "reports": judged,
        "diagnostics": diagnostics[:5],
        "diagnostic_count": len(diagnostics),
    }


def _engine_counts(engine, results) -> dict:
    vertices, edges = engine.seg_size()
    hits = sum(r.stats.summary_hits for r in results)
    lookups = hits + sum(r.stats.summary_misses for r in results)
    return {
        "seg.vertices": vertices,
        "seg.edges": edges,
        "engine.search_steps": sum(r.stats.search_steps for r in results),
        "engine.candidates": sum(r.stats.candidates for r in results),
        "engine.summary_hit_ratio": hits / lookups if lookups else 0.0,
    }


def _emit(record: dict) -> None:
    record["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _timed(tracer, operation):
    """(result, wall seconds, layer metrics or None) of one operation."""
    if tracer is None:
        start = time.perf_counter()
        result = operation()
        return result, time.perf_counter() - start, None
    result = tracer.measure(operation)
    return result, tracer.wall_s, tracer.layer_metrics()


def _traced(record: dict, tracer, metrics: dict, engine, results) -> None:
    metrics.update(_engine_counts(engine, results))
    record["layers"] = metrics
    record["split_problems"] = tracer.problems()


def run_batch(job: dict, tracer) -> None:
    from repro import Pinpoint
    from repro.cli import CHECKERS

    with open(job["source"], encoding="utf-8") as handle:
        source = handle.read()
    ready = time.time()
    if job.get("probe"):
        _emit({"ready_s": ready - job["spawned_at"]})
        return

    def operation():
        engine = Pinpoint.from_source(source, jobs=job["jobs"])
        return engine, [engine.check(CHECKERS[name]()) for name in job["checkers"]]

    (engine, results), wall, metrics = _timed(tracer, operation)
    record = {"ready_s": ready - job["spawned_at"], "wall_s": wall}
    record.update(_findings(results))
    if metrics is not None:
        _traced(record, tracer, metrics, engine, results)
    _emit(record)


def run_session(job: dict, tracer) -> None:
    from repro import IncrementalAnalyzer
    from repro.cache import open_store
    from repro.cli import CHECKERS

    with open(job["source"], encoding="utf-8") as handle:
        source = handle.read()
    analyzer = IncrementalAnalyzer(store=open_store(job["cache_dir"]))

    def check(text):
        def operation():
            engine = analyzer.analyze(text)
            return engine, [engine.check(CHECKERS[name]()) for name in job["checkers"]]

        return operation

    engine, results = check(source)()
    record = {"ready_s": time.time() - job["spawned_at"], "setup": True}
    record.update(_findings(results))
    _emit(record)

    deadline = time.perf_counter() + job["seconds"]
    for ordinal, edit in enumerate(job["edits"]):
        if time.perf_counter() >= deadline:
            break
        source = subjects.apply_edit(source, subjects.Edit(*edit), ordinal)
        (engine, results), wall, metrics = _timed(tracer, check(source))
        record = {"wall_s": wall, "edit": ordinal}
        record.update(_findings(results))
        if metrics is not None:
            stats = analyzer.last_stats
            metrics["incremental.reuse_ratio"] = (
                stats.reused / stats.total if stats.total else 0.0
            )
            _traced(record, tracer, metrics, engine, results)
        _emit(record)


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job.get("trace"):
        # Workers of a parallel run leave their counters next to the job.
        tracer = layers.LayerTracer(spill_dir=os.path.dirname(os.path.abspath(argv[1])))
        tracer.install()
    try:
        if job["mode"] == "session":
            run_session(job, tracer)
        else:
            run_batch(job, tracer)
    except Exception:
        _emit({"error": traceback.format_exc(limit=8)})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
