"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload batch-all-parallel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark generates each
workload's subject from ``--seed`` with :mod:`repro.synth.generator`
(outside every timed region), runs the workload through the public API
in fresh ``perfbench/op.py`` processes, checks every verdict against the
generator's ground truth and the findings digest against earlier runs
of the same input on the same code, and prints a table of the end-to-end metrics followed
by one JSON result line.  ``--trace 1`` runs each operation once more
with the layer wrappers of :mod:`layers` installed and reports the
per-layer split instead.

Any integer seed works, and the same seed always gives the same
subjects and edits.  Keep seeds of 1000 and above held out: do not use
them while writing a change, so that a claim can be re-checked on one.

Workloads (``WORKLOADS``):

``batch-all-parallel``
    20k-line taint-seeded subject, ``Pinpoint.from_source(jobs=nproc)``,
    no cache, all six checkers.  Preparation runs on the process pool
    of ``repro.sched``; the checkers run serially in the parent.
``edit-session``
    An ``IncrementalAnalyzer`` session with an artifact store, as
    ``repro daemon --cache-dir`` keeps one, on a 20k-line subject:
    set-up is the cold analysis plus the first all-checker check, then
    a seeded sequence of single-function edits, each re-analyzed and
    re-checked by all six checkers.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Environment variables that change what an operation does; every
#: operation runs with these cleared so a developer's shell cannot turn
#: a cold run warm or switch on tracemalloc history.
CLEARED_ENV = (
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_HISTORY_DIR",
    "REPRO_VERIFY",
    "REPRO_PTA",
    "REPRO_FAULTS",
)

#: Operations are stopped once the whole run has taken this long; the
#: benchmark must end within 180 s.
RUN_BUDGET_S = 170
#: Upper bound on planned edits per run; a run uses as many as fit.
MAX_EDITS = 200
#: Start-up-only processes a batch run times for its set-up metric.
SETUP_PROBES = 10


# ----------------------------------------------------------------------
# Operation processes
# ----------------------------------------------------------------------
def op_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Spawns operation processes inside one work directory."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.env = op_env()
        self._jobs = 0
        self._deadline = time.monotonic() + RUN_BUDGET_S

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def run(self, job: dict) -> List[dict]:
        """Run one ``op.py`` process; its records, or one error record."""
        self._jobs += 1
        job = dict(job, spawned_at=time.time())
        path = self.write(f"job{self._jobs}.json", json.dumps(job))
        # A session of its own, so a timeout also stops the operation's
        # worker processes.
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "op.py"), path],
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, self._deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            _stop(process)
            return [{"error": f"the run exceeded {RUN_BUDGET_S} s"}]
        except BaseException:
            _stop(process)
            raise
        records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        if process.returncode != 0 and not any("error" in r for r in records):
            records.append({"error": f"exit {process.returncode}: {stderr[-2000:]}"})
        return records


def _stop(process: subprocess.Popen) -> None:
    """Kill an operation process with its workers and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
class Judge:
    """Judges every operation record and keeps the failure count."""

    def __init__(self, workload: str, program) -> None:
        import subjects

        self.subjects = subjects
        self.workload = workload
        self.program = program
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.verdict = subjects.Verdict()
        self.recall: List[float] = []
        # Digests are kept per version of the code: a change to the
        # program may change its findings, but the same code must give
        # the same ones again.
        self._digests_path = os.path.join(STATE_DIR, "digests.json")
        self._code = code_digest()
        self._digests = _load_json(self._digests_path).get(self._code, {})

    def check_subject(self, seed: int) -> None:
        """The same seed must give the same subject in every run."""
        key = f"{self.workload}:seed{seed}"
        subject = self.subjects.digest(self.program.source)
        known = self._digests.setdefault(key, subject)
        if known != subject:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"subject digest {subject} != {known} for {key}")

    def check(self, record: dict, input_digest: str) -> None:
        self.attempted += 1
        problem = record.get("error")
        if problem is None and record.get("diagnostic_count"):
            problem = f"degraded: {record['diagnostics']}"
        if problem is None:
            verdicts = self.subjects.judge(self.program, record["reports"])
            total = self.subjects.Verdict()
            for verdict in verdicts.values():
                total.add(verdict)
            self.verdict.add(total)
            self.recall.append(total.found / total.seeded if total.seeded else 1.0)
            if not total.correct:
                problem = (
                    f"wrong verdicts: found {total.found}/{total.seeded}, "
                    f"{total.unexpected} unexpected reports"
                )
        if problem is None:
            key = f"{self.workload}:{input_digest}"
            known = self._digests.setdefault(key, record["digest"])
            if known != record["digest"]:
                problem = f"findings digest {record['digest']} != {known} for {key}"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def save(self) -> None:
        os.makedirs(STATE_DIR, exist_ok=True)
        every = _load_json(self._digests_path)
        every.setdefault(self._code, {}).update(self._digests)
        tmp = self._digests_path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(every, handle, sort_keys=True, indent=0)
        os.replace(tmp, self._digests_path)


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of every source file under ``src``: the version of the code
    measured, also in a checkout without git metadata."""
    tree = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            tree.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                tree.update(handle.read())
    return tree.hexdigest()[:16]


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Context:
    def __init__(self, args, runner: Runner) -> None:
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.runner = runner


def _walls(records: List[dict]) -> List[float]:
    return [r["wall_s"] for r in records if "wall_s" in r]


def batch(ctx: Context, subject_seed: int, jobs: int):
    """Batch operations until ``ctx.seconds`` have passed (at least one).

    Untraced runs do one operation per process.  Traced runs do an
    untraced and a traced operation per step, on the same input, so
    the overhead of tracing is measured and not guessed."""
    import subjects

    program = subjects.make_subject(subject_seed)
    judge = Judge(ctx.name, program)
    path = ctx.runner.write("subject.fn", program.source)
    job = {"mode": "batch", "source": path, "jobs": jobs,
           "checkers": list(subjects.ALL_CHECKERS)}
    # Set-up of a batch operation is the process start: interpreter,
    # imports and reading the source.  Probe it a few times on its own
    # so its median rests on more than the two operations a run has
    # time for.
    probes = [r for _ in range(SETUP_PROBES) for r in ctx.runner.run(dict(job, probe=True))]
    for record in probes:
        if "error" in record:
            judge.check(record, "")
    source_digest = subjects.digest(program.source)
    plain: List[dict] = []
    traced: List[dict] = []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < ctx.seconds:
        for tracing in ((False, True) if ctx.trace else (False,)):
            for record in ctx.runner.run(dict(job, trace=tracing)):
                judge.check(record, source_digest)
                (traced if tracing else plain).append(record)
    ready = [r["ready_s"] for r in probes + plain if "ready_s" in r]
    return program, judge, plain, traced, ready


def edit_session(ctx: Context, subject_seed: int):
    import subjects

    program = subjects.make_subject(subject_seed)
    judge = Judge(ctx.name, program)
    path = ctx.runner.write("subject.fn", program.source)
    edits = subjects.plan_edits(program.source, ctx.seed, MAX_EDITS)
    sources = []
    text = program.source
    for ordinal, edit in enumerate(edits):
        text = subjects.apply_edit(text, edit, ordinal)
        sources.append(subjects.digest(text))
    job = {
        "mode": "session",
        "source": path,
        "checkers": list(subjects.ALL_CHECKERS),
        "seconds": ctx.seconds,
        "edits": [[e.function, e.interface] for e in edits],
    }
    plain: List[dict] = []
    traced: List[dict] = []
    ready: List[float] = []
    for tracing in ((False, True) if ctx.trace else (False,)):
        # Each session starts from an empty store of its own.
        cache_dir = os.path.join(ctx.runner.work, f"cache-{int(tracing)}")
        for record in ctx.runner.run(dict(job, trace=tracing, cache_dir=cache_dir)):
            if record.get("setup"):
                judge.check(record, subjects.digest(program.source))
                ready.append(record["ready_s"])
                continue
            digest = sources[record["edit"]] if "edit" in record else ""
            judge.check(record, digest)
            (traced if tracing else plain).append(record)
    return program, judge, plain, traced, ready[:1]


WORKLOADS = {
    "batch-all-parallel": lambda ctx: batch(ctx, 4 * ctx.seed, jobs=os.cpu_count() or 1),
    "edit-session": lambda ctx: edit_session(ctx, 4 * ctx.seed + 2),
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(judge: Judge, plain, ready) -> Dict[str, dict]:
    walls = _walls(plain)
    rss = [r["peak_rss_mb"] for r in plain if "peak_rss_mb" in r]
    return {
        # The mean wall of the run's operations.  A shared host's speed
        # changes from one second to the next; a mean over the whole run
        # evens that out, where a median of a few short edits lands on
        # whichever speed most of them happened to get.
        "verdict_s": {
            "value": statistics.fmean(walls) if walls else 0.0,
            "unit": "s",
            "samples": len(walls),
        },
        "setup_s": {"value": _median(ready), "unit": "s", "samples": len(ready)},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB", "samples": len(rss)},
        "seeded_recall": {
            "value": min(judge.recall) if judge.recall else 0.0,
            "unit": "ratio",
            "samples": len(judge.recall),
        },
    }


def report_table(name: str, metrics: Dict[str, dict], judge: Judge, plain) -> None:
    """All eight end-to-end metrics of the benchmark, by name, with units and
    sample counts (``n/a`` where a metric does not apply or lacks the
    samples to be reported)."""
    walls = sorted(_walls(plain))
    rows = dict(metrics)
    if name == "edit-session":
        rows["edit_p50_ms"] = {"value": 1000 * _median(walls), "unit": "ms",
                               "samples": len(walls)}
        # A p90 needs ten samples beyond it.
        rows["edit_p90_ms"] = (
            {"value": 1000 * walls[int(0.9 * len(walls))], "unit": "ms", "samples": len(walls)}
            if len(walls) >= 100
            else {"value": None, "unit": "ms", "samples": len(walls),
                  "note": "needs >= 100 edits"}
        )
    rows["unexpected_reports"] = {"value": judge.verdict.unexpected, "unit": "count",
                                  "samples": judge.attempted}
    rows["failed_ops_share"] = {
        "value": judge.failed / judge.attempted if judge.attempted else 1.0,
        "unit": "ratio", "samples": judge.attempted,
    }
    for metric, row in rows.items():
        value = "n/a" if row["value"] is None else f"{row['value']:.6g}"
        note = f"  ({row['note']})" if "note" in row else ""
        print(f"{name:20s} {metric:20s} {value:>14s} {row['unit']:6s} n={row['samples']}{note}")


def layer_metrics(plain, traced, judge: Judge) -> Dict[str, dict]:
    """Per-layer metrics of the traced operation with the median wall,
    plus the tracing overhead against the untraced operations.  A
    split that does not close, or closes with too much left
    unattributed or too much overhead, fails the run."""
    import layers

    pick = sorted((r for r in traced if "layers" in r), key=lambda r: r["wall_s"])
    values: Dict[str, float] = {}
    problems = []
    if pick and _walls(plain):
        chosen = pick[(len(pick) - 1) // 2]
        values = dict(chosen["layers"])
        overhead = _median(_walls(pick)) / _median(_walls(plain)) - 1.0
        values["bench.trace_overhead"] = overhead
        share = values["bench.unattributed_s"] / chosen["wall_s"]
        problems.extend(p for r in pick for p in r["split_problems"])
        if share > layers.UNATTRIBUTED_BOUND:
            problems.append(f"unattributed share {share:.3f} > {layers.UNATTRIBUTED_BOUND}")
        if overhead > layers.OVERHEAD_BOUND:
            problems.append(f"trace overhead {overhead:.3f} > {layers.OVERHEAD_BOUND}")
    else:
        problems.append("no traced operation to split")
    if problems:
        # The traced operation counts as failed.
        judge.failed = min(judge.attempted, judge.failed + 1)
        judge.problems.extend(problems)
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in layers.PER_LAYER_UNITS.items()
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment(program, args) -> dict:
    import subjects

    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "code_digest": code_digest(),
        "subject_lines": program.line_count,
        "subject_functions": subjects.function_count(program.source),
        "subject_digest": subjects.digest(program.source),
    }


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exception, so the operation
    # process in flight is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    work = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ctx = Context(args, Runner(work))
        program, judge, plain, traced, ready = WORKLOADS[args.workload](ctx)
        judge.check_subject(args.seed)
        judge.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment(program, args)}))
    e2e = end_to_end(judge, plain, ready)
    report_table(args.workload, e2e, judge, plain)
    if args.trace:
        metrics = layer_metrics(plain, traced, judge)
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    for problem in judge.problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": judge.attempted > 0 and not judge.problems,
        "attempted": max(1, judge.attempted),
        "failed": judge.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
