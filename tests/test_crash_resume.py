"""Crash recovery is a plain rerun with the same ``--cache-dir``.

A run killed mid-wave (a dead worker, or SIGKILL of the whole process)
leaves behind exactly the store entries it completed: every entry is
written atomically after its function is prepared.  Rerunning on the
same cache dir serves those functions from the store, recomputes the
rest, and yields reports and diagnostics byte-identical to an
uninterrupted run.  The ``kill-worker`` and ``disk-full`` fault sites
make each of those paths deterministic to exercise.
"""

import dataclasses
import os

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.cache import SummaryStore
from repro.cache.store import CACHE_DIR_ENV
from repro.cli import main
from repro.obs.history import HISTORY_DIR_ENV
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.diagnostics import STAGE_SCHED
from repro.robust.faults import install_faults, reset_faults
from repro.sched import JOBS_ENV

PROGRAM = """
fn helper(p) { x = *p; return x; }
fn touch(p) { *p = 7; return 0; }
fn chain(p) { t = touch(p); h = helper(p); return t + h; }
fn main() {
    p = malloc();
    free(p);
    y = chain(p);
    q = malloc();
    *q = 1;
    z = helper(q);
    free(q);
    return y + z;
}
"""

# Same program with a body-only edit in `helper` (same interface): on
# rerun, exactly `helper` must recompute — its callers keep matching.
PROGRAM_EDITED = PROGRAM.replace(
    "fn helper(p) { x = *p; return x; }",
    "fn helper(p) { x = *p; y = x + 0; return y; }",
)

#: Wave plan of PROGRAM: leaves first, then their caller, then main.
WAVE0 = {"helper", "touch"}


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in (JOBS_ENV, CACHE_DIR_ENV, HISTORY_DIR_ENV):
        monkeypatch.delenv(var, raising=False)
    reset_faults()
    set_registry(MetricsRegistry())
    yield
    reset_faults()
    set_registry(MetricsRegistry())


def _snapshot(source, **kwargs):
    """(reports, diagnostics) of one run, as plain data."""
    engine = Pinpoint.from_source(source, **kwargs)
    result = engine.check(UseAfterFreeChecker())
    return (
        [dataclasses.asdict(r) for r in result.reports],
        [d.as_dict() for d in result.diagnostics],
    )


def _counter(name):
    return get_registry().counter(name).total()


def _stored_names(cache_dir):
    """Function names of every entry in the store at ``cache_dir``."""
    store = SummaryStore(cache_dir)
    return {store.get(digest)[0] for digest in store.entries()}


# ----------------------------------------------------------------------
# kill-worker: a run killed mid-wave exits 3 and stores what completed
# ----------------------------------------------------------------------
def test_kill_worker_exits_degraded_and_stores_later_waves(tmp_path, capsys):
    program = tmp_path / "prog.pin"
    program.write_text(PROGRAM)
    cache_dir = str(tmp_path / "cache")
    code = main(
        [
            "check", str(program), "--all", "--json",
            "--jobs", "2",
            "--cache-dir", cache_dir,
            "--fault", "kill-worker:0",
        ]
    )
    capsys.readouterr()
    assert code == 3  # degraded coverage
    # Wave 0's functions died before completing; nothing of theirs is
    # stored.  Later waves completed (degraded) and are.
    stored = _stored_names(cache_dir)
    assert WAVE0.isdisjoint(stored)
    assert "main" in stored


def test_resume_after_kill_worker_matches_uninterrupted(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    install_faults("kill-worker:0")
    set_registry(MetricsRegistry())
    killed = _snapshot(PROGRAM, jobs=2, cache_dir=cache_dir)
    assert any(d["stage"] == STAGE_SCHED for d in killed[1])

    reset_faults()
    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, jobs=2, cache_dir=cache_dir)
    assert rerun == reference
    # The killed wave-0 functions were prepared now and stored.
    assert WAVE0 <= _stored_names(cache_dir)


# ----------------------------------------------------------------------
# A SIGKILL-shaped interruption: a store holding only wave 0
# ----------------------------------------------------------------------
def _truncate_to_wave0(cache_dir):
    """Leave the store as a run SIGKILLed after wave 0 leaves it: only
    the wave-0 functions' entries on disk."""
    store = SummaryStore(cache_dir)
    for digest in store.entries():
        if store.get(digest)[0] not in WAVE0:
            os.unlink(store._path(digest))


def test_rerun_after_partial_store_recomputes_only_missing_functions(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)
    _truncate_to_wave0(cache_dir)

    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert rerun == reference
    # Exactly the stored wave-0 functions were served from the store;
    # exactly the two lost functions (chain, main) were recomputed and
    # re-persisted.
    assert _counter("cache.hits") == len(WAVE0)
    assert _counter("cache.writes") == 2


def test_resume_after_source_edit_invalidates_only_changed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)

    reference = _snapshot(PROGRAM_EDITED)
    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM_EDITED, cache_dir=cache_dir)
    assert rerun == reference
    # `helper` changed (body-only, same interface): it alone recomputes;
    # `touch`, `chain`, `main` keep their AST x interface digests and
    # come straight from the store.
    assert _counter("cache.writes") == 1
    assert _counter("cache.hits") == 3


# ----------------------------------------------------------------------
# A torn entry or a full disk degrades the store, never the analysis
# ----------------------------------------------------------------------
def test_torn_store_entry_is_recomputed_on_rerun(tmp_path):
    reference = _snapshot(PROGRAM)

    cache_dir = str(tmp_path / "cache")
    _snapshot(PROGRAM, cache_dir=cache_dir)
    store = SummaryStore(cache_dir)
    torn = next(d for d in store.entries() if store.get(d)[0] == "helper")
    path = store._path(torn)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])  # a write cut off mid-entry

    set_registry(MetricsRegistry())
    rerun = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert rerun == reference
    # The torn entry was evicted as a miss and rewritten; the rest hit.
    assert _counter("cache.evictions") == 1
    assert _counter("cache.writes") == 1
    assert _counter("cache.hits") == 3


def test_persistent_disk_full_degrades_the_store_not_the_run(tmp_path):
    reference = _snapshot(PROGRAM)
    cache_dir = str(tmp_path / "cache")
    install_faults("disk-full")
    set_registry(MetricsRegistry())
    degraded = _snapshot(PROGRAM, cache_dir=cache_dir)
    assert degraded == reference
    assert _counter("cache.writes") == 0  # every put degraded to False
