"""Reuse never changes what a run reports.

- Budget-degraded artifacts (points-to conditions cut to TRUE by an
  exhausted budget) are neither stored on disk nor kept by a session,
  so a later unbudgeted run cannot replay the budget's diagnostics.
- Daemon sessions prepare through the same loop as ``repro check``, so
  a function whose preparation raises is quarantined with the same
  diagnostic and the rest of the program is still checked.
"""

import json

import pytest

from repro import EngineConfig, Pinpoint
from repro.cache.store import CACHE_DIR_ENV
from repro.cli import CHECKERS, main
from repro.core.incremental import IncrementalAnalyzer
from repro.core.report import report_as_dict
from repro.robust.budget import ResourceBudget
from repro.robust.faults import install_faults, reset_faults
from repro.sched import JOBS_ENV
from repro.service import ServiceClient, ServiceConfig, ServiceServer

FAULTED = """
fn helper(p) { x = *p; return x; }
fn sink(p) { free(p); return 0; }
fn main() {
    p = malloc();
    s = sink(p);
    y = helper(p);
    q = malloc();
    free(q);
    z = *q;
    return y + z;
}
"""


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in (JOBS_ENV, CACHE_DIR_ENV):
        monkeypatch.delenv(var, raising=False)
    reset_faults()
    yield
    reset_faults()


def _check_json(capsys, *argv):
    code = main(["check", *argv, "--all", "--json"])
    document = json.loads(capsys.readouterr().out)
    return code, document


def _generated(tmp_path, capsys):
    path = tmp_path / "g.pin"
    assert main(["generate", "--lines", "600", "--seed", "11", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def test_budgeted_run_stores_no_degraded_artifacts(tmp_path, capsys):
    path = _generated(tmp_path, capsys)
    cache_dir = str(tmp_path / "cache")
    code, budgeted = _check_json(
        capsys, str(path), "--cache-dir", cache_dir, "--max-steps", "50"
    )
    assert code == 3
    assert any(d["reason"] == "budget-exhausted" for d in budgeted["diagnostics"])

    code, warm = _check_json(capsys, str(path), "--cache-dir", cache_dir)
    cold_code, cold = _check_json(capsys, str(path))
    assert (code, warm["reports"], warm["diagnostics"]) == (
        cold_code,
        cold["reports"],
        cold["diagnostics"],
    )
    assert cold_code == 1 and not cold["diagnostics"]


def _findings(engine):
    return [
        (
            [report_as_dict(report) for report in result.reports],
            [diag.as_dict() for diag in result.diagnostics],
        )
        for result in (engine.check(CHECKERS[name]()) for name in CHECKERS)
    ]


def test_budgeted_session_keeps_no_degraded_artifacts(tmp_path, capsys):
    source = _generated(tmp_path, capsys).read_text()
    analyzer = IncrementalAnalyzer(EngineConfig())
    degraded = analyzer.analyze(source, budget=ResourceBudget(max_steps=50))
    assert any(
        pf.points_to.degraded for pf in degraded.module.functions.values()
    )
    assert analyzer.cached_functions < len(degraded.module.functions)

    warm = _findings(analyzer.analyze(source))
    assert warm == _findings(Pinpoint.from_source(source, jobs=1))


def test_daemon_quarantines_a_raising_function_like_one_shot(tmp_path, capsys):
    path = tmp_path / "faulted.pin"
    path.write_text(FAULTED)
    code, one_shot = _check_json(capsys, str(path), "--fault", "prepare:helper")
    assert code == 3
    quarantine = [d for d in one_shot["diagnostics"] if d["stage"] == "prepare"]
    assert [d["unit"] for d in quarantine] == ["helper"]
    assert one_shot["reports"]

    install_faults("prepare:helper")
    with ServiceServer(ServiceConfig(workers=1)) as server:
        result = ServiceClient(server.port).check(FAULTED, session="s")
    assert result["status"] == "done"
    assert result["exit_code"] == 3
    assert result["diagnostics"] == one_shot["diagnostics"]
    assert result["reports"] == one_shot["reports"]
