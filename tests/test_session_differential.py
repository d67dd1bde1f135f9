"""Differential property test: a session's re-checks after random edits
equal a from-scratch analysis of the edited program, byte for byte.

Each example draws a generated program, a points-to tier and whether
the session has a disk store behind its in-memory tier, then applies a
short sequence of random single-function edits through one
:class:`IncrementalAnalyzer`.  Three edit kinds cover the reuse paths:
a dead local (body-only: the function alone re-prepares), a store
through a pointer parameter (changes Mod/Ref: callers re-prepare too)
and a ``free`` of that parameter (changes the findings of callers).
After every edit, every checker's reports and diagnostics must match
``Pinpoint.from_source`` on the same text exactly.
"""

import json
import re
import tempfile

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import EngineConfig, Pinpoint
from repro.cache import SummaryStore
from repro.cli import CHECKERS
from repro.core.incremental import IncrementalAnalyzer
from repro.core.report import report_as_dict
from repro.synth.generator import GeneratorConfig, generate_program

_FN = re.compile(r"^fn (\w+)\(([^)]*)\)", re.MULTILINE)
EDIT_KINDS = ("dead-local", "store", "free")


def _programs():
    return {
        seed: generate_program(GeneratorConfig(seed=seed, target_lines=150)).source
        for seed in (3, 8)
    }


PROGRAMS = _programs()


def _pointer_functions(source):
    """Functions with a ``p`` parameter: targets for interface edits."""
    return [
        name
        for name, params in _FN.findall(source)
        if "p" in [param.strip() for param in params.split(",")]
    ]


def _apply(source, name, kind, ordinal):
    """``source`` with one edit to function ``name``, placed before its
    last ``return``."""
    start = source.index(f"fn {name}(")
    end = source.index("\n}\n", start) + 3
    body = source[start:end]
    cut = body.rindex("    return")
    line = {
        "dead-local": f"    edit{ordinal} = {ordinal + 1};\n",
        "store": f"    *p = {ordinal};\n",
        "free": "    free(p);\n",
    }[kind]
    return source[:start] + body[:cut] + line + body[cut:] + source[end:]


def _findings(engine):
    """Every checker's reports and diagnostics, as canonical JSON."""
    results = [engine.check(CHECKERS[name]()) for name in CHECKERS]
    return json.dumps(
        [
            (
                result.checker,
                [report_as_dict(report) for report in result.reports],
                [diag.as_dict() for diag in result.diagnostics],
            )
            for result in results
        ],
        sort_keys=True,
    )


@st.composite
def edit_plans(draw):
    seed = draw(st.sampled_from(sorted(PROGRAMS)))
    source = PROGRAMS[seed]
    names = [name for name, _params in _FN.findall(source)]
    pointer_names = _pointer_functions(source)
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(EDIT_KINDS))
        pool = names if kind == "dead-local" else pointer_names
        edits.append((draw(st.sampled_from(pool)), kind))
    return seed, edits


@settings(
    max_examples=16,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=edit_plans(),
    tier=st.sampled_from(["fi", "fs"]),
    with_store=st.booleans(),
)
def test_session_edits_match_from_scratch(plan, tier, with_store):
    seed, edits = plan
    config = EngineConfig(pta_tier=tier)
    with tempfile.TemporaryDirectory() as cache_dir:
        store = SummaryStore(cache_dir) if with_store else None
        analyzer = IncrementalAnalyzer(config, store=store)
        text = PROGRAMS[seed]
        _findings(analyzer.analyze(text))
        for ordinal, (name, kind) in enumerate(edits):
            text = _apply(text, name, kind, ordinal)
            session = _findings(analyzer.analyze(text))
            cold = _findings(Pinpoint.from_source(text, config, jobs=1))
            assert session == cold, (seed, edits[: ordinal + 1], tier)
            assert analyzer.last_stats.total == len(_FN.findall(text))
            assert analyzer.last_stats.reused > 0
