"""Subjects, edits and ground-truth verdicts for the benchmark.

Every subject comes from :mod:`repro.synth.generator` and is a pure
function of the workload and the ``--seed`` argument.  Edits touch only
filler functions (``u<cluster>_*``), which hold no seeded defect, so an
edited program has the same ground truth as the one it came from.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.synth.generator import (
    TRUE_KINDS,
    GeneratorConfig,
    SyntheticProgram,
    generate_program,
)

#: The six checkers every all-checker operation runs, by CLI name.
ALL_CHECKERS = (
    "use-after-free",
    "double-free",
    "null-deref",
    "memory-leak",
    "path-traversal",
    "data-transmission",
)

#: Checkers whose verdicts the generator's ground truth decides:
#: checker -> (kinds it must find, kinds it is expected to misreport).
#: ``classify_reports`` in the generator knows only the UAF kinds.
TRUTH_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "use-after-free": (TRUE_KINDS, ("uaf-loop-fp",)),
    "path-traversal": (("taint-path",), ("taint-loop-fp",)),
    "data-transmission": (("taint-data",), ()),
}

SUBJECT_LINES = 20000
TAINT_PERIOD = 7


def make_subject(seed: int) -> SyntheticProgram:
    return generate_program(
        GeneratorConfig(seed=seed, target_lines=SUBJECT_LINES, taint_period=TAINT_PERIOD)
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def function_count(source: str) -> int:
    return len(re.findall(r"^fn ", source, flags=re.MULTILINE))


# ----------------------------------------------------------------------
# Edits
# ----------------------------------------------------------------------
_FN = re.compile(r"^fn (u\d+_(?:leaf|m\d+|root))\(", re.MULTILINE)
_STORE = "    *p = w;\n"
_RETURN_W = "    return w;\n"


@dataclass(frozen=True)
class Edit:
    function: str
    interface: bool  # changes the function's Mod/Ref, so its callers too


def _function_span(source: str, name: str) -> Tuple[int, int]:
    start = source.index(f"fn {name}(")
    end = source.index("\n}\n", start) + 3
    return start, end


def plan_edits(source: str, seed: int, count: int) -> List[Edit]:
    """``count`` single-function edits to distinct filler functions.

    Two thirds are body-only: they add a dead local and leave the
    interface alone.  The rest toggle the ``*p = w`` store of a middle
    function, which changes its Mod/Ref and so invalidates its callers.
    Each run of three edits holds one of these, at a seeded place, so a
    short prefix of the plan has the same mix as the whole.
    """
    rng = random.Random(seed)
    names = _FN.findall(source)
    middles = [name for name in names if "_m" in name]
    edits: List[Edit] = []
    used = set()
    kinds: List[bool] = []
    while len(edits) < count:
        if not kinds:
            kinds = [True, False, False]
            rng.shuffle(kinds)
        interface = kinds[-1]
        name = rng.choice(middles if interface else names)
        if name in used:
            continue
        used.add(name)
        kinds.pop()
        edits.append(Edit(name, interface))
    return edits


def apply_edit(source: str, edit: Edit, ordinal: int) -> str:
    start, end = _function_span(source, edit.function)
    body = source[start:end]
    if edit.interface:
        if _STORE in body:
            body = body.replace(_STORE, "", 1)
        else:
            body = body.replace(_RETURN_W, _STORE + _RETURN_W, 1)
    else:
        header_end = body.index("{\n") + 2
        body = body[:header_end] + f"    e{ordinal} = a + {ordinal + 1};\n" + body[header_end:]
    return source[:start] + body + source[end:]


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    seeded: int = 0
    found: int = 0
    expected_fp: int = 0
    unexpected: int = 0

    def add(self, other: "Verdict") -> None:
        self.seeded += other.seeded
        self.found += other.found
        self.expected_fp += other.expected_fp
        self.unexpected += other.unexpected

    @property
    def correct(self) -> bool:
        return self.found == self.seeded and self.unexpected == 0


def judge(
    program: SyntheticProgram,
    reports: Dict[str, Sequence[Sequence]],
) -> Dict[str, Verdict]:
    """Per-checker verdicts of ``reports`` (checker -> list of
    ``(source function, source line, sink function, sink line)``)
    against the program's seeded ground truth."""
    verdicts = {}
    for checker, (true_kinds, fp_kinds) in TRUTH_KINDS.items():
        if checker not in reports:
            continue
        bug_of = {}
        fp_functions = set()
        for truth in program.ground_truth:
            if truth.kind in true_kinds:
                for name in truth.functions:
                    bug_of[name] = truth
            elif truth.kind in fp_kinds:
                fp_functions.update(truth.functions)
        verdict = Verdict(seeded=sum(1 for t in program.ground_truth if t.kind in true_kinds))
        found = set()
        for source_fn, _src_line, sink_fn, _sink_line in reports[checker]:
            truth = bug_of.get(source_fn) or bug_of.get(sink_fn)
            if truth is not None:
                found.add(truth)
            elif source_fn in fp_functions or sink_fn in fp_functions:
                verdict.expected_fp += 1
            else:
                verdict.unexpected += 1
        verdict.found = len(found)
        verdicts[checker] = verdict
    return verdicts


def findings_digest(findings: Dict[str, List[dict]]) -> str:
    """Digest of every report of every checker, in a canonical order."""
    canonical = {
        checker: sorted(json.dumps(report, sort_keys=True) for report in reports)
        for checker, reports in sorted(findings.items())
    }
    return digest(json.dumps(canonical, sort_keys=True))
