"""Evidence gate: admission decisions, strata, and gate reports.

``ADMISSION_RULES`` is the evidence-admission contract, one (reason, rule) row
per condition; ``STRATUM_RULES`` and ``REPORT_SCOPES`` assign each decision
its stratum and each stratum its report scope. Decision-study rows are gated
by the same rules but never merge into canonical counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Final, Literal, Sequence

from .drivers import DriverRecord
from .manifest import FREEZE_VERSION_FIELDS, ReleaseRoot, verify_binding
from .records import record
from .runner import RunRecord, RunSet
from .schema import (
    SUPPORTED_SCHEMA_VERSIONS,
    GatebenchError,
    Record,
    read_json,
    write_json,
    write_json_lines,
)
from .simenv import CLEAN_LABEL

Verdict = Literal["admitted", "rejected", "quarantined"]
AdmissionRule = Callable[[RunRecord, tuple[str, ...] | None], bool]

# The reason of each code ``manifest.verify_binding`` returns, in the order it
# returns them. A missing schema version is a version mismatch; any other
# missing freeze version leaves the run without its release binding.
BINDING_REASONS: Final[dict[str, str]] = {
    "missing_replay_freeze": "missing_replay_freeze",
    "snapshot_mismatch": "snapshot_mismatch",
    **{
        f"missing_{name}": "version_mismatch" if name == "schema_version"
        else "missing_release_binding"
        for name in FREEZE_VERSION_FIELDS
    },
}


def _binding_code(code: str) -> AdmissionRule:
    return lambda run, binding: binding is not None and code in binding


def _unsupported_stress_row(run: RunRecord, binding: tuple[str, ...] | None) -> bool:
    # Stressed paper-facing evidence without the decision-study (controller)
    # label. The label is driver metadata, so this row's reason is
    # missing_driver_metadata until a schema bump gives it its own.
    driver = run.driver
    return (
        run.setting_label != CLEAN_LABEL
        and driver.evidence_status == "paper_facing"
        and driver.driver_type != "controller"
    )


# In emission order: a run's reasons are the rows that fire, deduplicated in order.
ADMISSION_RULES: Final[tuple[tuple[str, AdmissionRule], ...]] = (
    ("unresolved_manifest", lambda run, _: not run.manifest_resolved),
    ("missing_driver_metadata", lambda run, _: not (
        run.driver.driver_id and run.driver.driver_version and run.driver.parser_version
    )),
    ("missing_driver_metadata", _unsupported_stress_row),
    ("incomplete_trace", lambda run, _: not run.trace_complete),
    ("missing_terminal_outcome", lambda run, _: run.terminal is None),
    ("missing_replay_freeze", lambda run, _: run.freeze is None),
    ("version_mismatch", lambda run, _: (
        run.freeze is not None and run.freeze.schema_version not in SUPPORTED_SCHEMA_VERSIONS
    )),
    ("missing_release_binding", lambda _, binding: binding is None),
    *((reason, _binding_code(code)) for code, reason in BINDING_REASONS.items()),
    ("fixture_only_provenance", lambda run, _: run.driver.evidence_status == "fixture_backed"),
    ("smoke_only", lambda run, _: run.driver.evidence_status == "smoke_only"),
    ("invalid_sample", lambda run, _: run.invalid_sample),
    ("retry_budget_violation", lambda run, _: run.retry_count > run.retry_budget),
)

REASONS: Final[frozenset[str]] = frozenset(reason for reason, _ in ADMISSION_RULES)

# A run's stratum is that of the first row whose rule holds for its driver.
STRATUM_RULES: Final[tuple[tuple[str, Callable[[DriverRecord], bool]], ...]] = (
    ("decision_study", lambda driver: driver.driver_type == "controller"),
    ("non_paper_facing",
     lambda driver: driver.evidence_status in ("fixture_backed", "smoke_only")),
    ("llm_driver", lambda driver: driver.driver_type == "llm"),
    ("real_task_anchor", lambda driver: (
        driver.driver_type in ("scripted", "calibration")
        and driver.evidence_status == "paper_facing"
    )),
    ("bounded_extension_or_diagnostic", lambda driver: True),
)

STRATA: Final[tuple[str, ...]] = tuple(stratum for stratum, _ in STRATUM_RULES)

# Each gate report scope: which decisions it counts, by their stratum, and the
# strata it plans to populate. Decision-study rows have their own scope and
# never backfill the canonical one.
REPORT_SCOPES: Final[dict[str, tuple[Callable[[str], bool], tuple[str, ...]]]] = {
    "canonical": (
        lambda stratum: stratum != "decision_study",
        ("real_task_anchor", "llm_driver", "bounded_extension_or_diagnostic"),
    ),
    "decision_study": (lambda stratum: stratum == "decision_study", ("decision_study",)),
}

PLANNED_CANONICAL_STRATA: Final[tuple[str, ...]] = REPORT_SCOPES["canonical"][1]


class GateError(GatebenchError):
    """Raised for malformed or inconsistent gate decisions."""


@record
class GateDecision(Record):
    """The gate's verdict on one run, with every failed condition and its stratum."""

    run_id: str
    verdict: Verdict
    reasons: tuple[str, ...]
    stratum: str

    def __post_init__(self) -> None:
        if self.verdict == "admitted" and self.reasons:
            raise GateError("invalid_decision", "admitted decisions carry no reasons")
        if self.verdict != "admitted" and not self.reasons:
            raise GateError("invalid_decision", "non-admitted decisions need reasons")
        for reason in self.reasons:
            if reason not in REASONS:
                raise GateError("invalid_decision", f"unknown reason {reason!r}")
        if self.stratum not in STRATA:
            raise GateError("invalid_decision", f"unknown stratum {self.stratum!r}")


def stratify(run: RunRecord) -> str:
    """The first ``STRATUM_RULES`` stratum whose rule holds for the run's driver."""

    return next(stratum for stratum, rule in STRATUM_RULES if rule(run.driver))


def admit(run: RunRecord, binding: tuple[str, ...] | None) -> GateDecision:
    """Decide one run: the reasons of the ``ADMISSION_RULES`` rows that fire.

    ``binding`` is the run's ``manifest.verify_binding`` violation codes,
    empty when it is bound, or ``None`` when no release binding was checked.
    A run with no reason is admitted; one whose only reason is
    ``incomplete_trace`` is quarantined; any other is rejected. A binding code
    with no ``BINDING_REASONS`` entry raises ``unknown_binding_code``, since
    the gate cannot weigh a violation it does not know.
    """

    for code in binding or ():
        if code not in BINDING_REASONS:
            raise GateError("unknown_binding_code", f"run {run.run_id}: binding code {code!r}")
    fired = (reason for reason, rule in ADMISSION_RULES if rule(run, binding))
    reasons = tuple(dict.fromkeys(fired))
    verdict: Verdict = (
        "admitted" if not reasons
        else "quarantined" if reasons == ("incomplete_trace",)
        else "rejected"
    )
    return GateDecision(run_id=run.run_id, verdict=verdict, reasons=reasons, stratum=stratify(run))


def decide_runset(runset: RunSet, root: ReleaseRoot) -> list[GateDecision]:
    """Verify binding and admit every run in the set, in order."""

    return [admit(run, verify_binding(run, root)) for run in runset.runs]


# ---------------------------------------------------------------------------
# Gate reports
# ---------------------------------------------------------------------------


@record
class GateReport(Record):
    """Admission counts of one gate scope, by reason and by stratum."""

    scope: str
    indexed: int
    admitted: int
    excluded: int
    quarantined: int
    by_reason: dict[str, int]
    by_stratum: dict[str, int]
    missing_strata: tuple[str, ...]
    validation_failures: int


def gate_report(
    runset: RunSet,
    decisions: Sequence[GateDecision],
    scope: str = "canonical",
) -> GateReport:
    """Aggregate decisions into one report for the requested scope.

    The canonical scope ignores decision-study rows entirely, so adding such
    rows never changes canonical counts; the decision_study scope sees only
    them.
    """

    if len(runset.runs) != len(decisions):
        raise GateError("decision_set_mismatch", "one decision per run required")
    for run, decision in zip(runset.runs, decisions):
        if run.run_id != decision.run_id:
            raise GateError(
                "decision_set_mismatch",
                f"decision for {decision.run_id} does not match run {run.run_id}",
            )

    if scope not in REPORT_SCOPES:
        raise GateError("decision_set_mismatch", f"unknown report scope {scope!r}")
    counted, planned = REPORT_SCOPES[scope]
    kept = [
        (run, decision)
        for run, decision in zip(runset.runs, decisions)
        if counted(decision.stratum)
    ]

    indexed = len(kept)
    admitted = sum(1 for _, decision in kept if decision.verdict == "admitted")
    quarantined = sum(1 for _, decision in kept if decision.verdict == "quarantined")
    by_reason: dict[str, int] = {}
    by_stratum: dict[str, int] = {}
    validation_failures = 0
    for run, decision in kept:
        if decision.verdict == "admitted":
            by_stratum[decision.stratum] = by_stratum.get(decision.stratum, 0) + 1
        for reason in decision.reasons:
            by_reason[reason] = by_reason.get(reason, 0) + 1
        # Validation failures are executed runs the validator refused; runs
        # that never executed (unresolved candidates) have no trace to judge.
        if run.manifest_resolved and not run.trace_complete:
            validation_failures += 1

    missing = tuple(stratum for stratum in planned if by_stratum.get(stratum, 0) == 0)
    return GateReport(
        scope=scope,
        indexed=indexed,
        admitted=admitted,
        excluded=indexed - admitted,
        quarantined=quarantined,
        by_reason=by_reason,
        by_stratum=by_stratum,
        missing_strata=missing,
        validation_failures=validation_failures,
    )


def save_gate_outputs(
    out_dir: Path | str,
    report: GateReport,
    decisions: Sequence[GateDecision],
    decision_report: GateReport | None = None,
) -> None:
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    write_json(base / "gate_report.json", report)
    write_json_lines(base / "gate_decisions.jsonl", decisions)
    if decision_report is not None:
        write_json(base / "gate_report_decision_study.json", decision_report)


def load_decisions(path: Path | str) -> list[GateDecision]:
    """The decisions of a ``gate_decisions.jsonl``; a bad one names its file and line."""

    lines = read_json(path, GateError, "missing_gate_output", "invalid_gate_output", lines=True)
    decisions = []
    for number, doc in lines:
        try:
            decisions.append(GateDecision.from_doc(doc))
        except GatebenchError as exc:
            raise GateError(
                "invalid_gate_output", f"{path} line {number}: {exc.code}: {exc.message}"
            ) from exc
    return decisions


__all__ = [
    "GateDecision",
    "GateError",
    "ADMISSION_RULES",
    "BINDING_REASONS",
    "GateReport",
    "PLANNED_CANONICAL_STRATA",
    "REASONS",
    "REPORT_SCOPES",
    "STRATA",
    "STRATUM_RULES",
    "admit",
    "decide_runset",
    "gate_report",
    "load_decisions",
    "save_gate_outputs",
    "stratify",
]
