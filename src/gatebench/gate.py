"""Evidence gate: admission decisions, strata, and gate reports.

A run is admitted only when every admission condition holds: resolved
manifest, complete declared-driver metadata, complete trace boundaries, a
terminal outcome, release binding, supported schema version, replay/freeze
metadata, and no fixture-only or smoke-only provenance. Anything else is
rejected with every failed condition recorded, except runs whose only failure
is an incomplete trace, which are quarantined for diagnostic review.

Stressed-setting paper-facing rows must carry the decision-study label
(controller driver); otherwise they are rejected as unsupported stress rows
(reason: missing driver metadata, since the decision label is driver
metadata).

Decision-study rows are gated with the same rules but reported through a
separate scope; they never merge into canonical counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Final, Literal, Sequence

from .manifest import BindingStatus, ReleaseRoot, verify_binding
from .records import record
from .runner import RunRecord, RunSet
from .schema import (
    SUPPORTED_SCHEMA_VERSIONS,
    GatebenchError,
    Record,
    canonical_json,
    read_json,
    write_json,
)
from .simenv import CLEAN_LABEL

Verdict = Literal["admitted", "rejected", "quarantined"]

REASONS: Final[frozenset[str]] = frozenset(
    {
        "missing_terminal_outcome",
        "invalid_sample",
        "version_mismatch",
        "snapshot_mismatch",
        "retry_budget_violation",
        "fixture_only_provenance",
        "missing_driver_metadata",
        "incomplete_trace",
        "unresolved_manifest",
        "smoke_only",
        "missing_replay_freeze",
        "missing_release_binding",
    }
)

STRATA: Final[tuple[str, ...]] = (
    "real_task_anchor",
    "llm_driver",
    "bounded_extension_or_diagnostic",
    "decision_study",
    "non_paper_facing",
)

# Strata the canonical surface plans to populate; decision-study rows are
# tracked by their own scope and never backfill these.
PLANNED_CANONICAL_STRATA: Final[tuple[str, ...]] = (
    "real_task_anchor",
    "llm_driver",
    "bounded_extension_or_diagnostic",
)


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
    """Assign the evidence stratum from driver type and evidence status."""

    if run.driver.driver_type == "controller":
        return "decision_study"
    if run.driver.evidence_status in ("fixture_backed", "smoke_only"):
        return "non_paper_facing"
    if run.driver.driver_type == "llm":
        return "llm_driver"
    if (
        run.driver.driver_type in ("scripted", "calibration")
        and run.driver.evidence_status == "paper_facing"
    ):
        return "real_task_anchor"
    return "bounded_extension_or_diagnostic"


def _driver_metadata_complete(run: RunRecord) -> bool:
    driver = run.driver
    return bool(driver.driver_id and driver.driver_version and driver.parser_version)


def admit(run: RunRecord, binding: BindingStatus | None) -> GateDecision:
    """Decide one run; all outcomes are decisions, nothing raises.

    Multi-failure runs record every failed condition. Quarantine applies only
    when the incomplete trace is the sole failure.
    """

    reasons: list[str] = []

    if not run.manifest_resolved:
        reasons.append("unresolved_manifest")
    if not _driver_metadata_complete(run):
        reasons.append("missing_driver_metadata")
    elif (
        run.setting_label != CLEAN_LABEL
        and run.driver.evidence_status == "paper_facing"
        and run.driver.driver_type != "controller"
    ):
        # Unsupported stress row: stressed evidence without the decision label.
        reasons.append("missing_driver_metadata")
    if not run.trace_complete:
        reasons.append("incomplete_trace")
    if run.terminal is None:
        reasons.append("missing_terminal_outcome")
    if run.freeze is None:
        reasons.append("missing_replay_freeze")
    elif run.freeze.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
        reasons.append("version_mismatch")

    if binding is None:
        reasons.append("missing_release_binding")
    elif not binding.bound:
        for violation in binding.violations:
            if violation == "snapshot_mismatch":
                reasons.append("snapshot_mismatch")
            elif violation == "missing_schema_version":
                reasons.append("version_mismatch")
            elif violation == "missing_replay_freeze":
                reasons.append("missing_replay_freeze")
            else:
                reasons.append("missing_release_binding")

    if run.driver.evidence_status == "fixture_backed":
        reasons.append("fixture_only_provenance")
    elif run.driver.evidence_status == "smoke_only":
        reasons.append("smoke_only")

    if run.invalid_sample:
        reasons.append("invalid_sample")
    if run.retry_count > run.retry_budget:
        reasons.append("retry_budget_violation")

    deduped = tuple(dict.fromkeys(reasons))
    stratum = stratify(run)
    if not deduped:
        return GateDecision(run_id=run.run_id, verdict="admitted", reasons=(), stratum=stratum)
    if deduped == ("incomplete_trace",):
        return GateDecision(
            run_id=run.run_id, verdict="quarantined", reasons=deduped, stratum=stratum
        )
    return GateDecision(run_id=run.run_id, verdict="rejected", reasons=deduped, stratum=stratum)


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

    if scope == "canonical":
        kept = [
            (run, decision)
            for run, decision in zip(runset.runs, decisions)
            if decision.stratum != "decision_study"
        ]
        planned = PLANNED_CANONICAL_STRATA
    elif scope == "decision_study":
        kept = [
            (run, decision)
            for run, decision in zip(runset.runs, decisions)
            if decision.stratum == "decision_study"
        ]
        planned = ("decision_study",)
    else:
        raise GateError("decision_set_mismatch", f"unknown report scope {scope!r}")

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
    lines = [canonical_json(decision.to_doc()) for decision in decisions]
    (base / "gate_decisions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if decision_report is not None:
        write_json(base / "gate_report_decision_study.json", decision_report)


def load_gate_report(path: Path | str) -> GateReport:
    return GateReport.from_doc(
        read_json(path, GateError, "missing_gate_output", "invalid_gate_output")
    )


def load_decisions(path: Path | str) -> list[GateDecision]:
    docs = read_json(path, GateError, "missing_gate_output", "invalid_gate_output", lines=True)
    return [GateDecision.from_doc(doc) for doc in docs]


__all__ = [
    "GateDecision",
    "GateError",
    "GateReport",
    "PLANNED_CANONICAL_STRATA",
    "REASONS",
    "STRATA",
    "admit",
    "decide_runset",
    "gate_report",
    "load_decisions",
    "load_gate_report",
    "save_gate_outputs",
    "stratify",
]
