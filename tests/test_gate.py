from __future__ import annotations

import dataclasses
import random

import pytest

from gatebench.gate import (
    GateError,
    PLANNED_CANONICAL_STRATA,
    admit,
    decide_runset,
    gate_report,
    stratify,
)
from gatebench.manifest import make_manifest, freeze_run, verify_binding
from gatebench.runner import DriverSpec, RunSet, execute_run
from gatebench.simenv import clean_setting


@pytest.fixture()
def admissible(demo_store, demo_root, micro_manifest):
    """A fully admissible run plus its binding against the demo root."""

    spec = DriverSpec(name="anchor", driver_type="scripted", evidence_status="paper_facing")
    run, _ = execute_run(
        micro_manifest, spec, clean_setting(), seed=3, budget=5, planned_episodes=2
    )
    return run, demo_root


def _decide(run, root):
    return admit(run, verify_binding(run, root))


def test_fully_admissible_run_admitted(admissible):
    run, root = admissible
    decision = _decide(run, root)
    assert decision.verdict == "admitted"
    assert decision.reasons == ()
    assert decision.stratum == "real_task_anchor"


# ---------------------------------------------------------------------------
# Single-condition sensitivity: negating each admission condition flips the
# verdict and yields exactly that condition's reason.
# ---------------------------------------------------------------------------


def _negations(run):
    foreign = make_manifest("micro", "foreign-task", "foreign-root")
    return {
        "unresolved_manifest": dataclasses.replace(run, manifest_resolved=False),
        "missing_driver_metadata": dataclasses.replace(
            run, driver=dataclasses.replace(run.driver, driver_id="")
        ),
        "incomplete_trace": dataclasses.replace(run, trace_complete=False),
        "missing_terminal_outcome": dataclasses.replace(run, terminal=None),
        "snapshot_mismatch": dataclasses.replace(
            run,
            freeze=freeze_run(foreign, run.driver, "clean", foreign.manifest_hash()),
        ),
        "version_mismatch": dataclasses.replace(
            run, freeze=dataclasses.replace(run.freeze, schema_version="")
        ),
        "missing_replay_freeze": dataclasses.replace(run, freeze=None),
        "fixture_only_provenance": dataclasses.replace(
            run, driver=dataclasses.replace(run.driver, evidence_status="fixture_backed")
        ),
    }


def test_each_negated_condition_yields_exactly_its_reason(admissible):
    run, root = admissible
    assert _decide(run, root).verdict == "admitted"
    for expected_reason, broken in _negations(run).items():
        decision = _decide(broken, root)
        assert decision.verdict != "admitted", expected_reason
        assert decision.reasons == (expected_reason,), expected_reason


def test_only_incomplete_trace_quarantines(admissible):
    run, root = admissible
    for expected_reason, broken in _negations(run).items():
        decision = _decide(broken, root)
        if expected_reason == "incomplete_trace":
            assert decision.verdict == "quarantined"
        else:
            assert decision.verdict == "rejected"


def test_multi_reason_rows_record_every_condition(admissible):
    run, root = admissible
    broken = dataclasses.replace(
        run,
        terminal=None,
        freeze=None,
        driver=dataclasses.replace(run.driver, evidence_status="smoke_only"),
    )
    decision = _decide(broken, root)
    assert decision.verdict == "rejected"
    assert set(decision.reasons) == {
        "missing_terminal_outcome",
        "missing_replay_freeze",
        "smoke_only",
    }


def test_smoke_only_reason(admissible):
    run, root = admissible
    smoke = dataclasses.replace(
        run, driver=dataclasses.replace(run.driver, evidence_status="smoke_only")
    )
    assert _decide(smoke, root).reasons == ("smoke_only",)


def test_invalid_sample_and_retry_budget_reasons(admissible):
    run, root = admissible
    marked = dataclasses.replace(run, invalid_sample=True)
    assert _decide(marked, root).reasons == ("invalid_sample",)
    retried = dataclasses.replace(run, retry_count=run.retry_budget + 1)
    assert _decide(retried, root).reasons == ("retry_budget_violation",)


def test_missing_binding_reason(admissible):
    run, _ = admissible
    decision = admit(run, None)
    assert decision.verdict == "rejected"
    assert decision.reasons == ("missing_release_binding",)


def test_stressed_paper_row_without_decision_label_rejected(admissible):
    run, root = admissible
    stressed = dataclasses.replace(
        run,
        setting_label="medium_live_stressed",
        driver=dataclasses.replace(run.driver, setting_label="medium_live_stressed"),
    )
    decision = _decide(stressed, root)
    assert decision.verdict == "rejected"
    assert decision.reasons == ("missing_driver_metadata",)


# ---------------------------------------------------------------------------
# stratify
# ---------------------------------------------------------------------------


def _run_with_driver(run, **driver_overrides):
    return dataclasses.replace(run, driver=dataclasses.replace(run.driver, **driver_overrides))


def test_stratify_mapping(admissible):
    run, _ = admissible
    assert stratify(run) == "real_task_anchor"
    llm = _run_with_driver(run, driver_type="llm", model_family="sim", backend_engine="vllm")
    assert stratify(llm) == "llm_driver"
    controller = _run_with_driver(run, driver_type="controller")
    assert stratify(controller) == "decision_study"
    diagnostic = _run_with_driver(run, driver_type="calibration", evidence_status="diagnostic")
    assert stratify(diagnostic) == "bounded_extension_or_diagnostic"
    sanity = _run_with_driver(run, driver_type="sanity", evidence_status="diagnostic")
    assert stratify(sanity) == "bounded_extension_or_diagnostic"
    fixture = _run_with_driver(run, evidence_status="fixture_backed")
    assert stratify(fixture) == "non_paper_facing"
    smoke_llm = _run_with_driver(
        run, driver_type="llm", model_family="sim", backend_engine="vllm",
        evidence_status="smoke_only",
    )
    assert stratify(smoke_llm) == "non_paper_facing"


# ---------------------------------------------------------------------------
# gate_report
# ---------------------------------------------------------------------------


def _mixed_runset(run):
    variants = [run]
    variants.append(dataclasses.replace(run, run_id="r-rej1", terminal=None))
    variants.append(
        dataclasses.replace(
            run, run_id="r-rej2",
            driver=dataclasses.replace(run.driver, evidence_status="fixture_backed"),
        )
    )
    variants.append(dataclasses.replace(run, run_id="r-quar", trace_complete=False))
    variants.append(
        dataclasses.replace(
            run, run_id="r-llm",
            driver=dataclasses.replace(
                run.driver, driver_type="llm", model_family="m", backend_engine="vllm"
            ),
        )
    )
    return RunSet(runs=variants)


def test_gate_report_arithmetic(admissible):
    run, root = admissible
    runset = _mixed_runset(run)
    decisions = decide_runset(runset, root)
    report = gate_report(runset, decisions)
    assert report.indexed == 5
    assert report.admitted == 2
    assert report.excluded == 3
    assert report.indexed == report.admitted + report.excluded
    assert report.quarantined == 1
    assert report.by_reason["missing_terminal_outcome"] == 1
    assert report.by_reason["fixture_only_provenance"] == 1
    assert report.by_stratum == {"real_task_anchor": 1, "llm_driver": 1}
    assert report.validation_failures == 1
    assert "bounded_extension_or_diagnostic" in report.missing_strata


def test_all_fixture_runset_counts(admissible):
    run, root = admissible
    fixture_runs = [
        dataclasses.replace(
            run, run_id=f"fx-{index}",
            driver=dataclasses.replace(run.driver, evidence_status="fixture_backed"),
        )
        for index in range(4)
    ]
    runset = RunSet(runs=fixture_runs)
    decisions = decide_runset(runset, root)
    report = gate_report(runset, decisions)
    assert report.by_reason["fixture_only_provenance"] == report.indexed == 4
    assert report.admitted == 0
    assert report.missing_strata == PLANNED_CANONICAL_STRATA


def test_forty_run_mixed_fixture_matches_independent_tally(admissible):
    # DERIVED oracle: hand tally over the decision list, written without
    # touching gate_report internals.
    run, root = admissible
    rng = random.Random(8)
    mutators = [
        lambda r: r,
        lambda r: dataclasses.replace(r, terminal=None),
        lambda r: dataclasses.replace(r, trace_complete=False),
        lambda r: dataclasses.replace(
            r, driver=dataclasses.replace(r.driver, evidence_status="smoke_only")
        ),
        lambda r: dataclasses.replace(r, manifest_resolved=False, trace_complete=False),
        lambda r: dataclasses.replace(
            r, driver=dataclasses.replace(
                r.driver, driver_type="llm", model_family="m", backend_engine="vllm"
            )
        ),
    ]
    runs = [
        dataclasses.replace(rng.choice(mutators)(run), run_id=f"mix-{index:02d}")
        for index in range(40)
    ]
    runset = RunSet(runs=runs)
    decisions = decide_runset(runset, root)
    report = gate_report(runset, decisions)

    admitted_tally = sum(1 for decision in decisions if decision.verdict == "admitted")
    excluded_tally = sum(1 for decision in decisions if decision.verdict != "admitted")
    reason_tally: dict[str, int] = {}
    for decision in decisions:
        for reason in decision.reasons:
            reason_tally[reason] = reason_tally.get(reason, 0) + 1
    assert report.admitted == admitted_tally
    assert report.excluded == excluded_tally
    assert report.by_reason == reason_tally
    assert sum(report.by_reason.values()) >= report.excluded


def test_gate_order_independence(admissible):
    run, root = admissible
    runset = _mixed_runset(run)
    decisions = decide_runset(runset, root)
    permuted = RunSet(runs=list(reversed(runset.runs)))
    permuted_decisions = decide_runset(permuted, root)
    assert permuted_decisions == list(reversed(decisions))


def test_decision_study_rows_never_merge_into_canonical(admissible):
    run, root = admissible
    base = _mixed_runset(run)
    base_decisions = decide_runset(base, root)
    base_report = gate_report(base, base_decisions)

    study_rows = [
        dataclasses.replace(
            run, run_id=f"study-{index}",
            driver=dataclasses.replace(run.driver, driver_type="controller"),
            backend="vllm", variant="hook_a_only",
        )
        for index in range(6)
    ]
    augmented = RunSet(runs=list(base.runs) + study_rows)
    augmented_decisions = decide_runset(augmented, root)
    augmented_report = gate_report(augmented, augmented_decisions)
    assert augmented_report == base_report

    decision_report = gate_report(augmented, augmented_decisions, scope="decision_study")
    assert decision_report.indexed == 6
    assert decision_report.admitted == 6


def test_decision_run_mismatch_raises(admissible):
    run, root = admissible
    runset = _mixed_runset(run)
    decisions = decide_runset(runset, root)
    with pytest.raises(GateError) as err:
        gate_report(runset, decisions[:-1])
    assert err.value.code == "decision_set_mismatch"
