from __future__ import annotations

import dataclasses
import filecmp
from pathlib import Path

import pytest

from gatebench import runner
from gatebench.gate import gate_report
from gatebench.manifest import ManifestStore
from gatebench.report import ReportError, decision_study, reward_auc
from gatebench.runner import RunSet, run_plan
from gatebench.study import StudyConfig, build_study_release, run_study, study_plan

SMALL = StudyConfig(backends=("vllm",), seeds=(0,), budgets=(7,))


@pytest.fixture(scope="module")
def small_study():
    return run_study(SMALL)


def test_small_grid_shape(small_study):
    runset, decisions, report = small_study
    assert len(runset.runs) == 4  # 1 backend x 1 seed x 1 budget x 2 settings x 2 variants
    assert report.admitted == 4
    assert report.blocked == 0
    assert report.comparable_cells == 1
    assert report.reversal_cells == 1


def test_study_runs_are_decision_stratum_and_admitted(small_study):
    runset, decisions, _ = small_study
    assert all(decision.stratum == "decision_study" for decision in decisions)
    assert all(decision.verdict == "admitted" for decision in decisions)
    assert all(run.trace_complete for run in runset.runs)
    assert all(run.terminal is not None for run in runset.runs)


def test_study_runs_carry_labels_and_horizons(small_study):
    runset, _, _ = small_study
    for run in runset.runs:
        assert run.backend == "vllm"
        assert run.variant in ("hook_a_only", "hook_b_only")
        assert run.horizon_ms is not None
        assert run.horizon_ms >= run.reward_trajectory[-1].wall_clock_ms


def test_clean_prefers_validity_filter_and_stressed_prefers_throttling(small_study):
    _, _, report = small_study
    for cell in report.cells:
        if cell.setting == "clean":
            assert cell.selected == "hook_a_only"
            assert cell.auc_by_variant["hook_a_only"] >= cell.auc_by_variant["hook_b_only"]
        else:
            assert cell.selected == "hook_b_only"
            assert cell.auc_by_variant["hook_b_only"] > cell.auc_by_variant["hook_a_only"]


def test_paired_bodies_across_variants(small_study):
    # Same seed/budget/setting/episode substreams: both variants must see the
    # same environment outcomes per episode.
    runset, _, _ = small_study
    by_variant = {}
    for run in runset.runs:
        if run.setting_label != "clean":
            continue
        statuses = tuple(
            summary.episode_id[-5:] + ":" + summary.status
            for summary in sorted(run.episode_summaries, key=lambda s: s.episode_id)
        )
        by_variant[run.variant] = statuses
    # Clean setting, no staleness: sample handling identical unless a sample
    # was invalid (both variants then fail the same episode).
    assert by_variant["hook_a_only"] == by_variant["hook_b_only"]


def test_study_gate_reports_separate_scopes(small_study):
    runset, decisions, _ = small_study
    canonical = gate_report(runset, decisions, scope="canonical")
    decision_scope = gate_report(runset, decisions, scope="decision_study")
    assert canonical.indexed == 0  # nothing canonical in a pure study runset
    assert decision_scope.indexed == len(runset.runs)
    assert decision_scope.admitted == len(runset.runs)
    assert decision_scope.missing_strata == ()


def test_aucs_recomputable_from_stored_trajectories(small_study):
    runset, _, report = small_study
    for run in runset.runs:
        auc = reward_auc(list(run.reward_trajectory), run.horizon_ms)
        cell = next(
            c for c in report.cells
            if (c.backend, c.seed, c.budget, c.setting)
            == (run.backend, run.seed, run.driver.budget, run.setting_label)
        )
        assert cell.auc_by_variant[run.variant] == pytest.approx(auc, abs=1e-12)


def test_full_default_grid_reverses_everywhere():
    _, _, report = run_study(StudyConfig())
    assert report.admitted == 48
    assert report.blocked == 0
    assert report.comparable_cells == 12
    assert report.reversal_cells == 12
    assert len(report.cells) == 24
    for cell in report.cells:
        expected = "hook_a_only" if cell.setting == "clean" else "hook_b_only"
        assert cell.selected == expected, cell


def _tree_bytes(base: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(base)): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def test_study_outputs_byte_identical_across_executions(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    run_study(SMALL, out_dir=first)
    run_study(SMALL, out_dir=second)
    left = _tree_bytes(first)
    right = _tree_bytes(second)
    assert left.keys() == right.keys()
    assert left == right
    comparison = filecmp.dircmp(first, second)
    assert not comparison.diff_files


def test_study_rerun_is_idempotent(tmp_path):
    out = tmp_path / "study"
    run_study(SMALL, out_dir=out)
    snapshot = _tree_bytes(out)
    run_study(SMALL, out_dir=out)
    assert _tree_bytes(out) == snapshot


def test_event_logs_validate(tmp_path):
    from gatebench.schema import read_event_log, validate_log

    out = tmp_path / "study"
    runset, _, _ = run_study(SMALL, out_dir=out)
    for run in runset.runs:
        _, docs = read_event_log(out / run.event_log_ref)
        assert validate_log(docs).ok


def test_study_plan_lists_the_grid_in_order():
    plan = study_plan(StudyConfig(budgets=(5, 9)))
    assert plan.concurrency == 1
    assert plan.episodes_per_run == 8
    assert len(plan.entries) == 2 * 2 * 2 * 2 * 2
    assert [(e.driver, e.setting_label, e.seed, e.budget) for e in plan.entries[:5]] == [
        ("controller-hook_a_only-vllm-b5", "clean", 0, 5),
        ("controller-hook_b_only-vllm-b5", "clean", 0, 5),
        ("controller-hook_a_only-vllm-b5", "medium_live_stressed", 0, 5),
        ("controller-hook_b_only-vllm-b5", "medium_live_stressed", 0, 5),
        ("controller-hook_a_only-vllm-b9", "clean", 0, 9),
    ]
    assert plan.entries[-1].driver == "controller-hook_b_only-sglang-b9"
    spec = plan.drivers["controller-hook_b_only-sglang-b9"]
    assert (spec.driver_type, spec.hooks_enabled, spec.backend_engine) == (
        "controller", "hook_b_only", "sglang"
    )


@pytest.mark.parametrize("concurrency", [1, 2])
def test_study_plan_run_writes_the_study_logs_and_runset(concurrency, tmp_path, monkeypatch):
    # Two usable CPUs, so that concurrency 2 takes the process pool on any host.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    study = tmp_path / "study"
    run_study(SMALL, out_dir=study)
    store = ManifestStore(tmp_path / "release")
    build_study_release(store)
    plan = dataclasses.replace(study_plan(SMALL), concurrency=concurrency)
    runs = tmp_path / "runs"
    run_plan(plan, store, out_dir=runs)
    expected = _tree_bytes(study)
    expected = {
        name: data for name, data in expected.items()
        if name == "runset.json" or name.startswith("logs/")
    }
    assert len(expected) == 5
    assert _tree_bytes(runs) == expected


def test_decision_study_rejects_a_run_without_horizon(small_study):
    runset, decisions, _ = small_study
    runs = list(runset.runs)
    runs[0] = dataclasses.replace(runs[0], horizon_ms=None)
    with pytest.raises(ReportError) as err:
        decision_study(RunSet(runs=runs), decisions)
    assert err.value.code == "invalid_horizon"
    assert runs[0].run_id in str(err.value)
