from __future__ import annotations

import dataclasses
import math
import random

import pytest

from gatebench.gate import GateDecision
from gatebench.report import (
    CLAIM_KEYS,
    CLAIM_RULES,
    ClaimEvidence,
    DecisionCell,
    DecisionStudyReport,
    ReportError,
    claim_matrix,
    decision_study,
    invalid_action_rate,
    latency_breakdown,
    latency_decomposition,
    nearest_rank,
    render_decision_table,
    require_admitted,
    reward_auc,
    select_variant,
    summarize_run,
)
from gatebench.gate import GateReport
from gatebench.runner import DriverSpec, RewardPoint, RunSet, execute_run
from gatebench.simenv import clean_setting


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def test_singleton_percentiles_collapse():
    block = latency_breakdown([5.0], [], episodes_completed=1, wall_span_ms=1000.0)
    assert block.p50_ms == block.p95_ms == block.p99_ms == 5.0


def _sorted_index_oracle(values: list[float], percentile: float) -> float:
    # Direct sorted-array definition: value at ceil(p/100 * n), 1-based.
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(1, rank) - 1]


def test_thousand_sample_percentiles_match_sort_and_index_oracle():
    rng = random.Random(17)
    values = [rng.expovariate(0.01) for _ in range(1000)]
    ordered = sorted(values)
    for percentile in (50.0, 95.0, 99.0):
        assert nearest_rank(ordered, percentile) == _sorted_index_oracle(values, percentile)


def test_nearest_rank_exhaustive_small_n():
    rng = random.Random(3)
    for n in range(1, 201):
        values = [rng.random() * 100 for _ in range(n)]
        ordered = sorted(values)
        for percentile in (1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0):
            assert nearest_rank(ordered, percentile) == _sorted_index_oracle(values, percentile)


def test_percentile_ordering_invariant():
    rng = random.Random(9)
    values = sorted(rng.lognormvariate(3, 1) for _ in range(500))
    block = latency_breakdown(values, [1.0, 2.0], episodes_completed=10, wall_span_ms=5000.0)
    assert block.p50_ms <= block.p95_ms <= block.p99_ms
    assert block.throughput_eps == pytest.approx(10 / 5.0)


# ---------------------------------------------------------------------------
# Invalid-action rate
# ---------------------------------------------------------------------------


def _action_events(statuses: list[str]):
    from tests.test_schema import make_event

    events = []
    for index, status in enumerate(statuses):
        payload = {
            "parse_status": status,
            "invalid_action": status != "parsed",
            "observation_hash": "ab" * 32,
            "prompt_tokens": 1,
            "completion_tokens": 1,
            "model_latency_ms": 1.0,
        }
        events.append(make_event("action_parsed", index, "ep-0", payload=payload))
    return events


def test_invalid_rate_all_parsed():
    report = invalid_action_rate([summarize_run(_action_events(["parsed"] * 8))])
    assert report.rate == 0.0


def test_invalid_rate_all_invalid():
    report = invalid_action_rate([summarize_run(_action_events(["invalid"] * 5))])
    assert report.rate == 1.0


def test_invalid_rate_matches_hand_count():
    statuses = ["parsed", "invalid", "empty", "parsed", "invalid", "parsed"]
    report = invalid_action_rate([summarize_run(_action_events(statuses))])
    assert report.rate == pytest.approx(3 / 6)
    assert report.counts_by_status == {"parsed": 3, "invalid": 2, "empty": 1}


def test_invalid_rate_requires_actions():
    with pytest.raises(ReportError) as err:
        invalid_action_rate([])
    assert err.value.code == "no_actions"


# ---------------------------------------------------------------------------
# Reward AUC
# ---------------------------------------------------------------------------


def _points(pairs):
    return [RewardPoint(wall_clock_ms=t, reward=r) for t, r in pairs]


def test_auc_flat_zero():
    assert reward_auc(_points([(0.0, 0.0)]), horizon_ms=100.0) == 0.0


def test_auc_full_reward_over_horizon():
    assert reward_auc(_points([(0.0, 1.0)]), horizon_ms=100.0) == 1.0


def test_auc_half_step():
    assert reward_auc(_points([(0.0, 0.0), (50.0, 1.0)]), horizon_ms=100.0) == pytest.approx(0.5)


def test_auc_rejects_nonmonotone_timestamps():
    with pytest.raises(ReportError) as err:
        reward_auc(_points([(0.0, 0.0), (10.0, 0.5), (10.0, 0.6)]), horizon_ms=50.0)
    assert err.value.code == "nonmonotone_trajectory"


def test_auc_rejects_short_horizon():
    with pytest.raises(ReportError):
        reward_auc(_points([(0.0, 0.0), (60.0, 1.0)]), horizon_ms=50.0)


def _abel_oracle(points, horizon):
    # Independent formulation: each reward increment at time t contributes
    # (horizon - t); algebraically equal to the step integral.
    total = 0.0
    previous = 0.0
    for point in points:
        total += (point.reward - previous) * (horizon - point.wall_clock_ms)
        previous = point.reward
    return total / horizon


def test_auc_matches_independent_oracle_on_1000_random_trajectories():
    rng = random.Random(60)
    for _ in range(1000):
        n = rng.randint(1, 20)
        times = sorted(rng.uniform(0.1, 10_000.0) for _ in range(n))
        rewards = sorted(rng.uniform(0.0, 1.0) for _ in range(n))
        points = _points([(0.0, 0.0)] + list(zip(times, rewards)))
        horizon = times[-1] + rng.uniform(0.0, 5_000.0) if times else 100.0
        assert reward_auc(points, horizon) == pytest.approx(
            _abel_oracle(points, horizon), abs=1e-9
        )


def test_auc_positive_scaling_property():
    rng = random.Random(61)
    times = sorted(rng.uniform(1, 1000) for _ in range(6))
    rewards = sorted(rng.uniform(0, 1) for _ in range(6))
    points = _points([(0.0, 0.0)] + list(zip(times, rewards)))
    base = reward_auc(points, 2000.0)
    for scale in (0.25, 0.5, 1.0):
        scaled = [RewardPoint(p.wall_clock_ms, p.reward * scale) for p in points]
        assert reward_auc(scaled, 2000.0) == pytest.approx(scale * base, abs=1e-12)


def test_argmax_invariant_under_common_scaling():
    a = _points([(0.0, 0.0), (10.0, 0.4), (50.0, 0.9)])
    b = _points([(0.0, 0.0), (30.0, 0.8)])
    horizon = 100.0
    choice = select_variant(
        {"hook_a_only": reward_auc(a, horizon), "hook_b_only": reward_auc(b, horizon)}
    )
    for scale in (0.2, 0.7):
        scaled_choice = select_variant(
            {
                "hook_a_only": reward_auc(
                    [RewardPoint(p.wall_clock_ms, p.reward * scale) for p in a], horizon
                ),
                "hook_b_only": reward_auc(
                    [RewardPoint(p.wall_clock_ms, p.reward * scale) for p in b], horizon
                ),
            }
        )
        assert scaled_choice == choice


# ---------------------------------------------------------------------------
# Variant selection (values from the released decision table)
# ---------------------------------------------------------------------------

SELECTION_CASES = [
    ({"hook_a_only": 0.051875, "hook_b_only": 0.045106}, "hook_a_only"),
    ({"hook_a_only": 0.035093, "hook_b_only": 0.044943}, "hook_b_only"),
    ({"hook_a_only": 0.052251, "hook_b_only": 0.045242}, "hook_a_only"),
    ({"hook_a_only": 0.035086, "hook_b_only": 0.045132}, "hook_b_only"),
]


@pytest.mark.parametrize("aucs, expected", SELECTION_CASES)
def test_selection_reproduces_reference_cells(aucs, expected):
    assert select_variant(aucs) == expected
    cell = DecisionCell.from_aucs("vllm", 0, 7, "clean", aucs)
    assert cell.selected == expected


def test_tie_breaks_lexicographically():
    assert select_variant({"hook_a_only": 0.5, "hook_b_only": 0.5}) == "hook_a_only"
    assert select_variant({"hook_b_only": 0.5, "hook_a_only": 0.5}) == "hook_a_only"


# ---------------------------------------------------------------------------
# decision_study aggregation over synthetic run records
# ---------------------------------------------------------------------------


def _study_run(base, backend, seed, budget, setting, variant, trajectory):
    driver = dataclasses.replace(
        base.driver,
        driver_id=f"controller-{variant}-{backend}-b{budget}",
        driver_type="controller",
        budget=budget,
    )
    return dataclasses.replace(
        base,
        run_id=f"{backend}-{seed}-{budget}-{setting}-{variant}",
        driver=driver,
        setting_label=setting,
        seed=seed,
        backend=backend,
        variant=variant,
        horizon_ms=1000.0,
        reward_trajectory=tuple(trajectory),
    )


@pytest.fixture()
def study_fixture(micro_manifest):
    base, _ = execute_run(
        micro_manifest,
        DriverSpec(name="seed-run", driver_type="scripted"),
        clean_setting(),
        seed=1,
        budget=3,
        planned_episodes=1,
    )
    fast = _points([(0.0, 0.0), (100.0, 1.0)])
    slow = _points([(0.0, 0.0), (500.0, 1.0)])
    runs = []
    for backend in ("vllm", "sglang"):
        for seed in (0,):
            for budget in (7,):
                runs.append(_study_run(base, backend, seed, budget, "clean", "hook_a_only", fast))
                runs.append(_study_run(base, backend, seed, budget, "clean", "hook_b_only", slow))
                runs.append(
                    _study_run(base, backend, seed, budget, "medium_live_stressed",
                               "hook_a_only", slow)
                )
                runs.append(
                    _study_run(base, backend, seed, budget, "medium_live_stressed",
                               "hook_b_only", fast)
                )
    return RunSet(runs=runs)


def _admit_all(runset):
    return [
        GateDecision(run_id=run.run_id, verdict="admitted", reasons=(),
                     stratum="decision_study")
        for run in runset.runs
    ]


def test_decision_study_counts_reversals(study_fixture):
    report = decision_study(study_fixture, _admit_all(study_fixture))
    assert report.admitted == 8
    assert report.blocked == 0
    assert report.comparable_cells == 2
    assert report.reversal_cells == 2
    for cell in report.cells:
        expected = "hook_a_only" if cell.setting == "clean" else "hook_b_only"
        assert cell.selected == expected


def test_decision_study_marks_incomparable_cells(study_fixture):
    runs = [run for run in study_fixture.runs if not (
        run.backend == "sglang" and run.variant == "hook_b_only"
        and run.setting_label == "clean"
    )]
    runset = RunSet(runs=runs)
    report = decision_study(runset, _admit_all(runset))
    assert report.comparable_cells == 1
    assert report.reversal_cells == 1
    assert any("sglang" in item for item in report.incomparable)


def test_decision_study_counts_blocked(study_fixture):
    decisions = _admit_all(study_fixture)
    decisions[0] = GateDecision(
        run_id=decisions[0].run_id, verdict="rejected",
        reasons=("missing_terminal_outcome",), stratum="decision_study",
    )
    report = decision_study(study_fixture, decisions)
    assert report.blocked == 1
    assert report.admitted == 7


def test_render_decision_table_layout(study_fixture):
    report = decision_study(study_fixture, _admit_all(study_fixture))
    text = render_decision_table(report)
    header = text.splitlines()[0]
    for column in ("Backend", "Setting", "hook_a_only", "hook_b_only", "Selected"):
        assert column in header


# ---------------------------------------------------------------------------
# Admitted-input guard and latency grouping
# ---------------------------------------------------------------------------


def test_reports_refuse_rejected_inputs(micro_manifest):
    run, events = execute_run(
        micro_manifest, DriverSpec(name="s", driver_type="scripted"), clean_setting(),
        seed=2, budget=3, planned_episodes=1,
    )
    rejected = GateDecision(
        run_id=run.run_id, verdict="rejected", reasons=("smoke_only",),
        stratum="non_paper_facing",
    )
    with pytest.raises(ReportError) as err:
        require_admitted([run], [rejected])
    assert err.value.code == "rejected_input"
    with pytest.raises(ReportError):
        latency_decomposition([run], {run.run_id: summarize_run(events)}, [rejected])


def test_latency_decomposition_groups_by_family(micro_manifest, web_manifest):
    runs = []
    summaries = {}
    decisions = []
    for manifest in (micro_manifest, web_manifest):
        run, events = execute_run(
            manifest, DriverSpec(name="s", driver_type="scripted"), clean_setting(),
            seed=3, budget=6, planned_episodes=2,
        )
        runs.append(run)
        summaries[run.run_id] = summarize_run(events)
        decisions.append(
            GateDecision(run_id=run.run_id, verdict="admitted", reasons=(),
                         stratum="real_task_anchor")
        )
    groups = latency_decomposition(runs, summaries, decisions)
    assert set(groups) == {"micro/c1", "web/c1"}
    assert groups["web/c1"].mean_ms > groups["micro/c1"].mean_ms


# ---------------------------------------------------------------------------
# Claim matrix
# ---------------------------------------------------------------------------


def _gate_report(admitted=10, failures=0, missing=(), strata=None):
    return GateReport(
        scope="canonical",
        indexed=admitted + 2,
        admitted=admitted,
        excluded=2,
        quarantined=0,
        by_reason={"smoke_only": 2},
        by_stratum=strata or {
            "real_task_anchor": 4, "llm_driver": 4, "bounded_extension_or_diagnostic": 2
        },
        missing_strata=tuple(missing),
        validation_failures=failures,
    )


def _study_report(reversals=12, comparable=12, blocked=0):
    return DecisionStudyReport(
        cells=(), admitted=48, blocked=blocked,
        comparable_cells=comparable, reversal_cells=reversals,
    )


def test_decision_claim_supported_on_full_reversal():
    matrix = claim_matrix(_gate_report(), _study_report())
    assert matrix.row("controller_decision_study").status == "supported"


def test_decision_claim_caveated_on_partial_reversal():
    matrix = claim_matrix(_gate_report(), _study_report(reversals=11))
    assert matrix.row("controller_decision_study").status == "caveated"


def test_decision_claim_caveated_when_blocked():
    matrix = claim_matrix(_gate_report(), _study_report(blocked=3))
    assert matrix.row("controller_decision_study").status == "caveated"


def test_claims_not_claimed_on_empty_surface():
    empty = GateReport(
        scope="canonical", indexed=0, admitted=0, excluded=0, quarantined=0,
        by_reason={}, by_stratum={},
        missing_strata=("real_task_anchor", "llm_driver", "bounded_extension_or_diagnostic"),
        validation_failures=0,
    )
    matrix = claim_matrix(empty, None)
    assert all(row.status == "not_claimed" for row in matrix.rows)


def test_substrate_claim_requires_clean_validation():
    matrix = claim_matrix(_gate_report(failures=1), None)
    assert matrix.row("substrate_evidence_gate").status == "caveated"
    matrix = claim_matrix(_gate_report(), None)
    assert matrix.row("substrate_evidence_gate").status == "supported"


def test_verifier_controls_claim_thresholds():
    evidence = ClaimEvidence(gold_pass=5, gold_total=5, noop_fail=5, noop_total=5)
    matrix = claim_matrix(_gate_report(), None, evidence)
    assert matrix.row("verifier_controls").status == "supported"
    partial = ClaimEvidence(gold_pass=4, gold_total=5, noop_fail=5, noop_total=5)
    matrix = claim_matrix(_gate_report(), None, partial)
    assert matrix.row("verifier_controls").status == "caveated"


# Every status each claim rule can give, from the inputs that reach it:
# (claim, gate report, study report, evidence, expected (status, rows, scope)).
_EMPTY_GATE = GateReport(
    scope="canonical", indexed=0, admitted=0, excluded=0, quarantined=0,
    by_reason={}, by_stratum={},
    missing_strata=("real_task_anchor", "llm_driver", "bounded_extension_or_diagnostic"),
    validation_failures=0,
)
_NONE = ClaimEvidence()
_CONTROLS = {"gold_pass": 5, "gold_total": 5, "noop_fail": 5, "noop_total": 5}
_CLAIM_CASES = [
    ("substrate_evidence_gate", _EMPTY_GATE, None, _NONE, ("not_claimed", 0, "no admitted rows")),
    ("substrate_evidence_gate", _gate_report(), None, _NONE, (
        "supported", 10,
        "canonical surface; all planned strata present, zero validation failures",
    )),
    ("substrate_evidence_gate", _gate_report(failures=1, missing=("llm_driver",)), None, _NONE,
     ("caveated", 10, "missing strata ['llm_driver'], 1 validation failures")),
    ("real_task_anchors", _gate_report(strata={"llm_driver": 4}), None, _NONE,
     ("not_claimed", 0, "scripted/calibration anchors")),
    ("real_task_anchors", _gate_report(), None, _NONE,
     ("supported", 4, "scripted/calibration anchors")),
    ("llm_driver_traffic", _gate_report(strata={"real_task_anchor": 4}), None, _NONE,
     ("not_claimed", 0, "traffic and cost evidence, not capability")),
    ("llm_driver_traffic", _gate_report(), None, _NONE,
     ("supported", 4, "traffic and cost evidence, not capability")),
    ("verifier_controls", _gate_report(), None, _NONE, ("not_claimed", 0, "no control rows")),
    ("verifier_controls", _gate_report(), None, ClaimEvidence(**_CONTROLS),
     ("supported", 10, "gold 5/5 pass, noop 5/5 fail")),
    ("verifier_controls", _gate_report(), None, ClaimEvidence(**{**_CONTROLS, "noop_fail": 4}),
     ("caveated", 10, "gold 5/5, noop 4/5")),
    ("verifier_controls", _gate_report(), None, ClaimEvidence(noop_fail=5, noop_total=5),
     ("caveated", 5, "gold 0/0, noop 5/5")),
    ("replay_fidelity", _gate_report(), None, _NONE, ("not_claimed", 0, "no replay diagnostic")),
    ("replay_fidelity", _gate_report(), None,
     ClaimEvidence(r1_reductions=(0.995, 0.997), r1_terminal_matches=2),
     ("supported", 2, "trace-replay reduction 0.9960, all terminals match")),
    ("replay_fidelity", _gate_report(), None,
     ClaimEvidence(r1_reductions=(0.995, 0.997), r1_terminal_matches=1),
     ("supported_bounded", 2, "reduction 0.9960")),
    ("replay_fidelity", _gate_report(), None,
     ClaimEvidence(r1_reductions=(0.95,), r1_terminal_matches=1),
     ("supported_bounded", 1, "reduction 0.9500")),
    ("replay_fidelity", _gate_report(), None,
     ClaimEvidence(r1_reductions=(0.5, 0.7), r1_terminal_matches=2),
     ("caveated", 2, "reduction 0.6000")),
    ("throughput_scaling", _gate_report(), None, _NONE, ("not_claimed", 0, "no scaling diagnostic")),
    ("throughput_scaling", _gate_report(), None, ClaimEvidence(throughput_eps=(1.0, 2.5, 4.0)),
     ("supported", 3, "episodes/s strictly increasing across concurrency levels")),
    ("throughput_scaling", _gate_report(), None, ClaimEvidence(throughput_eps=(1.0, 2.5, 2.5)),
     ("caveated", 3, "trend not monotone")),
    ("stronger_driver_sanity", _gate_report(), None, _NONE, ("not_claimed", 0, "no sanity rows")),
    ("stronger_driver_sanity", _gate_report(), None, ClaimEvidence(sanity_episodes=6),
     ("appendix_only", 6, "separate sanity evidence; non-comparative")),
    ("controller_decision_study", _gate_report(), None, _NONE,
     ("not_claimed", 0, "no admitted decision-study rows")),
    ("controller_decision_study", _gate_report(),
     dataclasses.replace(_study_report(), admitted=0, blocked=48), _NONE,
     ("not_claimed", 0, "no admitted decision-study rows")),
    ("controller_decision_study", _gate_report(), _study_report(), _NONE, (
        "supported", 48,
        "tested grid only: 12/12 comparable cells reverse clean-vs-stressed selection",
    )),
    ("controller_decision_study", _gate_report(), _study_report(reversals=10), _NONE,
     ("caveated", 48, "10/12 reversals, 0 blocked")),
    ("controller_decision_study", _gate_report(), _study_report(blocked=3), _NONE,
     ("caveated", 48, "12/12 reversals, 3 blocked")),
    ("controller_decision_study", _gate_report(), _study_report(reversals=0, comparable=0), _NONE,
     ("caveated", 48, "0/0 reversals, 0 blocked")),
]


@pytest.mark.parametrize(
    "claim, gate_rep, study, evidence, expected", _CLAIM_CASES,
    ids=[f"{case[0]}-{case[4][0]}-{index}" for index, case in enumerate(_CLAIM_CASES)],
)
def test_claim_rule_gives_each_of_its_statuses(claim, gate_rep, study, evidence, expected):
    matrix = claim_matrix(gate_rep, study, evidence)
    assert CLAIM_KEYS == tuple(row.claim for row in matrix.rows)
    row = matrix.row(claim)
    assert (row.status, row.rows_used, row.scope) == expected


def test_claim_cases_cover_every_rule():
    assert CLAIM_KEYS == tuple(claim for claim, _ in CLAIM_RULES)
    assert len(set(CLAIM_KEYS)) == len(CLAIM_KEYS) == 8
    assert {case[0] for case in _CLAIM_CASES} == set(CLAIM_KEYS)


def test_episode_end_statuses_are_counted_and_must_be_strings():
    from tests.test_schema import make_event

    statuses = ["success", "failure", "success", "missing_terminal"]
    events = [
        make_event("episode_end", index, f"ep-{index}", payload={"status": status, "steps": 1})
        for index, status in enumerate(statuses)
    ]
    summary = summarize_run(events)
    assert summary.episode_statuses == {"success": 2, "failure": 1, "missing_terminal": 1}
    events[2] = make_event("episode_end", 2, "ep-2", payload={"status": True, "steps": 1})
    with pytest.raises(ReportError) as err:
        summarize_run(events)
    assert err.value.code == "invalid_log"
    assert str(err.value) == (
        "invalid_log: run run-1: event 2: episode_end status True is not a string"
    )
