"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from pathlib import Path

import pytest

from gatebench import runner
from gatebench.demo import build_demo_plan, build_demo_release
from gatebench.gate import admit, decide_runset, gate_report
from gatebench.manifest import ManifestStore, resolve_manifest, verify_binding
from gatebench.replay import build_bundle, replay_run
from gatebench.report import DecisionCell, reward_auc, select_variant
from gatebench.runner import DriverSpec, RewardPoint, RunPlan, execute_run, run_plan
from gatebench.schema import check_event_doc
from gatebench.simenv import clean_setting, simulate_family_throughput
from gatebench.study import StudyConfig, run_study


def _verdict(number: int, ok: bool, detail: str) -> None:
    label = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {label} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    store = ManifestStore(base / "root")
    build_demo_release(store)
    return base, store


# ---------------------------------------------------------------------------
# 1. Gate contract suite: 8 admission conditions, single-negation sensitivity
# ---------------------------------------------------------------------------


def test_criterion_1_gate_contract_single_negation(release):
    _, store = release
    root = store.load_root()
    manifest = resolve_manifest("micro-001", root, store)
    spec = DriverSpec(name="anchor", driver_type="scripted", evidence_status="paper_facing")
    started = time.monotonic()
    run, _ = execute_run(manifest, spec, clean_setting(), seed=3, budget=5, planned_episodes=2)
    baseline = admit(run, verify_binding(run, root))
    assert baseline.verdict == "admitted"

    negations = {
        "unresolved_manifest": dataclasses.replace(run, manifest_resolved=False),
        "missing_driver_metadata": dataclasses.replace(
            run, driver=dataclasses.replace(run.driver, driver_id="")
        ),
        "incomplete_trace": dataclasses.replace(run, trace_complete=False),
        "missing_terminal_outcome": dataclasses.replace(run, terminal=None),
        "missing_release_binding": run,  # binding withheld below
        "version_mismatch": dataclasses.replace(
            run, freeze=dataclasses.replace(run.freeze, schema_version="")
        ),
        "missing_replay_freeze": dataclasses.replace(run, freeze=None),
        "fixture_only_provenance": dataclasses.replace(
            run, driver=dataclasses.replace(run.driver, evidence_status="fixture_backed")
        ),
    }
    hits = 0
    for reason, broken in negations.items():
        binding = None if reason == "missing_release_binding" else verify_binding(broken, root)
        decision = admit(broken, binding)
        assert decision.verdict != "admitted", reason
        assert decision.reasons == (reason,), (reason, decision.reasons)
        expected_verdict = "quarantined" if reason == "incomplete_trace" else "rejected"
        assert decision.verdict == expected_verdict, reason
        hits += 1
    elapsed = time.monotonic() - started
    _verdict(
        1,
        hits == 8 and elapsed < 1.0,
        f"{hits}/8 admission conditions flip with exactly their reason in {elapsed:.3f}s (< 1s)",
    )


# ---------------------------------------------------------------------------
# 2. Decision-study selection exactness on the released AUC values
# ---------------------------------------------------------------------------


def test_criterion_2_selection_exactness():
    cases = [
        ("vllm", "clean", {"hook_a_only": 0.051875, "hook_b_only": 0.045106}, "hook_a_only"),
        ("vllm", "medium", {"hook_a_only": 0.035093, "hook_b_only": 0.044943}, "hook_b_only"),
        ("sglang", "clean", {"hook_a_only": 0.052251, "hook_b_only": 0.045242}, "hook_a_only"),
        ("sglang", "medium", {"hook_a_only": 0.035086, "hook_b_only": 0.045132}, "hook_b_only"),
    ]
    selected = []
    for backend, setting, aucs, expected in cases:
        cell = DecisionCell.from_aucs(backend, 0, 7, setting, aucs)
        assert cell.selected == expected
        assert select_variant(aucs) == expected
        selected.append(cell.selected)
    _verdict(
        2,
        selected == ["hook_a_only", "hook_b_only", "hook_a_only", "hook_b_only"],
        "selection column reproduced bit-exactly on all four reference cells",
    )


# ---------------------------------------------------------------------------
# 3. Desk-scale reversal reproduction on the default grid
# ---------------------------------------------------------------------------


def test_criterion_3_default_grid_reverses_12_of_12():
    started = time.monotonic()
    _, _, report = run_study(StudyConfig())
    elapsed = time.monotonic() - started
    ok = (
        report.comparable_cells == 12
        and report.reversal_cells == 12
        and report.blocked == 0
        and report.admitted == 48
        and elapsed < 60.0
    )
    _verdict(
        3,
        ok,
        f"grid 2x2x3x2x2: {report.reversal_cells}/{report.comparable_cells} reversals, "
        f"blocked={report.blocked}, admitted={report.admitted}, {elapsed:.2f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 4. Replay latency property on recorded web fixtures
# ---------------------------------------------------------------------------


def test_criterion_4_replay_reduction_and_fidelity(release):
    _, store = release
    root = store.load_root()
    manifest = resolve_manifest("web-001", root, store)
    spec = DriverSpec(
        name="web-llm", driver_type="llm", model_family="sim", backend_engine="vllm"
    )
    started = time.monotonic()
    episodes = 0
    matched_episodes = 0
    reductions = []
    for seed in range(10):
        run, events = execute_run(
            manifest, spec, clean_setting(), seed=seed, budget=10, planned_episodes=10
        )
        result = replay_run(build_bundle(run, events))
        episodes += len(run.episode_summaries)
        matched_episodes += len(run.episode_summaries) if result.terminal_match else 0
        reductions.append(result.reduction)
    elapsed = time.monotonic() - started
    mean_reduction = sum(reductions) / len(reductions)
    ok = (
        episodes == 100
        and matched_episodes == 100
        and mean_reduction >= 0.99
        and min(reductions) >= 0.99
        and elapsed < 10.0
    )
    _verdict(
        4,
        ok,
        f"R1 replay: mean reduction {mean_reduction:.4f} (>= 0.99), terminal match "
        f"{matched_episodes}/100, {elapsed:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 5. Throughput monotonicity for the code family
# ---------------------------------------------------------------------------


def test_criterion_5_throughput_monotone_one_four_eight():
    started = time.monotonic()
    trials = 10
    passes = 0
    samples = None
    for seed in range(trials):
        eps = [
            simulate_family_throughput("code", concurrency, episodes=40, seed=seed)
            for concurrency in (1, 4, 8)
        ]
        if eps[0] < eps[1] < eps[2]:
            passes += 1
        if seed == 0:
            samples = eps
    elapsed = time.monotonic() - started
    ok = passes == trials and elapsed < 30.0
    _verdict(
        5,
        ok,
        f"episodes/s strictly increasing 1->4->8 in {passes}/{trials} trials "
        f"(e.g. {samples[0]:.2f} < {samples[1]:.2f} < {samples[2]:.2f}), "
        f"{elapsed:.2f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 6. AUC oracle equivalence on 1,000 random monotone trajectories
# ---------------------------------------------------------------------------


def test_criterion_6_auc_oracle_equivalence():
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 25)
        times = sorted(rng.uniform(0.001, 50_000.0) for _ in range(n))
        rewards = sorted(min(1.0, rng.random()) for _ in range(n))
        points = [RewardPoint(0.0, 0.0)] + [
            RewardPoint(t, r) for t, r in zip(times, rewards)
        ]
        horizon = times[-1] * (1.0 + rng.random())
        # Independent oracle: layered (increment x remaining-horizon) sum.
        oracle = 0.0
        previous = 0.0
        for point in points:
            oracle += (point.reward - previous) * (horizon - point.wall_clock_ms)
            previous = point.reward
        oracle /= horizon
        worst = max(worst, abs(reward_auc(points, horizon) - oracle))
    _verdict(6, worst <= 1e-9, f"max |AUC - oracle| = {worst:.2e} over 1000 trajectories (<= 1e-9)")


# ---------------------------------------------------------------------------
# 7. Verifier calibration: gold and noop controls on the code fixture set
# ---------------------------------------------------------------------------


def test_criterion_7_verifier_controls(release):
    _, store = release
    root = store.load_root()
    oracle = DriverSpec(
        name="oracle-control", driver_type="calibration", mode="oracle",
        evidence_status="diagnostic",
    )
    noop = DriverSpec(
        name="noop-control", driver_type="calibration", mode="noop",
        evidence_status="diagnostic",
    )
    gold_pass = noop_fail = 0
    for index in range(1, 6):
        manifest = resolve_manifest(f"code-{index:03d}", root, store)
        run, _ = execute_run(
            manifest, oracle, clean_setting(), seed=index, budget=2, planned_episodes=1
        )
        gold_pass += sum(1 for item in run.episode_summaries if item.status == "success")
        run, _ = execute_run(
            manifest, noop, clean_setting(), seed=index, budget=2, planned_episodes=1
        )
        noop_fail += sum(1 for item in run.episode_summaries if item.status == "failure")
    _verdict(
        7,
        gold_pass == 5 and noop_fail == 5,
        f"gold {gold_pass}/5 pass, noop {noop_fail}/5 fail on the code fixture set",
    )


# ---------------------------------------------------------------------------
# 8. Determinism across concurrency levels (hash comparison)
# ---------------------------------------------------------------------------


def _digest_tree(base: Path, skip_names: set[str] = frozenset()) -> dict[str, str]:
    digests = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and path.name not in skip_names:
            digests[str(path.relative_to(base))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_8_determinism_across_concurrency(tmp_path, monkeypatch):
    # Two usable CPUs, so that concurrency 4 takes the process pool on any host.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    store = ManifestStore(tmp_path / "root")
    build_demo_release(store)
    plan_doc = build_demo_plan().to_doc()

    outputs = []
    for concurrency in (1, 4):
        plan = RunPlan.from_doc({**plan_doc, "concurrency": concurrency})
        out = tmp_path / f"c{concurrency}"
        runset = run_plan(plan, store, out_dir=out / "runs")
        decisions = decide_runset(runset, store.load_root())
        canonical = gate_report(runset, decisions)
        from gatebench.gate import save_gate_outputs

        save_gate_outputs(out / "gate", canonical, decisions)
        outputs.append(out)

    log_hashes = [_digest_tree(out / "runs" / "logs") for out in outputs]
    gate_hashes = [_digest_tree(out / "gate") for out in outputs]
    logs_equal = log_hashes[0] == log_hashes[1]
    gates_equal = gate_hashes[0] == gate_hashes[1]

    study_hashes = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        run_study(StudyConfig(backends=("vllm",), seeds=(0,), budgets=(5, 7)), out_dir=out)
        study_hashes.append(_digest_tree(out))
    studies_equal = study_hashes[0] == study_hashes[1]

    _verdict(
        8,
        logs_equal and gates_equal and studies_equal,
        f"event logs identical across concurrency 1/4: {logs_equal}; gate reports: "
        f"{gates_equal}; study outputs across executions: {studies_equal}",
    )


# ---------------------------------------------------------------------------
# 9. Schema fuzz: every required-field deletion rejected
# ---------------------------------------------------------------------------


def test_criterion_9_schema_fuzz_required_fields():
    from tests.test_schema import _required_paths, well_formed_run

    rng = random.Random(31337)
    docs = [event.to_doc() for event in well_formed_run(episodes=4, steps=3)]
    mutations = 0
    rejected = 0
    false_accepts = 0
    while mutations < 1500:
        doc = rng.choice(docs)
        path = rng.choice(_required_paths(doc))
        mutated = {
            key: (dict(value) if isinstance(value, dict) else value)
            for key, value in doc.items()
        }
        target = mutated
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        mutations += 1
        violations = check_event_doc(mutated)
        if violations:
            rejected += 1
        else:
            false_accepts += 1
    _verdict(
        9,
        mutations >= 1000 and rejected == mutations and false_accepts == 0,
        f"{rejected}/{mutations} required-field deletions rejected, "
        f"{false_accepts} false accepts",
    )
