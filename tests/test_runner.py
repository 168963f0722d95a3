from __future__ import annotations

import dataclasses
import os

import pytest

from gatebench import runner
from gatebench.drivers import DriverError, SyntheticLlmProfile
from gatebench.manifest import resolve_manifest
from gatebench.runner import (
    DriverSpec,
    PlanEntry,
    RunPlan,
    RunnerError,
    build_reward_trajectory,
    execute_run,
    load_runset,
    make_run_id,
    run_episode,
    run_plan,
)
from gatebench.schema import EventRecord, read_event_log, validate_log
from gatebench.simenv import clean_setting, stressed_setting

ORACLE = DriverSpec(name="oracle", driver_type="calibration", mode="oracle",
                    evidence_status="diagnostic")
NOOP = DriverSpec(name="noop", driver_type="calibration", mode="noop",
                  evidence_status="diagnostic")
SCRIPTED = DriverSpec(name="scripted", driver_type="scripted")


def kinds(events: list[EventRecord]) -> list[str]:
    return [event.kind for event in events]


# ---------------------------------------------------------------------------
# run_episode
# ---------------------------------------------------------------------------


def test_oracle_micro_episode_succeeds_in_exactly_three_steps(micro_manifest):
    summary, events = run_episode(micro_manifest, ORACLE, clean_setting(), seed=1, budget=10)
    assert summary.status == "success"
    assert summary.steps == 3
    assert kinds(events).count("env_step_start") == 3
    assert kinds(events).count("env_step_end") == 3


def test_noop_episode_fails_with_budget_step_pairs(micro_manifest):
    summary, events = run_episode(micro_manifest, NOOP, clean_setting(), seed=1, budget=5)
    assert summary.status == "failure"
    assert summary.steps == 5
    assert kinds(events).count("env_step_start") == 5
    assert kinds(events).count("env_step_end") == 5


def test_all_invalid_profile_never_progresses(web_manifest):
    spec = DriverSpec(
        name="broken-llm",
        driver_type="llm",
        model_family="sim",
        backend_engine="vllm",
        profile=SyntheticLlmProfile(invalid_action_prob=1.0),
    )
    record, events = execute_run(
        web_manifest, spec, clean_setting(), seed=5, budget=6, planned_episodes=2
    )
    parsed = [event for event in events if event.kind == "action_parsed"]
    assert parsed
    assert all(event.payload["parse_status"] == "invalid" for event in parsed)
    assert all(summary.status == "failure" for summary in record.episode_summaries)
    final_progress = [
        event.payload["progress"] for event in events if event.kind == "env_step_end"
    ]
    assert all(progress == 0 for progress in final_progress)


def test_events_validate_and_trace_complete(web_manifest):
    record, events = execute_run(
        web_manifest,
        DriverSpec(name="llm", driver_type="llm", model_family="sim", backend_engine="vllm"),
        clean_setting(),
        seed=9,
        budget=8,
        planned_episodes=3,
    )
    assert record.trace_complete
    assert validate_log([event.to_doc() for event in events]).ok
    assert record.freeze is not None
    assert record.freeze.manifest_hash == web_manifest.manifest_hash()


def test_budget_compliance_across_drivers(web_manifest, micro_manifest):
    for manifest, budget in ((web_manifest, 4), (micro_manifest, 2)):
        for spec in (ORACLE, NOOP, SCRIPTED):
            record, events = execute_run(
                manifest, spec, clean_setting(), seed=2, budget=budget, planned_episodes=2
            )
            per_episode: dict[str, int] = {}
            for event in events:
                if event.kind == "env_step_start":
                    per_episode[event.episode_id] = per_episode.get(event.episode_id, 0) + 1
            assert all(count <= budget for count in per_episode.values())


def test_code_episode_emits_verifier_and_tool_events(code_manifest):
    summary, events = run_episode(code_manifest, ORACLE, clean_setting(), seed=4, budget=2)
    assert summary.status == "success"
    event_kinds = kinds(events)
    assert "tool_call" in event_kinds
    assert "verifier_outcome" in event_kinds


def test_stressed_run_emits_retries(web_manifest):
    spec = DriverSpec(name="s", driver_type="scripted", retry_budget=2)
    saw_retry = False
    for seed in range(12):
        _, events = execute_run(
            web_manifest, spec, stressed_setting(), seed=seed, budget=10, planned_episodes=4
        )
        if any(event.kind == "retry" for event in events):
            saw_retry = True
            break
    assert saw_retry


# ---------------------------------------------------------------------------
# Reward trajectories
# ---------------------------------------------------------------------------


def _naive_trajectory_oracle(events: list[EventRecord]) -> list[tuple[float, float]]:
    # Independent scan: planned episodes from run_start, cumulative successes
    # at each terminal_result, duplicates collapsed to the latest value.
    planned = next(
        int(event.payload["planned_episodes"]) for event in events if event.kind == "run_start"
    )
    points = [(0.0, 0.0)]
    wins = 0
    for event in events:
        if event.kind == "terminal_result":
            if event.payload["status"] == "success":
                wins += 1
            if points[-1][0] == event.wall_clock_ms:
                points[-1] = (event.wall_clock_ms, wins / planned)
            else:
                points.append((event.wall_clock_ms, wins / planned))
    return points


def test_flat_zero_trajectory(micro_manifest):
    record, _ = execute_run(
        micro_manifest, NOOP, clean_setting(), seed=1, budget=3, planned_episodes=3
    )
    assert [point.reward for point in record.reward_trajectory] == [0.0, 0.0, 0.0, 0.0]


def test_cumulative_quarters():
    from tests.test_schema import make_event

    events = [
        make_event("run_start", 0, payload={"setting_label": "clean", "planned_episodes": 4})
    ]
    seq = 1
    for index, t in enumerate((10.0, 20.0, 30.0, 40.0)):
        episode = f"ep-{index}"
        events.append(
            make_event("episode_start", seq, episode, payload={"episode_index": index},
                       wall_clock_ms=t - 1)
        )
        seq += 1
        events.append(make_event("terminal_result", seq, episode, wall_clock_ms=t))
        seq += 1
        events.append(
            make_event("episode_end", seq, episode, wall_clock_ms=t,
                       payload={"status": "success", "steps": 1})
        )
        seq += 1
    trajectory = build_reward_trajectory(events)
    assert [point.reward for point in trajectory] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [point.wall_clock_ms for point in trajectory] == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_trajectory_matches_independent_scan_oracle(web_manifest):
    spec = DriverSpec(
        name="llm", driver_type="llm", model_family="sim", backend_engine="vllm",
        profile=SyntheticLlmProfile(success_bias=0.6, invalid_action_prob=0.1),
    )
    record, events = execute_run(
        web_manifest, spec, clean_setting(), seed=31, budget=9, planned_episodes=6
    )
    expected = _naive_trajectory_oracle(events)
    actual = [(point.wall_clock_ms, point.reward) for point in record.reward_trajectory]
    assert actual == expected


def test_trajectory_monotone_properties(web_manifest):
    for seed in range(5):
        record, _ = execute_run(
            web_manifest,
            DriverSpec(name="llm", driver_type="llm", model_family="sim",
                       backend_engine="vllm"),
            clean_setting(),
            seed=seed,
            budget=8,
            planned_episodes=4,
        )
        times = [point.wall_clock_ms for point in record.reward_trajectory]
        rewards = [point.reward for point in record.reward_trajectory]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert rewards == sorted(rewards)
        assert all(0.0 <= reward <= 1.0 for reward in rewards)


# ---------------------------------------------------------------------------
# run_plan
# ---------------------------------------------------------------------------


def _small_plan(repetitions: int = 2, concurrency: int = 1) -> RunPlan:
    return RunPlan(
        entries=(
            PlanEntry("micro-001", "scripted", "clean", seed=1, budget=4,
                      repetitions=repetitions),
            PlanEntry("web-001", "scripted", "clean", seed=2, budget=6,
                      repetitions=repetitions),
        ),
        drivers={"scripted": SCRIPTED},
        release_root="demo-root",
        concurrency=concurrency,
        episodes_per_run=2,
    )


def test_plan_two_entries_two_reps_entry_major_order(demo_store):
    runset = run_plan(_small_plan(), demo_store)
    assert len(runset.runs) == 4
    assert [run.task_id for run in runset.runs] == [
        "micro-001", "micro-001", "web-001", "web-001",
    ]
    assert [run.repetition for run in runset.runs] == [0, 1, 0, 1]


def test_unknown_task_becomes_candidate_run(demo_store):
    plan = RunPlan(
        entries=(PlanEntry("ghost", "scripted", "clean", seed=1, budget=3),),
        drivers={"scripted": SCRIPTED},
        release_root="demo-root",
    )
    runset = run_plan(plan, demo_store)
    assert len(runset.runs) == 1
    candidate = runset.runs[0]
    assert not candidate.manifest_resolved
    assert candidate.terminal is None
    assert not candidate.trace_complete


def test_concurrency_one_vs_four_bit_identical(demo_store, tmp_path, monkeypatch):
    # Two usable CPUs, so that concurrency 4 takes the process pool on any host.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    out_one = tmp_path / "c1"
    out_four = tmp_path / "c4"
    run_plan(_small_plan(concurrency=1), demo_store, out_dir=out_one)
    run_plan(_small_plan(concurrency=4), demo_store, out_dir=out_four)

    one_runset = (out_one / "runset.json").read_bytes()
    four_runset = (out_four / "runset.json").read_bytes()
    # Run content must be identical; the recorded plan concurrency is the only
    # allowed difference.
    assert one_runset.replace(b'"concurrency":1', b'"concurrency":4') == four_runset
    one_logs = sorted(path.name for path in (out_one / "logs").iterdir())
    four_logs = sorted(path.name for path in (out_four / "logs").iterdir())
    assert one_logs == four_logs
    for name in one_logs:
        assert (out_one / "logs" / name).read_bytes() == (out_four / "logs" / name).read_bytes()


def test_pool_width_is_capped_by_jobs_and_cpus():
    # Pure arithmetic: no pool or process is started for any of these.
    assert runner._pool_width(1, 360, 64) == 1
    assert runner._pool_width(2, 360, 64) == 2
    assert runner._pool_width(64, 360, 2) == 2
    assert runner._pool_width(10**6, 360, 8) == 8
    assert runner._pool_width(10**6, 3, 8) == 3
    assert runner._pool_width(4, 0, 8) == 1
    assert runner._pool_width(4, 360, 1) == 1


def test_usable_cpus_is_positive():
    assert runner._usable_cpus() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert runner._usable_cpus() == len(os.sched_getaffinity(0))


def test_width_one_runs_in_process_without_pool(demo_store, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a width-1 plan must not start a pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    runset = run_plan(_small_plan(concurrency=4), demo_store)
    assert [run.concurrency for run in runset.runs] == [4, 4, 4, 4]


def test_worker_error_keeps_type_and_code(demo_store, tmp_path, monkeypatch):
    parent = os.getpid()

    def failing_run(*args, **kwargs):
        raise DriverError("driver_failure", f"raised in pid {os.getpid()}")

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "execute_run", failing_run)  # forked workers inherit it
    with pytest.raises(DriverError) as err:
        run_plan(_small_plan(concurrency=2), demo_store, out_dir=tmp_path / "rs")
    assert err.value.code == "driver_failure"
    assert str(err.value).startswith("driver_failure: raised in pid ")
    assert str(err.value) != f"driver_failure: raised in pid {parent}"
    assert not (tmp_path / "rs" / "runset.json").exists()


def test_runset_round_trip(demo_store, tmp_path):
    out = tmp_path / "rs"
    runset = run_plan(_small_plan(), demo_store, out_dir=out)
    loaded = load_runset(out)
    assert [run.to_doc() for run in loaded.runs] == [run.to_doc() for run in runset.runs]
    events = loaded.events_for(loaded.runs[0])
    assert events[0].kind == "run_start"


def test_event_log_files_validate(demo_store, tmp_path):
    out = tmp_path / "rs"
    runset = run_plan(_small_plan(), demo_store, out_dir=out)
    for run in runset.runs:
        if not run.event_log_ref:
            continue
        _, docs = read_event_log(out / run.event_log_ref)
        assert validate_log(docs).ok


def test_run_id_stable_and_distinct(micro_manifest, web_manifest):
    base = make_run_id(micro_manifest.manifest_hash(), "d", "clean", 1, 0)
    assert base == make_run_id(micro_manifest.manifest_hash(), "d", "clean", 1, 0)
    assert base != make_run_id(micro_manifest.manifest_hash(), "d", "clean", 1, 1)
    assert base != make_run_id(web_manifest.manifest_hash(), "d", "clean", 1, 0)


def test_execute_requires_resolved_manifest(micro_manifest):
    unresolved = dataclasses.replace(micro_manifest, resolved=False)
    with pytest.raises(RunnerError):
        execute_run(unresolved, SCRIPTED, clean_setting(), seed=0, budget=3, planned_episodes=1)


# ---------------------------------------------------------------------------
# Plan-level settings and controller drivers
# ---------------------------------------------------------------------------


def test_plan_defined_setting_overrides_builtin(demo_store):
    from gatebench.simenv import OperatingSetting

    custom = OperatingSetting(
        label="medium_live_stressed",
        env_latency_multiplier=2.0,
        tail_inflation=1.0,
        verifier_arrival_rate_boost=1.0,
        fault_injection_prob=0.0,
    )
    plan = RunPlan(
        entries=(
            PlanEntry("micro-001", "scripted", "medium_live_stressed", seed=1, budget=4),
        ),
        drivers={"scripted": SCRIPTED},
        release_root="demo-root",
        settings={"medium_live_stressed": custom},
        episodes_per_run=1,
    )
    assert plan.setting_for("medium_live_stressed") == custom
    reloaded = RunPlan.from_doc(plan.to_doc())
    assert reloaded.setting_for("medium_live_stressed") == custom
    runset = run_plan(plan, demo_store)
    assert runset.runs[0].setting_label == "medium_live_stressed"


def test_manifest_base_service_override(demo_store, demo_root):
    import statistics

    from gatebench.manifest import make_manifest, publish_release, resolve_manifest, ManifestStore

    store = ManifestStore(demo_store.root_dir.parent / "override-root")
    fast = make_manifest("micro", "fast-task", "override", family_params={"base_service_ms": 2.0})
    root = publish_release(store, "override", [fast])
    manifest = resolve_manifest("fast-task", root, store)
    record, events = execute_run(
        manifest, SCRIPTED, clean_setting(), seed=1, budget=4, planned_episodes=4
    )
    services = [
        event.payload["service_time_ms"] for event in events if event.kind == "env_step_end"
    ]
    assert statistics.fmean(services) < 5.0  # family default would be ~15 ms


def test_controller_driver_requires_hook_selection():
    with pytest.raises(RunnerError):
        DriverSpec(name="ctl", driver_type="controller")


def test_plan_driven_controller_run(demo_store):
    controller = DriverSpec(
        name="ctl-a", driver_type="controller", hooks_enabled="hook_a_only",
        backend_engine="vllm",
    )
    plan = RunPlan(
        entries=(PlanEntry("web-001", "ctl-a", "clean", seed=0, budget=5, episodes=4),),
        drivers={"ctl-a": controller},
        release_root="demo-root",
    )
    runset = run_plan(plan, demo_store)
    run = runset.runs[0]
    assert run.variant == "hook_a_only"
    assert run.backend == "vllm"
    assert run.trace_complete
    assert run.driver.driver_type == "controller"
    assert len(run.episode_summaries) == 4
