from __future__ import annotations

import dataclasses
import functools
import os
import signal
import sys
import time
from collections import Counter

import pytest

from gatebench import runner
from gatebench.drivers import DriverError, SyntheticLlmProfile
from gatebench.manifest import ManifestStore, TaskManifest, resolve_manifest
from gatebench.runner import (
    DriverSpec,
    PlanEntry,
    RunPlan,
    RunRecord,
    RunSet,
    RunnerError,
    emit_verifier_outcome,
    execute_run,
    load_runset,
    make_run_id,
    reduce_log,
    run_plan,
)
from gatebench.schema import (
    SCHEMA_VERSION,
    EventRecord,
    ProvenanceFields,
    RunValidator,
    SchemaError,
    TimingFields,
    Violation,
    canonical_hash,
    require_valid_log,
)
from gatebench.simenv import OperatingSetting, VerifierQueue, clean_setting, stressed_setting
from gatebench.study import StudyConfig, build_study_release, study_plan

ORACLE = DriverSpec(name="oracle", driver_type="calibration", mode="oracle",
                    evidence_status="diagnostic")
NOOP = DriverSpec(name="noop", driver_type="calibration", mode="noop",
                  evidence_status="diagnostic")
SCRIPTED = DriverSpec(name="scripted", driver_type="scripted")


def kinds(events: list[EventRecord]) -> list[str]:
    return [event.kind for event in events]


# ---------------------------------------------------------------------------
# EventBuilder
# ---------------------------------------------------------------------------

PROVENANCE = ProvenanceFields(
    manifest_hash=canonical_hash({"fixture": "manifest"}),
    driver_id="driver-1",
    schema_version=SCHEMA_VERSION,
    replay_class="R1",
    seed=7,
)
RUN_START = {"setting_label": "clean", "planned_episodes": 1}


def test_emit_without_timing_equals_emit_with_default_timing():
    builders = [runner.EventBuilder("run-1", PROVENANCE, run_seed=7) for _ in range(2)]
    for timing, builder in zip((None, TimingFields()), builders):
        builder.emit("run_start", 0.0, payload=RUN_START, timing=timing)
        builder.emit("run_end", 1.0, payload={"status": "success"}, timing=timing)
    assert builders[0].events == builders[1].events
    assert [event.to_doc() for event in builders[0].events] == [
        event.to_doc() for event in builders[1].events
    ]
    assert builders[0].events[0].timing == TimingFields()


def test_emit_copies_the_payload():
    builder = runner.EventBuilder("run-1", PROVENANCE, run_seed=7)
    payload = dict(RUN_START)
    event = builder.emit("run_start", 0.0, payload=payload)
    payload["planned_episodes"] = 2
    assert event.payload == RUN_START


def test_failed_event_clears_trace_complete():
    builder = runner.EventBuilder("run-1", PROVENANCE, run_seed=7)
    builder.emit("run_start", 0.0, payload=RUN_START)
    assert builder.trace_complete
    builder.emit("episode_start", 1.0, episode_id="ep-0", payload={})  # no episode_index
    assert not builder.trace_complete
    builder.emit("run_end", 2.0, payload={"status": "success"})
    assert builder.finalize() is False


def test_verifier_event_takes_its_time_and_timing_from_the_ticket():
    queue = VerifierQueue(servers=1)
    queue.submit(0.0, 10.0)
    ticket = queue.submit(4.0, 5.0)  # waits for the first until 10
    emitted = []
    emit_verifier_outcome(
        lambda *event: emitted.append(event), ticket, "ep-0", 3, "success", "verifier:web:1",
        detail="sample_attempt",
    )
    assert emitted == [(
        "verifier_outcome",
        15.0,
        "ep-0",
        3,
        TimingFields(queue_wait_ms=6.0, service_time_ms=5.0, verifier_latency_ms=11.0),
        {
            "status": "success",
            "queue_wait_ms": 6.0,
            "verifier_latency_ms": 11.0,
            "evaluator_id": "verifier:web:1",
            "ticket_id": 1,
            "detail": "sample_attempt",
        },
    )]


# ---------------------------------------------------------------------------
# Single-episode runs
# ---------------------------------------------------------------------------


def test_oracle_micro_episode_succeeds_in_exactly_three_steps(micro_manifest):
    record, events = execute_run(
        micro_manifest, ORACLE, clean_setting(), seed=1, budget=10, planned_episodes=1
    )
    (summary,) = record.episode_summaries
    assert summary.status == "success"
    assert summary.steps == 3
    assert kinds(events).count("env_step_start") == 3
    assert kinds(events).count("env_step_end") == 3


def test_noop_episode_fails_with_budget_step_pairs(micro_manifest):
    record, events = execute_run(
        micro_manifest, NOOP, clean_setting(), seed=1, budget=5, planned_episodes=1
    )
    (summary,) = record.episode_summaries
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
    require_valid_log(events, record.run_id)
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
    record, events = execute_run(
        code_manifest, ORACLE, clean_setting(), seed=4, budget=2, planned_episodes=1
    )
    (summary,) = record.episode_summaries
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


def test_validator_rejection_stops_the_plain_run_after_that_episode(web_manifest, monkeypatch):
    setting = OperatingSetting(label="medium_live_stressed", fault_injection_prob=0.3)
    spec = DriverSpec(name="s", driver_type="scripted", retry_budget=2)
    run = functools.partial(execute_run, web_manifest, spec, setting, seed=1, budget=10)
    first, _ = run(planned_episodes=1)  # episode 0 alone: the same stream, the same retries
    whole, _ = run(planned_episodes=3)
    assert 0 < first.retry_count < whole.retry_count
    validate = RunValidator.validate

    def flag_the_first_step_of_episode_0(self, event):
        found = validate(self, event)
        if event.kind == "env_step_end" and event.episode_id.endswith("-ep000"):
            found = [*found, Violation("forced", "kind", "flagged by the test")]
        return found

    monkeypatch.setattr(RunValidator, "validate", flag_the_first_step_of_episode_0)
    record, events = run(planned_episodes=3)
    episode_0 = runner.make_episode_id(record.run_id, 0)
    end = next(
        i for i, event in enumerate(events)
        if event.kind == "episode_end" and event.episode_id == episode_0
    )
    assert "verifier_outcome" in kinds(events[:end])
    error = events[end + 1]
    assert (error.kind, error.episode_id, error.wall_clock_ms) == ("error", "", events[end].wall_clock_ms)
    assert error.payload == {"message": "validator rejected emitted events", "scope": "run"}
    assert kinds(events[end + 2:]) == ["run_end"]
    assert {event.episode_id for event in events} == {"", episode_0}
    assert not record.trace_complete
    assert record.retry_count == first.retry_count
    assert [row.episode_id for row in record.episode_summaries] == [episode_0]


# ---------------------------------------------------------------------------
# The lane scheduler
# ---------------------------------------------------------------------------


class _ConstantRun(runner.LaneScheduler):
    """A minimal run kind: each body takes 100 ms, each verification 50 ms."""

    def __init__(self, episodes: int, lanes: int, servers: int, stagger_ms: float) -> None:
        self.events: list[tuple] = []
        super().__init__(lambda *event: self.events.append(event), episodes, lanes, servers,
                         stagger_ms)
        self.waits: dict[int, float] = {}
        self.lanes: dict[int, int] = {}

    def body(self, time_ms: float, episode_index: int) -> tuple[float, int]:
        return time_ms + 100.0, episode_index

    def demand(self, job: int) -> float:
        return 50.0

    def deliver(self, time_ms: float, lane: int, job: int, ticket) -> None:
        self.waits[job] = ticket.queue_wait_ms
        self.lanes[job] = lane
        self.emit("episode_end", time_ms, str(job), 0, None, {})
        self.lane_done(time_ms, lane)


def test_more_lanes_than_verifier_servers_wait_in_the_queue():
    # Bodies end at 100, 110 and 120 and queue for the one server, which serves
    # them at 100-150, 150-200 and 200-250. Lane 0 takes episode 3 at 150; its
    # body ends at 250, when the server has just come free.
    run = _ConstantRun(episodes=4, lanes=3, servers=1, stagger_ms=10.0)
    run.run()
    assert run.waits == {0: 0.0, 1: 40.0, 2: 80.0, 3: 0.0}
    assert run.lanes == {0: 0, 1: 1, 2: 2, 3: 0}
    assert [event[1] for event in run.events] == [150.0, 200.0, 250.0, 300.0]
    assert run.pending == [] and run.idle_lanes == set()


def test_one_lane_plays_its_episodes_one_after_another():
    run = _ConstantRun(episodes=4, lanes=1, servers=1, stagger_ms=10.0)
    run.run()
    assert run.waits == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert [event[1] for event in run.events] == [150.0, 300.0, 450.0, 600.0]


class _RaisingRun(_ConstantRun):
    """Raises the lane target to 3 at every delivery."""

    def deliver(self, time_ms: float, lane: int, job: int, ticket) -> None:
        self.set_target(time_ms, 3)
        super().deliver(time_ms, lane, job, ticket)


def test_a_lowered_target_idles_lanes_and_a_raised_one_restarts_them():
    run = _ConstantRun(episodes=4, lanes=3, servers=3, stagger_ms=10.0)
    run.set_target(0.0, 1)  # lanes 1 and 2 idle at their first assignment
    run.run()
    assert run.idle_lanes == {1, 2}
    assert run.lanes == {0: 0, 1: 0, 2: 0, 3: 0}
    assert run.events[-1][1] == 600.0
    run = _RaisingRun(episodes=4, lanes=3, servers=3, stagger_ms=10.0)
    run.set_target(0.0, 1)
    run.run()  # at 150, lanes 1 and 2 restart before lane 0 takes its next episode
    assert run.idle_lanes == set()
    assert run.lanes == {0: 0, 1: 1, 2: 2, 3: 0}


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
    _, trajectory = reduce_log(events).outcomes()
    assert [point.reward for point in trajectory] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [point.wall_clock_ms for point in trajectory] == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_episode_rows_are_the_episode_end_events_in_log_order(web_manifest):
    spec = DriverSpec(name="llm", driver_type="llm", model_family="sim", backend_engine="vllm")
    record, events = execute_run(
        web_manifest, spec, clean_setting(), seed=5, budget=6, planned_episodes=4
    )
    rows, trajectory = reduce_log(events).outcomes()
    ends = [event for event in events if event.kind == "episode_end"]
    assert [row.episode_id for row in rows] == [event.episode_id for event in ends]
    assert [(row.status, row.steps, row.wall_ms) for row in rows] == [
        (event.payload["status"], event.payload["steps"], event.payload["wall_ms"])
        for event in ends
    ]
    assert (tuple(rows), tuple(trajectory)) == (
        record.episode_summaries, record.reward_trajectory
    )


@pytest.mark.parametrize("planned", [0, 2.0, True, "4", None])
def test_trajectory_needs_a_positive_int_planned_episode_count(planned):
    from tests.test_schema import make_event

    start = make_event("run_start", 0, payload={"setting_label": "clean"})
    if planned is not None:
        start.payload["planned_episodes"] = planned
    with pytest.raises(RunnerError) as err:
        reduce_log([start]).outcomes()
    assert err.value.code == "invalid_trajectory"


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


@pytest.mark.parametrize("kind", ["plain", "controller"])
def test_plan_hashes_each_manifest_once_not_per_run(kind, demo_store, tmp_path, monkeypatch):
    # run_plan hands each task's verified hash to its runs, so a manifest is
    # hashed once, when resolve_manifest checks it against the release root.
    if kind == "plain":
        plan, store = _small_plan(), demo_store
    else:
        store = ManifestStore(tmp_path / "release")
        build_study_release(store)
        plan = study_plan(StudyConfig(backends=("vllm",), seeds=(0,), budgets=(7,)))
    real_hash = TaskManifest.manifest_hash
    hashed: Counter[str] = Counter()

    def counting_hash(manifest):
        hashed[manifest.task_id] += 1
        return real_hash(manifest)

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)  # every run in this process
    monkeypatch.setattr(TaskManifest, "manifest_hash", counting_hash)
    runset = run_plan(plan, store)
    monkeypatch.undo()
    assert len(runset.runs) == 4
    assert hashed and set(hashed.values()) == {1}
    for run in runset.runs:
        assert run.manifest_hash == store.load(run.task_id).manifest_hash()


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

    def no_fork():
        raise AssertionError("a width-1 plan must not fork a pool")

    monkeypatch.setattr(os, "fork", no_fork)
    runset = run_plan(_small_plan(concurrency=4), demo_store)
    assert [run.concurrency for run in runset.runs] == [4, 4, 4, 4]


def test_worker_error_keeps_type_and_code(demo_store, tmp_path, monkeypatch):
    parent = os.getpid()
    real_run = runner.execute_run

    def failing_run(*args, **kwargs):
        # Stride 0 runs in this process; stride 1 in the one forked child fails.
        if os.getpid() == parent:
            return real_run(*args, **kwargs)
        raise DriverError("driver_failure", f"raised in pid {os.getpid()}")

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "execute_run", failing_run)  # forked workers inherit it
    with pytest.raises(DriverError) as err:
        run_plan(_small_plan(concurrency=2), demo_store, out_dir=tmp_path / "rs")
    assert err.value.code == "driver_failure"
    assert str(err.value).startswith("driver_failure: raised in pid ")
    assert str(err.value) != f"driver_failure: raised in pid {parent}"
    assert not (tmp_path / "rs" / "runset.json").exists()


def _square_unless_listed(failing: tuple[int, ...], job: int) -> tuple[int, int]:
    if job in failing:
        raise RunnerError(f"failed_{job}", f"job {job}")
    return job * job, os.getpid()


def test_map_runs_keeps_job_order_across_workers(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    results = runner.map_runs(_square_unless_listed, (), list(range(40)), cap=8)
    assert [square for square, _ in results] == [job * job for job in range(40)]
    # Stride 0 runs in this process, stride 1 in one forked child.
    pids = [pid for _, pid in results]
    assert set(pids[0::2]) == {os.getpid()}
    assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]


def test_map_runs_reraises_first_error_in_job_order(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    with pytest.raises(RunnerError) as err:
        runner.map_runs(_square_unless_listed, (29, 7), list(range(40)), cap=2)
    assert err.value.code == "failed_7"


def test_map_runs_keeps_job_order_at_width_three(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 3)
    results = runner.map_runs(_square_unless_listed, (), list(range(41)), cap=3)
    assert [square for square, _ in results] == [job * job for job in range(41)]
    pids = [pid for _, pid in results]
    # Worker k runs jobs k, k + 3, ...: worker 0 is this process, workers 1
    # and 2 are two forked children, each on one stride.
    assert set(pids[0::3]) == {os.getpid()}
    assert len(set(pids)) == 3
    assert all(pids[job] == pids[job % 3] for job in range(41))


def _assert_no_child() -> None:
    # waitpid(-1) raises ChildProcessError when this process has no child at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kill_self_at(victims: tuple[int, ...], job: int) -> int:
    if job in victims:
        os.kill(os.getpid(), signal.SIGKILL)
    return job


def test_map_runs_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    _assert_no_child()
    assert runner.map_runs(_kill_self_at, (), list(range(6)), cap=2) == list(range(6))
    _assert_no_child()
    with pytest.raises(RunnerError):
        runner.map_runs(_square_unless_listed, (3,), list(range(6)), cap=2)
    _assert_no_child()


def test_killed_worker_is_worker_failed(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    with pytest.raises(RunnerError) as err:
        runner.map_runs(_kill_self_at, (3,), list(range(6)), cap=2)
    assert err.value.code == "worker_failed"
    assert "was killed by SIGKILL" in str(err.value)
    _assert_no_child()


def _kill_self_at_five_or_fail_at_four(_: object, job: int) -> int:
    if job == 4:
        raise RunnerError("failed_4", "job 4")
    return _kill_self_at((5,), job)


def test_killed_worker_counts_at_its_first_job(monkeypatch):
    # Worker 1 (jobs 1, 3, 5) dies at job 5 with no report, so job 1 is the
    # first job it leaves unaccounted: before worker 0's failure at job 4.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    with pytest.raises(RunnerError) as err:
        runner.map_runs(_kill_self_at_five_or_fail_at_four, None, list(range(6)), cap=2)
    assert err.value.code == "worker_failed"
    _assert_no_child()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _raise_unpicklable(at: int, job: int) -> int:
    if job == at:
        raise _Unpicklable(f"job {job}")
    return job


def test_unpicklable_job_error_is_worker_failed_with_its_repr(monkeypatch):
    # Job 3 is in stride 1, which runs in the forked child.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    with pytest.raises(RunnerError) as err:
        runner.map_runs(_raise_unpicklable, 3, list(range(5)), cap=2)
    assert err.value.code == "worker_failed"
    assert "_Unpicklable('job 3')" in str(err.value)
    _assert_no_child()


def test_unpicklable_job_error_in_the_parents_stride_is_raised_as_itself(monkeypatch):
    # Job 2 is in stride 0, which runs in this process: nothing is pickled.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    with pytest.raises(_Unpicklable, match="job 2"):
        runner.map_runs(_raise_unpicklable, 2, list(range(5)), cap=2)
    _assert_no_child()


def _interrupt_parent(delay: float, job: int) -> int:
    # Job 1 is in the first child's stride; a job in stride 0 would run in
    # this process and signal its parent instead.
    if job == 1:
        time.sleep(delay)
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)
    return job


def test_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    # Late enough that the parent has run its own stride and is reading pipes.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        runner.map_runs(_interrupt_parent, 0.5, list(range(4)), cap=2)
    assert time.monotonic() - started < 30
    _assert_no_child()


_pause_after_fork = False


def _pause_in_parent_after_fork() -> None:
    if _pause_after_fork:
        time.sleep(0.1)


os.register_at_fork(after_in_parent=_pause_in_parent_after_fork)


def test_interrupt_while_forking_is_raised_in_the_parent(monkeypatch):
    # At width 3 the parent forks twice, and child 1 signals it at once,
    # while the parent still runs the Python at-fork hook above. An exception
    # raised in such a hook is printed and dropped, so the interrupt must stay
    # blocked until the fork has returned, and then be raised in the parent.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys.modules[__name__], "_pause_after_fork", True)
    for _ in range(10):
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            runner.map_runs(_interrupt_parent, 0.0, list(range(6)), cap=3)
        assert time.monotonic() - started < 30
        _assert_no_child()


def test_map_runs_at_width_one_forks_nothing_and_raises_the_job_error_itself(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)

    def no_fork():
        raise AssertionError("width 1 must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    error = RunnerError("failed_1", "job 1")
    ran = []

    def fail_at_one(_: object, job: int) -> int:
        ran.append(job)
        if job == 1:
            raise error
        return job

    with pytest.raises(RunnerError) as err:
        runner.map_runs(fail_at_one, None, [0, 1, 2, 3], cap=4)
    assert err.value is error
    assert ran == [0, 1]


def test_map_runs_at_width_one_runs_in_process(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 8)
    results = runner.map_runs(_square_unless_listed, (), [3, 1, 2], cap=1)
    assert results == [(9, os.getpid()), (1, os.getpid()), (4, os.getpid())]
    assert runner.map_runs(_square_unless_listed, (), [], cap=4) == []


def test_runset_round_trip(demo_store, tmp_path):
    out = tmp_path / "rs"
    runset = run_plan(_small_plan(), demo_store, out_dir=out)
    loaded = load_runset(out)
    assert [run.to_doc() for run in loaded.runs] == [run.to_doc() for run in runset.runs]
    events = loaded.events_for(loaded.runs[0])
    assert events[0].kind == "run_start"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
def test_bool_fields_decode_only_from_json_booleans(demo_runset, value):
    doc = demo_runset[0].runs[0].to_doc()
    for flag in (True, False):
        assert RunRecord.from_doc({**doc, "trace_complete": flag}).trace_complete is flag
    with pytest.raises(SchemaError) as err:
        RunRecord.from_doc({**doc, "trace_complete": value})
    message = f"RunRecord.trace_complete: TypeError: expected true or false, got {value!r}"
    assert (err.value.code, err.value.message) == ("invalid_document", message)


def test_event_log_files_validate(demo_store, tmp_path):
    out = tmp_path / "rs"
    runset = run_plan(_small_plan(), demo_store, out_dir=out)
    written = RunSet(runs=runset.runs, base_dir=out)
    for run in runset.runs:
        if not run.event_log_ref:
            continue
        assert written.events_for(run)


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
