"""Pins for the one episode kernel that plain runs and controller runs share.

Two kinds of pin:

* The two retry rules. A plain run caps step retries at the driver's
  ``retry_budget`` and writes a ``retry`` even when no step remains; a
  controller lane has no cap and writes no ``retry`` once its budget is spent.
  A code-family episode is one patch step and never retries. Every step of an
  always-faulting setting lands a fault, so each rule shows on the last
  budget step, which neither the demo plan nor the study grid reaches.
* Byte pins of the paths no golden digest reaches: code tasks under a
  synthetic-LLM driver (the ``generated`` verifier verdict) and controller
  runs driven from a run plan, both hooks, in the stressed setting.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest

from gatebench import study

from gatebench.demo import DEMO_ROOT_ID, demo_drivers
from gatebench.manifest import ManifestStore, resolve_manifest
from gatebench.runner import DriverSpec, PlanEntry, RunPlan, execute_run, run_plan
from gatebench.simenv import OperatingSetting
from gatebench.study import STUDY_TASK_ID, build_study_release, simulate_controller_run

ALWAYS_FAULT = OperatingSetting(label="medium_live_stressed", fault_injection_prob=1.0)
LLM = demo_drivers()["synthetic-llm"]


def _steps(events, kind: str) -> list[int]:
    return [event.step_index for event in events if event.kind == kind]


def _episode_tail(events) -> list[str]:
    """Kinds of the events after the last step, up to the episode's end."""

    last_step = max(i for i, event in enumerate(events) if event.kind == "env_step_end")
    end = next(i for i, event in enumerate(events) if event.kind == "episode_end")
    return [event.kind for event in events[last_step + 1:end]]


def test_plain_run_writes_a_retry_on_the_last_budget_step(web_manifest):
    record, events = execute_run(
        web_manifest, LLM, ALWAYS_FAULT, seed=1, budget=2, planned_episodes=1
    )
    assert _steps(events, "env_step_end") == [0, 1]
    assert _steps(events, "retry") == [0, 1]
    assert _episode_tail(events) == ["retry", "error"]
    assert record.retry_count == 2
    assert record.episode_summaries[0].status == "missing_terminal"


def test_plain_run_stops_at_the_driver_retry_budget(web_manifest):
    assert LLM.retry_budget == 2
    record, events = execute_run(
        web_manifest, LLM, ALWAYS_FAULT, seed=1, budget=5, planned_episodes=1
    )
    assert _steps(events, "env_step_end") == [0, 1, 2]
    assert _steps(events, "retry") == [0, 1]
    assert _episode_tail(events) == ["error"]
    assert record.retry_count == 3  # the fault over the cap still counts


def test_code_episode_is_one_patch_step_without_retry(code_manifest):
    record, events = execute_run(
        code_manifest, LLM, ALWAYS_FAULT, seed=1, budget=3, planned_episodes=2
    )
    assert _steps(events, "env_step_end") == [0, 0]
    assert _steps(events, "retry") == []
    assert _steps(events, "verifier_outcome") == [0, 0]
    assert record.retry_count == 0


@pytest.fixture(scope="module")
def study_manifest(tmp_path_factory):
    store = ManifestStore(tmp_path_factory.mktemp("study-release"))
    return resolve_manifest(STUDY_TASK_ID, build_study_release(store), store)


def test_controller_lane_writes_no_retry_once_its_budget_is_spent(study_manifest):
    spec = DriverSpec(
        name="hook-a", driver_type="controller", hooks_enabled="hook_a_only",
        backend_engine="vllm",
    )
    record, events = simulate_controller_run(
        study_manifest, ALWAYS_FAULT, spec, seed=0, budget=2, episodes=1
    )
    assert _steps(events, "env_step_end") == [0, 1]
    assert _steps(events, "retry") == [0]
    assert record.retry_count == 2  # both faults count, one retry is written
    assert record.episode_summaries[0].status == "failure"


def test_controller_run_is_freed_without_the_cycle_collector(study_manifest, monkeypatch):
    runs = []
    run = study._ControllerRun.run

    def run_and_keep_a_weakref(sim):
        runs.append(weakref.ref(sim))
        run(sim)

    monkeypatch.setattr(study._ControllerRun, "run", run_and_keep_a_weakref)
    spec = DriverSpec(
        name="hook-b", driver_type="controller", hooks_enabled="hook_b_only",
        backend_engine="vllm",
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        simulate_controller_run(study_manifest, ALWAYS_FAULT, spec, seed=0, budget=2, episodes=3)
        assert len(runs) == 1 and runs[0]() is None
    finally:
        if enabled:
            gc.enable()


# sha256 of every file ``run_plan`` writes for ``_pinned_plan``, recorded
# before the two step loops became one kernel.
PINNED_PLAN_DIGESTS = {
    "logs/79e10db2bc9f1e95.log": "943bbcb4a81362a7575584b09b44cab5a42b08087404852d75e1df43d844cac7",
    "logs/9ccf00c2f7a7982f.log": "9ec99080b4a7b12d55f9d40045295c07dae395df4badf8a42910f274a6b71efb",
    "logs/ce1b4bb79a149f7c.log": "838024e004c25126b7e52571f1b9f7e2d3324c38c0d709b2701c16b149e303a0",
    "logs/ce53d392a03a9ac9.log": "1e219aaae10eefb4a75d696239efe0f0379c9a86e9d14539fc35057aeef512fd",
    "logs/eb6a626d5c68ff15.log": "c0948ca05bcdf81022602c410621d0963a0989e3e8b92b019422a812e2c48da6",
    "runset.json": "22204d95adeb844bce132493e7f0a29a5d168975758ca7840328dc545c52321a",
}


def _pinned_plan() -> RunPlan:
    drivers = {
        "synthetic-llm": LLM,
        "hook-a": DriverSpec(
            name="hook-a", driver_type="controller", hooks_enabled="hook_a_only",
            backend_engine="sglang",
        ),
        "hook-b": DriverSpec(name="hook-b", driver_type="controller", hooks_enabled="hook_b_only"),
    }
    entries = (
        PlanEntry("code-001", "synthetic-llm", "clean", seed=81, budget=2, episodes=4),
        PlanEntry("code-002", "synthetic-llm", "medium_live_stressed", seed=82, budget=2,
                  episodes=4, repetitions=2),
        PlanEntry("web-001", "hook-a", "medium_live_stressed", seed=91, budget=7, episodes=6),
        PlanEntry("web-001", "hook-b", "medium_live_stressed", seed=91, budget=7, episodes=6),
    )
    return RunPlan(entries=entries, drivers=drivers, release_root=DEMO_ROOT_ID, concurrency=1)


def test_llm_code_runs_and_plan_controller_runs_match_pinned_bytes(demo_store, tmp_path):
    out = tmp_path / "runs"
    runset = run_plan(_pinned_plan(), demo_store, out_dir=out)
    quality = {
        event.payload.get("patch_quality")
        for run in runset.runs if run.family == "code"
        for event in runset.events_for(run) if event.kind == "verifier_outcome"
    }
    assert quality == {"generated"}
    actual = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert actual == PINNED_PLAN_DIGESTS
