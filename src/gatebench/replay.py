"""Replay classes and replay-vs-live comparison.

Each workload family has its own reproducibility boundary:

* R0 (micro): summary replay — recompute rollup statistics from stored
  per-episode rows and check equality with the frozen rollup.
* R1 (web): event-trace replay with evaluator freeze — re-drive the recorded
  action/transition sequence with a fixed per-step replay cost and re-run the
  frozen evaluator over the final state.
* R2 (code): snapshot/manifest replay — recompute each verifier decision from
  the frozen (snapshot digest, seed, episode) triple and compare verdicts.

Replays are pure computations: replaying the same bundle twice yields
identical results.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Final, Mapping, Sequence

from .manifest import FAMILY_REPLAY_CLASS, REPLAY_HARNESS_VERSION
from .records import record
from .runner import RunRecord, RunSet, map_runs
from .schema import (
    EventRecord,
    GatebenchError,
    Record,
    doc_field,
    float_sum,
    read_json,
    write_json,
)

# Fixed per-step cost of re-driving a recorded trace; the replay path performs
# no model calls and no environment waits.
R1_REPLAY_STEP_COST_MS: Final = 1.0


class ReplayError(GatebenchError):
    """Raised for bundles without a replay freeze or with another version."""


@record
class ReplayBundle(Record):
    """The material one replay class needs to replay a run without its driver."""

    replay_class: str
    material: dict[str, Any]
    harness_version: str = doc_field(default=REPLAY_HARNESS_VERSION, required=True)


@record
class ReplayResult(Record):
    """A replay's terminal match and its latency against the live run."""

    replay_class: str
    terminal_match: bool
    per_step_latency_ms: tuple[float, ...]
    live_mean_ms: float
    replay_mean_ms: float
    reduction: float


def _episode_rollup(rows: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    episodes = len(rows)
    successes = sum(1 for row in rows if row["status"] == "success")
    total_steps = sum(int(row["steps"]) for row in rows)
    total_wall = float_sum(float(row["wall_ms"]) for row in rows)
    return {
        "episodes": episodes,
        "successes": successes,
        "total_steps": total_steps,
        "mean_wall_ms": total_wall / episodes if episodes else 0.0,
    }


def build_bundle(run: RunRecord, events: Sequence[EventRecord] | None = None) -> ReplayBundle:
    """Extract the frozen replay material for a run, per its family's class.

    R1 and R2 need the run's event trace; R0 works from episode summaries.
    """

    if run.freeze is None:
        raise ReplayError("missing_replay_freeze", f"run {run.run_id} has no freeze record")
    evaluator_freeze = {
        "verifier_id": f"verifier:{run.family}",
        "verifier_version": run.freeze.verifier_version,
    }

    if run.family == "micro":
        rows = [summary.to_doc() for summary in run.episode_summaries]
        material = {
            "run_id": run.run_id,
            "episode_rows": rows,
            "rollup": _episode_rollup(rows),
            "collector": "summary-stats",
        }
        return ReplayBundle(replay_class="R0", material=material)

    if events is None:
        raise ReplayError("missing_replay_freeze", "event trace required for R1/R2 bundles")

    if run.family == "web":
        material = {
            "run_id": run.run_id,
            "events": [event.to_doc() for event in events],
            "evaluator_freeze": evaluator_freeze,
            "session_config": "default-session",
        }
        return ReplayBundle(replay_class="R1", material=material)

    if run.family == "code":
        decisions = []
        for event in events:
            if event.kind != "verifier_outcome":
                continue
            decisions.append(
                {
                    "episode_id": event.episode_id,
                    "patch_quality": event.payload.get("patch_quality", "generated"),
                    "pass_prob": float(event.payload.get("pass_prob", 0.5)),
                    "status": event.payload["status"],
                }
            )
        snapshot = run.freeze.snapshot_digest
        material = {
            "run_id": run.run_id,
            "manifest_hash": run.manifest_hash.to_doc(),
            "snapshot_digest": snapshot.to_doc(),
            "verifier_freeze": evaluator_freeze,
            "seed": run.seed,
            "decisions": decisions,
        }
        return ReplayBundle(replay_class="R2", material=material)

    raise ReplayError("missing_replay_freeze", f"no replay class for family {run.family!r}")


# ---------------------------------------------------------------------------
# Replay execution
# ---------------------------------------------------------------------------


def _replay_r0(material: Mapping[str, Any]) -> ReplayResult:
    rows = material["episode_rows"]
    stored = material["rollup"]
    recomputed = _episode_rollup(rows)
    if recomputed != stored:
        raise ReplayError(
            "summary_mismatch",
            f"stored rollup {stored} does not match recomputed {recomputed}",
        )
    live_mean = float(stored["mean_wall_ms"])
    return ReplayResult(
        replay_class="R0",
        terminal_match=True,
        per_step_latency_ms=(),
        live_mean_ms=live_mean,
        replay_mean_ms=0.0,
        reduction=1.0 if live_mean > 0 else 0.0,
    )


def _replay_r1(material: Mapping[str, Any]) -> ReplayResult:
    freeze = material["evaluator_freeze"]
    if not freeze.get("verifier_version"):
        raise ReplayError("replay_version_mismatch", "evaluator freeze lacks verifier_version")

    events = material["events"]
    episodes: dict[str, dict[str, Any]] = {}
    live_step_ms: list[float] = []
    pending_model_ms: dict[str, float] = {}
    for doc in events:
        kind = doc["kind"]
        episode_id = doc["episode_id"]
        if kind == "episode_start":
            episodes[episode_id] = {
                "goal": int(doc["payload"].get("goal", 0)),
                "progress": 0,
                "steps": 0,
                "recorded": None,
            }
        elif kind == "model_request_end":
            pending_model_ms[episode_id] = float(doc["payload"]["model_latency_ms"])
        elif kind == "env_step_end":
            state = episodes[episode_id]
            state["steps"] += 1
            state["progress"] = int(doc["payload"]["progress"])
            live_step_ms.append(
                float(doc["payload"]["service_time_ms"]) + pending_model_ms.pop(episode_id, 0.0)
            )
        elif kind == "terminal_result":
            episodes[episode_id]["recorded"] = doc["payload"]["status"]

    total_steps = sum(state["steps"] for state in episodes.values())
    matched = bool(episodes)
    for state in episodes.values():
        if state["recorded"] is None:
            matched = False
            continue
        # Frozen evaluator: final-state check against the recorded goal.
        replayed = "success" if state["goal"] and state["progress"] >= state["goal"] else "failure"
        if replayed != state["recorded"]:
            matched = False

    per_step = tuple(R1_REPLAY_STEP_COST_MS for _ in range(total_steps))
    live_mean = float_sum(live_step_ms) / len(live_step_ms) if live_step_ms else 0.0
    replay_mean = R1_REPLAY_STEP_COST_MS if total_steps else 0.0
    reduction = 1.0 - (replay_mean / live_mean) if live_mean > 0 else 0.0
    return ReplayResult(
        replay_class="R1",
        terminal_match=matched,
        per_step_latency_ms=per_step,
        live_mean_ms=live_mean,
        replay_mean_ms=replay_mean,
        reduction=reduction,
    )


def _episode_index(episode_id: str) -> int:
    """The episode index in a runner episode id, ``<run_id>-ep<index>``."""

    _, sep, digits = episode_id.rpartition("-ep")
    if not sep or not (digits.isascii() and digits.isdigit()):
        raise ReplayError("invalid_bundle", f"episode id {episode_id!r} has no episode index")
    return int(digits)


def _replay_r2(material: Mapping[str, Any]) -> ReplayResult:
    freeze = material["verifier_freeze"]
    if not freeze.get("verifier_version"):
        raise ReplayError("replay_version_mismatch", "verifier freeze lacks verifier_version")
    snapshot_hex = material["snapshot_digest"]["hex"]
    seed = int(material["seed"])
    matched = bool(material["decisions"])
    for decision in material["decisions"]:
        quality = decision["patch_quality"]
        if quality == "gold":
            replayed = "success"
        elif quality == "noop":
            replayed = "failure"
        else:
            # Seeded as the runner seeds the episode's verifier decision.
            index = _episode_index(str(decision["episode_id"]))
            rng = random.Random(f"verify:{snapshot_hex}:{seed}:{index}")
            replayed = "success" if rng.random() < float(decision["pass_prob"]) else "failure"
        if replayed != decision["status"]:
            matched = False
    return ReplayResult(
        replay_class="R2",
        terminal_match=matched,
        per_step_latency_ms=(),
        live_mean_ms=0.0,
        replay_mean_ms=0.0,
        reduction=0.0,
    )


def replay_run(bundle: ReplayBundle) -> ReplayResult:
    """Replay one bundle under its class contract."""

    if bundle.harness_version != REPLAY_HARNESS_VERSION:
        raise ReplayError(
            "replay_version_mismatch",
            f"bundle harness {bundle.harness_version} != {REPLAY_HARNESS_VERSION}",
        )
    if bundle.replay_class == "R0":
        return _replay_r0(bundle.material)
    if bundle.replay_class == "R1":
        return _replay_r1(bundle.material)
    if bundle.replay_class == "R2":
        return _replay_r2(bundle.material)
    raise ReplayError("replay_version_mismatch", f"unknown class {bundle.replay_class!r}")


def save_bundle(bundle: ReplayBundle, path: Path | str) -> None:
    write_json(path, bundle)


def load_bundle(path: Path | str) -> ReplayBundle:
    return ReplayBundle.from_doc(
        read_json(path, ReplayError, "missing_bundle", "invalid_bundle")
    )


def _replay_job(context: tuple[RunSet, Path], index: int) -> ReplayResult:
    """Bundle, save and replay run ``index`` of the runset."""

    runset, out = context
    run = runset.runs[index]
    events = runset.events_for(run) if run.event_log_ref else None
    bundle = build_bundle(run, events)
    save_bundle(bundle, out / f"bundle_{run.run_id}.json")
    return replay_run(bundle)


def replay_runset(
    runset: RunSet, out_dir: Path | str, replay_class: str | None = None
) -> list[ReplayResult]:
    """Replay every executed run with a freeze record, optionally of one class.

    Each run's bundle is written to ``out_dir/bundle_<run_id>.json``; the
    directory must exist. The runs are independent, so they spread over
    ``min(runs, usable CPUs)`` worker processes; results come back in runset
    order. When a run fails, the first failure in runset order is raised and
    the bundles already written remain.
    """

    jobs = [
        index
        for index, run in enumerate(runset.runs)
        if run.freeze is not None
        and run.manifest_resolved
        and (replay_class is None or FAMILY_REPLAY_CLASS[run.family] == replay_class)
    ]
    return map_runs(_replay_job, (runset, Path(out_dir)), jobs, cap=len(jobs))


__all__ = [
    "R1_REPLAY_STEP_COST_MS",
    "ReplayBundle",
    "ReplayError",
    "ReplayResult",
    "build_bundle",
    "load_bundle",
    "replay_run",
    "replay_runset",
    "save_bundle",
]
