"""Replay classes and replay-vs-live comparison.

Each replay class has its own reproducibility boundary. A run's class is the
one its verified log's provenance records, not its ``runset.json`` label, and
``REPLAYERS`` maps it to its bundle builder and its replayer:

* R0 (micro): summary replay — take the per-episode rows from the verified
  log's ``episode_end`` events, check them against the run's episode
  summaries in ``runset.json``, and recompute the frozen rollup from them.
* R1 (web): event-trace replay with evaluator freeze — re-drive the recorded
  action/transition sequence with a fixed per-step replay cost and re-run the
  frozen evaluator over the final state. The bundle's ``material.events`` is
  the log's event lines as ``schema.read_event_log`` read them, joined by
  commas and spliced between a fixed prefix and suffix; no event is turned
  back into a document or rendered again. The replay reads ``EventRecord``s:
  a runset replay and ``report`` run it on the events they hold
  (:func:`replay_r1`), and a bundle's events are decoded by
  ``EventRecord.from_doc``.
* R2 (code): snapshot/manifest replay — recompute each verifier decision with
  the run's verdict rule, ``simenv.verifier_outcome`` of the recorded patch
  quality, seeded from the frozen (snapshot digest, seed, episode) triple, and
  compare verdicts. The log's validator has already bound each R2 episode's
  terminal status to its recorded verdict.

Replays are pure computations: replaying the same bundle twice yields
identical results.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Final, Mapping, Sequence

from .manifest import FAMILIES, REPLAY_HARNESS_VERSION, FreezeRecord
from .records import record
from .runner import RunRecord, RunSet, map_runs, parse_episode_index, reduce_episodes, verdict_rng
from .schema import (
    EventRecord,
    GatebenchError,
    Record,
    SchemaError,
    doc_field,
    float_sum,
    read_json,
    render_record,
    write_json,
)
from .simenv import EnvError, verifier_outcome

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


Log = Sequence[EventRecord]  # a run's verified event log


def log_replay_class(run: RunRecord, events: Log) -> str:
    """The replay class ``run``'s verified log records; a ``family`` label in
    ``runset.json`` whose class is another is ``family_mismatch``."""

    replay_class = events[0].provenance.replay_class
    family = FAMILIES.get(run.family)
    if family is None or family.replay_class != replay_class:
        says = f"runset.json says family {run.family}, its log records replay class {replay_class}"
        raise ReplayError("family_mismatch", f"run {run.run_id}: {says}")
    return replay_class


def _r0_material(run: RunRecord, freeze: FreezeRecord, events: Log) -> dict[str, Any]:
    logged, _ = reduce_episodes(events)
    if list(map(render_record, logged)) != list(map(render_record, run.episode_summaries)):
        message = f"run {run.run_id}: runset.json's episode summaries are not its log's"
        raise ReplayError("summary_mismatch", message)
    rows = [row.to_doc() for row in logged]
    return {
        "run_id": run.run_id,
        "episode_rows": rows,
        "rollup": _episode_rollup(rows),
        "collector": "summary-stats",
    }


def _evaluator_freeze(run: RunRecord, freeze: FreezeRecord) -> dict[str, Any]:
    return {"verifier_id": f"verifier:{run.family}", "verifier_version": freeze.verifier_version}


def _r1_material(run: RunRecord, freeze: FreezeRecord, events: Log) -> dict[str, Any]:
    return {
        "run_id": run.run_id,
        "events": [event.to_doc() for event in events],
        "evaluator_freeze": _evaluator_freeze(run, freeze),
        "session_config": "default-session",
    }


def _r2_material(run: RunRecord, freeze: FreezeRecord, events: Log) -> dict[str, Any]:
    # The validator requires both verdict inputs on every R2 verifier_outcome.
    decisions = [
        {"episode_id": event.episode_id, "patch_quality": event.payload["patch_quality"],
         "pass_prob": float(event.payload["pass_prob"]), "status": event.payload["status"]}
        for event in events if event.kind == "verifier_outcome"
    ]
    return {
        "run_id": run.run_id,
        "manifest_hash": run.manifest_hash.to_doc(),
        "snapshot_digest": freeze.snapshot_digest.to_doc(),
        "verifier_freeze": _evaluator_freeze(run, freeze),
        "seed": run.seed,
        "decisions": decisions,
    }


def build_bundle(run: RunRecord, events: Log) -> ReplayBundle:
    """Extract the frozen replay material for a run, per its log's replay class.

    ``events`` is the run's verified event log, and its class is
    :func:`log_replay_class`. R0's episode rows are
    :func:`runner.reduce_episodes` of it, one per ``episode_end``, checked
    against the ``episode_summaries`` of ``runset.json`` by value and type:
    a difference is ``summary_mismatch``, naming the run.
    """

    if run.freeze is None:
        raise ReplayError("missing_replay_freeze", f"run {run.run_id} has no freeze record")
    replay_class = log_replay_class(run, events)
    material, _ = REPLAYERS[replay_class]
    return ReplayBundle(replay_class=replay_class, material=material(run, run.freeze, events))


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


def _r1_result(events: Log) -> ReplayResult:
    """R1 replay of a run's events: each episode's recorded final state
    through the frozen evaluator, and a fixed cost per recorded step."""

    episodes: dict[str, dict[str, Any]] = {}
    live_step_ms: list[float] = []
    pending_model_ms: dict[str, float] = {}
    for event in events:
        kind = event.kind
        episode_id = event.episode_id
        if kind == "episode_start":
            episodes[episode_id] = {
                "goal": int(event.payload.get("goal", 0)),
                "progress": 0,
                "steps": 0,
                "recorded": None,
            }
        elif kind == "model_request_end":
            pending_model_ms[episode_id] = float(event.payload["model_latency_ms"])
        elif kind == "env_step_end":
            state = episodes[episode_id]
            state["steps"] += 1
            state["progress"] = int(event.payload["progress"])
            live_step_ms.append(
                float(event.payload["service_time_ms"]) + pending_model_ms.pop(episode_id, 0.0)
            )
        elif kind == "terminal_result":
            episodes[episode_id]["recorded"] = event.payload["status"]

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


def _require_evaluator_version(verifier_version: Any) -> None:
    if not verifier_version:
        raise ReplayError("replay_version_mismatch", "evaluator freeze lacks verifier_version")


def _material_events(docs: Any) -> list[EventRecord]:
    """R1 material's events, each by ``EventRecord.from_doc``. A document that
    does not decode raises the lookup or type error behind the decoder's
    (``KeyError: 'episode_id'`` for a missing key), as other material reads."""

    events = []
    for doc in docs:
        try:
            events.append(EventRecord.from_doc(doc))
        except SchemaError as exc:
            raise exc.__cause__ or exc from None
    return events


def _replay_r1(material: Mapping[str, Any]) -> ReplayResult:
    _require_evaluator_version(material["evaluator_freeze"].get("verifier_version"))
    return _r1_result(_material_events(material["events"]))


def replay_r1(run: RunRecord, events: Log) -> ReplayResult:
    """``replay_run(build_bundle(run, events))`` of a run whose log's class is
    R1, replayed on its events without building the bundle."""

    if run.freeze is None:
        raise ReplayError("missing_replay_freeze", f"run {run.run_id} has no freeze record")
    _require_evaluator_version(run.freeze.verifier_version)
    return _r1_result(events)


def _replay_r2(material: Mapping[str, Any]) -> ReplayResult:
    freeze = material["verifier_freeze"]
    if not freeze.get("verifier_version"):
        raise ReplayError("replay_version_mismatch", "verifier freeze lacks verifier_version")
    snapshot_hex = material["snapshot_digest"]["hex"]
    seed = int(material["seed"])
    matched = bool(material["decisions"])
    for decision in material["decisions"]:
        # Seeded as the runner seeds the episode's verifier decision.
        rng = verdict_rng(snapshot_hex, seed, parse_episode_index(str(decision["episode_id"])))
        replayed = verifier_outcome(
            decision["patch_quality"], rng, generated_pass_prob=float(decision["pass_prob"])
        ).status
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


# Each class's bundle material, from a run and its verified log, and its replay.
REPLAYERS: Final[dict[str, tuple[Callable[..., dict[str, Any]], Callable[..., ReplayResult]]]] = {
    "R0": (_r0_material, _replay_r0),
    "R1": (_r1_material, _replay_r1),
    "R2": (_r2_material, _replay_r2),
}


def replay_run(bundle: ReplayBundle) -> ReplayResult:
    """Replay one bundle under its class contract; material it cannot read is
    ``invalid_bundle`` (a missing key, a value of the wrong type or form, an R1
    event that ``EventRecord.from_doc`` does not decode, or an R2 patch quality
    the verifier does not know)."""

    if bundle.harness_version != REPLAY_HARNESS_VERSION:
        raise ReplayError(
            "replay_version_mismatch",
            f"bundle harness {bundle.harness_version} != {REPLAY_HARNESS_VERSION}",
        )
    if bundle.replay_class not in REPLAYERS:
        raise ReplayError("replay_version_mismatch", f"unknown class {bundle.replay_class!r}")
    _, replay = REPLAYERS[bundle.replay_class]
    try:
        return replay(bundle.material)
    except (KeyError, TypeError, ValueError, AttributeError, EnvError, SchemaError) as exc:
        message = f"{bundle.replay_class} material: {type(exc).__name__}: {exc}"
        raise ReplayError("invalid_bundle", message) from exc


def save_bundle(bundle: ReplayBundle, path: Path | str) -> None:
    write_json(path, bundle)


def _save_r1_bundle(run: RunRecord, lines: Sequence[str], path: Path | str) -> None:
    """Write the R1 bundle of ``run``, whose log's event lines are ``lines``,
    without building it: the text of ``save_bundle`` of its bundle with no
    events, with the lines joined by commas spliced into ``material.events``.

    A line gatebench writes is its event's canonical text, so the file is
    that of ``save_bundle(build_bundle(run, events), path)``. A line written
    another way (a space after a colon, say) is copied as written.
    """

    if run.freeze is None:
        raise ReplayError("missing_replay_freeze", f"run {run.run_id} has no freeze record")
    shell = render_record(ReplayBundle("R1", _r1_material(run, run.freeze, ())))
    # The first match is the key: a '"' inside a string value is escaped.
    head, tail = shell.split('"events":[]', 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{head}"events":[')
        handle.write(",".join(lines))
        handle.write(f"]{tail}\n")


def load_bundle(path: Path | str) -> ReplayBundle:
    return ReplayBundle.from_doc(
        read_json(path, ReplayError, "missing_bundle", "invalid_bundle")
    )


def _replay_job(context: tuple[RunSet, Path, str | None], index: int) -> ReplayResult | None:
    """Bundle, save and replay run ``index`` of the runset; ``None`` for a run
    of a class other than the one selected. An R1 run's bundle splices its
    log's lines and its replay reads its events (:func:`replay_r1`)."""

    runset, out, selected = context
    run = runset.runs[index]
    events = runset.events_for(run)
    replay_class = log_replay_class(run, events)
    if selected is not None and replay_class != selected:
        return None
    path = out / f"bundle_{run.run_id}.json"
    if replay_class == "R1":  # the reader keeps an R1 log's lines
        _save_r1_bundle(run, events.lines, path)
        return replay_r1(run, events)
    bundle = build_bundle(run, events)
    save_bundle(bundle, path)
    return replay_run(bundle)


def replay_runset(
    runset: RunSet, out_dir: Path | str, replay_class: str | None = None
) -> list[ReplayResult]:
    """Replay every executed run with a freeze record, optionally of one class.

    A run's class is :func:`log_replay_class`. Each run's bundle is written to
    ``out_dir/bundle_<run_id>.json``; the directory must exist. The runs are
    independent, so they spread over ``min(runs, usable CPUs)`` worker
    processes; results come back in runset order. When a run fails, the first
    failure in runset order is raised and the bundles already written remain.
    """

    jobs = [i for i, run in enumerate(runset.runs) if run.freeze is not None and run.manifest_resolved]
    results = map_runs(_replay_job, (runset, Path(out_dir), replay_class), jobs, cap=len(jobs))
    return [result for result in results if result is not None]


__all__ = [
    "R1_REPLAY_STEP_COST_MS",
    "REPLAYERS",
    "ReplayBundle",
    "ReplayError",
    "ReplayResult",
    "build_bundle",
    "load_bundle",
    "log_replay_class",
    "replay_r1",
    "replay_run",
    "replay_runset",
    "save_bundle",
]
