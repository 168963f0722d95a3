"""``runner.reduce_log``, the one pass over a run's events, against the three
loops it replaced: the runner's episode reducer, the report's per-run summary
and the R1 replay. The loops are kept below as they stood, as the reference.

Every demo and study log is compared, and so are Hypothesis edits of them
that still pass ``require_valid_log``. Last come the malformed inputs on
which the reducer's readers and the old loops part, each named."""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any

import pytest
from hypothesis import given, reject, settings, strategies as st

from gatebench.records import record
from gatebench.replay import (
    R1_REPLAY_STEP_COST_MS,
    ReplayBundle,
    ReplayError,
    ReplayResult,
    build_bundle,
    log_replay_class,
    replay_r1,
    replay_run,
)
from gatebench.report import ReportError, RunSummary, summarize_run
from gatebench.runner import EpisodeSummary, RewardPoint, RunnerError, reduce_log
from gatebench.schema import SchemaError, float_sum, require_valid_log
from gatebench.study import StudyConfig, run_study

# ---------------------------------------------------------------------------
# The three loops as they stood before the reducer, kept as the reference.
# ---------------------------------------------------------------------------


def _reference_reduce_episodes(events):
    rows = []
    planned: Any = None
    successes = 0
    counts = [(0.0, 0)]
    for event in events:
        kind, payload = event.kind, event.payload
        if kind == "terminal_result":
            successes += payload.get("status") == "success"
            if event.wall_clock_ms == counts[-1][0]:
                counts.pop()
            counts.append((event.wall_clock_ms, successes))
        elif kind == "episode_end":
            steps, wall_ms = payload["steps"], payload.get("wall_ms")
            rows.append(EpisodeSummary(event.episode_id, payload["status"], steps, wall_ms))
        elif kind == "run_start" and planned is None:
            planned = payload.get("planned_episodes")
    if type(planned) is not int or planned <= 0:
        raise RunnerError("invalid_trajectory", "run_start with planned_episodes required")
    return rows, [RewardPoint(clock, count / planned) for clock, count in counts]


def _reference_r1_result(events):
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


def _reference_replay_r1(run, events):
    if run.freeze is None:
        raise ReplayError("missing_replay_freeze", f"run {run.run_id} has no freeze record")
    if not run.freeze.verifier_version:
        raise ReplayError("replay_version_mismatch", "evaluator freeze lacks verifier_version")
    return _reference_r1_result(events)


@record
class _ReferenceSummary:
    service_times_ms: list[float]
    queue_waits_ms: list[float]
    episodes: int
    wall_span_ms: float
    counts_by_status: dict[str, int]
    invalid_actions: int
    episode_statuses: Counter[str]
    patch_quality: str | None = None
    r1: tuple[float, bool] | None = None


def _reference_summarize_run(events, run=None):
    steps: list[float] = []
    waits: list[float] = []
    counts: dict[str, int] = {}
    ends: Counter[str] = Counter()
    episodes = invalid = 0
    span = 0.0
    quality = None
    for event in events:
        kind = event.kind
        if kind == "env_step_end":
            steps.append(float(event.payload["service_time_ms"]))
        elif kind == "verifier_outcome":
            waits.append(float(event.payload["queue_wait_ms"]))
            quality = event.payload.get("patch_quality")
        elif kind == "terminal_result":
            episodes += 1
        elif kind == "action_parsed":
            status = str(event.payload["parse_status"])
            counts[status] = counts.get(status, 0) + 1
            if bool(event.payload["invalid_action"]):
                invalid += 1
        elif kind == "episode_end":
            status = event.payload["status"]
            if type(status) is not str:
                raise ReportError(
                    "invalid_log",
                    f"run {event.run_id}: event {event.sequence}: episode_end status "
                    f"{status!r} is not a string",
                )
            ends[status] += 1
        span = max(span, event.wall_clock_ms)
    r1 = None
    if run is not None and log_replay_class(run, events) == "R1":
        result = _reference_replay_r1(run, events)
        r1 = (result.reduction, result.terminal_match)
    return _ReferenceSummary(steps, waits, episodes, span, counts, invalid, ends, quality, r1)


# ---------------------------------------------------------------------------
# Old and new, side by side
# ---------------------------------------------------------------------------


def _outcome(action):
    """``repr`` of what ``action()`` returns, or its error's type, text and code."""

    try:
        return "ok", repr(action())
    except Exception as exc:  # noqa: BLE001  (the error itself is compared)
        return type(exc).__name__, str(exc), getattr(exc, "code", None)


def _summary_fields(events, run):
    """``summarize_run``'s summary as a ``_ReferenceSummary``, field by field."""

    summary = summarize_run(events, run)
    return _ReferenceSummary(*(getattr(summary, name) for name in _ReferenceSummary.__match_args__))


def test_the_summary_keeps_every_field_of_the_reference():
    assert RunSummary.__match_args__ == _ReferenceSummary.__match_args__


def _assert_equivalent(run, events):
    assert _outcome(lambda: reduce_log(events).outcomes()) == _outcome(
        lambda: _reference_reduce_episodes(events)
    )
    assert _outcome(lambda: _summary_fields(events, run)) == _outcome(
        lambda: _reference_summarize_run(events, run)
    )
    if events[0].provenance.replay_class == "R1":
        reference = _outcome(lambda: _reference_replay_r1(run, events))
        assert _outcome(lambda: replay_r1(run, reduce_log(events))) == reference
        if reference[0] == "ok":  # a bundle's events are the log's, decoded again
            assert _outcome(lambda: replay_run(build_bundle(run, events))) == reference


@pytest.fixture(scope="module")
def logs(demo_runset, tmp_path_factory):
    """(run, events) of every demo log and of every log of the default study grid."""

    runset, _ = demo_runset
    study, _, _ = run_study(StudyConfig(), out_dir=tmp_path_factory.mktemp("reducer-study"))
    pairs = [
        (run, list(runs.events_for(run)))
        for runs in (runset, study) for run in runs.runs if run.event_log_ref
    ]
    assert {events[0].provenance.replay_class for _, events in pairs} == {"R0", "R1", "R2"}
    return pairs


def test_every_demo_and_study_log_reduces_as_the_three_loops_did(logs):
    assert len(logs) == 17 + 48
    for run, events in logs:
        _assert_equivalent(run, events)


# ---------------------------------------------------------------------------
# Edits that keep a log valid
# ---------------------------------------------------------------------------

# Numeric payload values a reader converts or compares, by event kind.
_NUMBERS = {
    "episode_start": ("goal",),
    "model_request_end": ("model_latency_ms",),
    "env_step_end": ("service_time_ms", "progress"),
    "verifier_outcome": ("queue_wait_ms",),
    "episode_end": ("steps", "wall_ms"),
}
_OPTIONAL = {"episode_start": "goal", "episode_end": "wall_ms", "verifier_outcome": "patch_quality"}
_numbers = st.one_of(
    st.integers(-3, 60), st.floats(-1e3, 1e6, allow_nan=False), st.booleans()
)


def _with_payload(event, **changes):
    return dataclasses.replace(event, payload={**event.payload, **changes})


def _edit(data, events):
    """One edit of ``events`` drawn from ``data``: the edited list."""

    events = list(events)
    kind = data.draw(st.sampled_from(
        ["value", "optional", "drop_pair", "status", "clock", "planned"]
    ))
    if kind == "value":
        index = data.draw(st.sampled_from(
            [i for i, event in enumerate(events) if event.kind in _NUMBERS]
        ))
        key = data.draw(st.sampled_from(_NUMBERS[events[index].kind]))
        events[index] = _with_payload(events[index], **{key: data.draw(_numbers)})
    elif kind == "optional":
        index = data.draw(st.sampled_from(
            [i for i, event in enumerate(events) if _OPTIONAL.get(event.kind) in event.payload]
            or [0]
        ))
        payload = dict(events[index].payload)
        payload.pop(_OPTIONAL.get(events[index].kind, ""), None)
        events[index] = dataclasses.replace(events[index], payload=payload)
    elif kind == "drop_pair":  # a whole step or model request, or a whole terminal
        span = data.draw(st.sampled_from(["env_step", "model_request", "terminal_result"]))
        ends = [i for i, event in enumerate(events) if event.kind in (f"{span}_end", span)]
        if not ends:
            reject()
        end = events[data.draw(st.sampled_from(ends))]
        if span == "terminal_result":
            events = [
                _with_payload(event, status="missing_terminal")
                if event.kind == "episode_end" and event.episode_id == end.episode_id else event
                for event in events if event is not end
            ]
        else:
            events = [
                event for event in events
                if not (event.kind.startswith(span) and event.episode_id == end.episode_id
                        and event.step_index == end.step_index)
            ]
    elif kind == "status":
        episode = data.draw(st.sampled_from(
            [event.episode_id for event in events if event.kind == "terminal_result"] or [""]
        ))
        status = data.draw(st.sampled_from(["success", "failure", "timeout"]))
        events = [
            _with_payload(event, status=status)
            if event.episode_id == episode and episode
            and event.kind in ("terminal_result", "episode_end", "verifier_outcome") else event
            for event in events
        ]
    elif kind == "clock":  # the previous event's clock, so instants can coincide
        index = data.draw(st.integers(1, len(events) - 1))
        events[index] = dataclasses.replace(
            events[index], wall_clock_ms=events[index - 1].wall_clock_ms
        )
    else:
        planned = data.draw(st.one_of(_numbers, st.none(), st.text(max_size=2)))
        events[0] = _with_payload(events[0], planned_episodes=planned)
    return events


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_valid_edits_of_a_log_reduce_as_the_three_loops_did(logs, data):
    run, events = data.draw(st.sampled_from(logs))
    for _ in range(data.draw(st.integers(1, 3))):
        events = _edit(data, events)
    try:
        require_valid_log(events, run.run_id)
    except SchemaError:
        reject()
    _assert_equivalent(run, events)


def _first_web_llm(logs):
    return next(
        (run, events) for run, events in logs
        if events[0].provenance.replay_class == "R1" and run.driver.driver_type == "llm"
    )


@pytest.mark.parametrize("value", ["x", None, [1]], ids=["text", "null", "list"])
@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in _NUMBERS.items() for key in keys]
)
def test_one_value_that_is_not_a_number_fails_as_it_did(logs, kind, key, value):
    for run, events in (_first_web_llm(logs), *(
        pair for pair in logs[:17] if pair[1][0].provenance.replay_class != "R1"
    )):
        index = next((i for i, event in enumerate(events) if event.kind == kind), None)
        if index is None:
            continue
        edited = list(events)
        edited[index] = _with_payload(edited[index], **{key: value})
        require_valid_log(edited, run.run_id)
        _assert_equivalent(run, edited)


# ---------------------------------------------------------------------------
# Where the readers of the reducer and the old loops part
# ---------------------------------------------------------------------------


def _without_first_step(events):
    """``events`` without the first step's env_step events: its model request
    is then followed by no step in its episode."""

    first = next(event for event in events if event.kind == "env_step_end")
    return [
        event for event in events
        if not (event.kind.startswith("env_step") and event.episode_id == first.episode_id
                and event.step_index == first.step_index)
    ]


def test_a_model_latency_no_step_reads_no_longer_fails_r1_replay(logs):
    run, events = _first_web_llm(logs)
    events = _without_first_step(events)
    index = next(i for i, event in enumerate(events) if event.kind == "model_request_end")
    events[index] = _with_payload(events[index], model_latency_ms="x")
    require_valid_log(events, run.run_id)
    with pytest.raises(ValueError):
        _reference_replay_r1(run, events)
    result = replay_r1(run, reduce_log(events))
    docs = [event.to_doc() for event in events]
    bundle = ReplayBundle("R1", {**build_bundle(run, events).material, "events": docs})
    assert replay_run(bundle) == result
    assert len(result.per_step_latency_ms) == sum(e.kind == "env_step_end" for e in events)


def _bundle_events(run, events, order):
    return ReplayBundle(
        "R1", {**build_bundle(run, events).material, "events": [events[i].to_doc() for i in order]}
    )


def test_an_r1_bundle_step_before_its_episode_start_now_replays(logs):
    run, events = _first_web_llm(logs)
    start = next(i for i, event in enumerate(events) if event.kind == "episode_start")
    step = next(i for i, event in enumerate(events) if event.kind == "env_step_end")
    order = list(range(len(events)))
    order.insert(start, order.pop(step))
    moved = [events[i] for i in order]
    with pytest.raises(KeyError):
        _reference_r1_result(moved)
    result = replay_run(_bundle_events(run, events, order))
    assert result == replay_r1(run, reduce_log(moved))
    assert result.terminal_match is replay_r1(run, reduce_log(events)).terminal_match is True


def test_an_r1_bundle_that_starts_an_episode_twice_counts_every_step(logs):
    run, events = _first_web_llm(logs)
    first_start = next(i for i, event in enumerate(events) if event.kind == "episode_start")
    last_end = max(
        i for i, event in enumerate(events)
        if event.kind == "env_step_end" and event.episode_id == events[first_start].episode_id
    )
    order = list(range(len(events)))
    order.insert(last_end + 1, first_start)  # the episode starts again after its last step
    restarted = [events[i] for i in order]
    steps = sum(event.kind == "env_step_end" for event in events)
    reference = _reference_r1_result(restarted)
    result = replay_run(_bundle_events(run, events, order))
    assert len(result.per_step_latency_ms) == steps > len(reference.per_step_latency_ms)
    assert result.live_mean_ms == reference.live_mean_ms
