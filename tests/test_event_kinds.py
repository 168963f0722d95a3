"""The event-kind table: the names derived from it, each scope and span rule
alone, and the equivalence of ``RunValidator`` with the per-kind branches the
table replaced."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from gatebench.schema import (
    EVENT_KINDS,
    KINDS,
    OPTIONAL_PAYLOAD_KEYS,
    PARSE_STATUSES,
    PATCH_QUALITIES,
    REQUIRED_PAYLOAD_KEYS,
    SUPPORTED_SCHEMA_VERSIONS,
    RunValidator,
    SchemaError,
    Violation,
    require_valid_log,
)
from gatebench.study import StudyConfig, run_study

# ---------------------------------------------------------------------------
# The kind tables and the validator as they stood before the table, kept as
# the reference.
# ---------------------------------------------------------------------------

_EVENT_KINDS = frozenset(
    {
        "run_start",
        "run_end",
        "episode_start",
        "episode_end",
        "model_request_start",
        "model_request_end",
        "action_parsed",
        "env_step_start",
        "env_step_end",
        "tool_call",
        "verifier_outcome",
        "retry",
        "error",
        "terminal_result",
    }
)

_RUN_SCOPED_KINDS = frozenset({"run_start", "run_end"})

_REQUIRED_PAYLOAD_KEYS = {
    "run_start": ("setting_label", "planned_episodes"),
    "run_end": ("status",),
    "episode_start": ("episode_index",),
    "episode_end": ("status", "steps"),
    "model_request_start": ("request_index",),
    "model_request_end": ("request_index", "model_latency_ms"),
    "action_parsed": (
        "parse_status",
        "invalid_action",
        "observation_hash",
        "prompt_tokens",
        "completion_tokens",
        "model_latency_ms",
    ),
    "env_step_start": ("action_kind",),
    "env_step_end": ("service_time_ms", "progress"),
    "tool_call": ("tool_name",),
    "verifier_outcome": ("status", "queue_wait_ms", "verifier_latency_ms"),
    "retry": ("attempt", "reason"),
    "error": ("message",),
    "terminal_result": ("status",),
}

_OPTIONAL_PAYLOAD_KEYS = {
    "run_start": ("driver_type", "variant", "backend"),
    "run_end": ("successes", "episodes_completed"),
    "episode_start": ("goal",),
    "episode_end": ("wall_ms",),
    "model_request_start": (),
    "model_request_end": ("backend_engine",),
    "action_parsed": (
        "prompt_hash",
        "raw_output_hash",
        "parsed_action_hash",
        "backend_engine",
        "policy_version",
    ),
    "env_step_start": (),
    "env_step_end": ("fault",),
    "tool_call": ("detail",),
    "verifier_outcome": ("evaluator_id", "detail", "ticket_id", "pass_prob", "patch_quality"),
    "retry": ("scope",),
    "error": ("scope",),
    "terminal_result": ("evaluator_id", "detail", "drop_reason", "sample_retry_count"),
}

_R2_VERDICT_INPUTS = (
    ("patch_quality", lambda value: type(value) is str and value in PATCH_QUALITIES,
     "a known patch quality"),
    ("pass_prob", lambda value: type(value) in (int, float) and 0 <= value <= 1,
     "a number in [0, 1]"),
)


def _reference_event_violations(event):
    payload, kind = event.payload, event.kind
    violations = [
        Violation("missing_field", f"payload.{key}", f"{kind} requires payload key {key}")
        for key in _REQUIRED_PAYLOAD_KEYS.get(kind, ())
        if key not in payload
    ]
    allowed = set(_REQUIRED_PAYLOAD_KEYS.get(kind, ())) | set(_OPTIONAL_PAYLOAD_KEYS.get(kind, ()))
    violations.extend(
        Violation("unknown_field", f"payload.{key}", f"{kind} does not allow key {key}")
        for key in payload
        if key not in allowed
    )
    if kind == "action_parsed" and "parse_status" in payload:
        status = payload["parse_status"]
        if type(status) is not str or status not in PARSE_STATUSES:
            violations.append(
                Violation("invalid_value", "payload.parse_status", f"unknown status {status!r}")
            )
        elif "invalid_action" in payload and payload["invalid_action"] is not (status != "parsed"):
            violations.append(Violation("invalid_value", "payload.invalid_action",
                                        "invalid_action inconsistent with parse_status"))
    if kind == "verifier_outcome" and event.provenance.replay_class == "R2":
        for key, valid, expected in _R2_VERDICT_INPUTS:
            if key not in payload:
                message = f"an R2 verifier_outcome requires payload key {key}"
                violations.append(Violation("missing_field", f"payload.{key}", message))
            elif not valid(payload[key]):
                message = f"{key} {payload[key]!r} is not {expected}"
                violations.append(Violation("invalid_value", f"payload.{key}", message))
    if event.provenance.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
        violations.append(Violation(
            "invalid_value",
            "provenance.schema_version",
            f"unsupported schema version {event.provenance.schema_version!r}",
        ))
    return violations


class _ReferenceValidator:
    """``RunValidator`` with its per-kind ``if`` branches, as before the table."""

    def __init__(self):
        self._run_id = None
        self._last_sequence = None
        self._last_clock = None
        self._started = False
        self._ended = False
        self._open_episodes = {}
        self._closed_episodes = set()
        self._terminal_statuses = {}
        self._verdicts = {}
        self._seen_spans = set()
        self._trace_id = None
        self._provenance = None

    def _stateful_violations(self, event):
        violations = []
        flag = lambda *args: violations.append(Violation(*args))  # noqa: E731
        kind = event.kind

        if not self._started and kind != "run_start":
            return [
                Violation("boundary_mismatch", "kind", f"{kind} before run_start for this run")
            ]
        if self._ended:
            return [Violation("boundary_mismatch", "kind", f"{kind} after run_end")]

        if kind == "run_start":
            if self._started:
                return [Violation("boundary_mismatch", "kind", "duplicate run_start")]
            if event.sequence != 0:
                flag("sequence_order", "sequence", "run_start must have sequence 0")
        else:
            if event.run_id != self._run_id:
                flag("boundary_mismatch", "run_id",
                     f"event run_id {event.run_id!r} does not match {self._run_id!r}")
            if self._trace_id is not None and event.trace.trace_id != self._trace_id:
                flag("boundary_mismatch", "trace.trace_id", "trace_id changed mid-run")
            if event.provenance is not self._provenance and event.provenance != self._provenance:
                flag("boundary_mismatch", "provenance", "provenance differs from run_start's")

        if self._last_sequence is not None and event.sequence <= self._last_sequence:
            flag("sequence_order", "sequence",
                 f"sequence {event.sequence} not greater than {self._last_sequence}")
        if self._last_clock is not None and event.wall_clock_ms < self._last_clock:
            flag("sequence_order", "wall_clock_ms",
                 f"clock regressed from {self._last_clock} to {event.wall_clock_ms}")
        if event.trace.span_id in self._seen_spans:
            flag("invalid_value", "trace.span_id", "span_id reused within run")

        episode = event.episode_id
        if kind in _RUN_SCOPED_KINDS or (kind == "error" and episode == ""):
            if kind in _RUN_SCOPED_KINDS and episode != "":
                flag("boundary_mismatch", "episode_id", f"{kind} must use empty episode_id")
        elif kind == "episode_start":
            if episode == "":
                flag("missing_field", "episode_id", "episode_start needs an episode_id")
            elif episode in self._open_episodes or episode in self._closed_episodes:
                flag("boundary_mismatch", "episode_id", f"episode {episode} reused")
        else:
            state = self._open_episodes.get(episode)
            if state is None:
                flag("boundary_mismatch", "episode_id",
                     f"{kind} outside an open episode ({episode!r})")
            else:
                if kind == "env_step_start" and state["env_step_open"]:
                    flag("boundary_mismatch", "kind", "nested env_step_start")
                if kind == "env_step_end" and not state["env_step_open"]:
                    flag("boundary_mismatch", "kind", "env_step_end without env_step_start")
                if kind == "model_request_start" and state["request_open"]:
                    flag("boundary_mismatch", "kind", "nested model_request_start")
                if kind == "model_request_end" and not state["request_open"]:
                    flag("boundary_mismatch", "kind",
                         "model_request_end without model_request_start")
                if kind == "terminal_result" and episode in self._terminal_statuses:
                    flag("boundary_mismatch", "kind", "duplicate terminal_result")
                if (
                    kind == "terminal_result"
                    and event.provenance.replay_class == "R2"
                    and "status" in event.payload
                ):
                    status = event.payload["status"]
                    verdict = self._verdicts.get(episode)
                    if verdict is None:
                        flag("invalid_value", "payload.status",
                             "terminal_result before its episode's verifier_outcome")
                    elif status != verdict:
                        flag("invalid_value", "payload.status",
                             f"terminal_result status {status!r} is not its "
                             f"verifier_outcome's {verdict!r}")
                if kind == "episode_end" and (state["env_step_open"] or state["request_open"]):
                    flag("boundary_mismatch", "kind", "episode_end with open step or request")
                if kind == "episode_end" and "status" in event.payload:
                    status = event.payload["status"]
                    expected = self._terminal_statuses.get(episode, "missing_terminal")
                    if type(status) is not str:
                        flag("invalid_value", "payload.status",
                             f"episode_end status {status!r} is not a string")
                    elif status != expected:
                        flag("invalid_value", "payload.status",
                             f"episode_end status {status!r} is not its episode's {expected!r}")

        if kind == "run_end" and self._open_episodes:
            open_ids = ", ".join(sorted(self._open_episodes))
            flag("boundary_mismatch", "kind", f"run_end with open episodes: {open_ids}")

        return violations

    def _advance(self, event):
        kind = event.kind
        if kind == "run_start":
            self._started = True
            self._run_id = event.run_id
            self._trace_id = event.trace.trace_id
            self._provenance = event.provenance
        elif kind == "run_end":
            self._ended = True
        elif kind == "episode_start":
            self._open_episodes[event.episode_id] = {"env_step_open": False, "request_open": False}
        elif kind == "episode_end":
            self._open_episodes.pop(event.episode_id, None)
            self._closed_episodes.add(event.episode_id)
        elif kind == "env_step_start":
            self._open_episodes[event.episode_id]["env_step_open"] = True
        elif kind == "env_step_end":
            self._open_episodes[event.episode_id]["env_step_open"] = False
        elif kind == "model_request_start":
            self._open_episodes[event.episode_id]["request_open"] = True
        elif kind == "model_request_end":
            self._open_episodes[event.episode_id]["request_open"] = False
        elif kind == "terminal_result":
            self._terminal_statuses[event.episode_id] = event.payload.get("status")
        elif kind == "verifier_outcome":
            self._verdicts[event.episode_id] = event.payload["status"]
        self._last_sequence = event.sequence
        self._last_clock = event.wall_clock_ms
        self._seen_spans.add(event.trace.span_id)

    def validate(self, event):
        violations = _reference_event_violations(event)
        violations.extend(self._stateful_violations(event))
        if not violations:
            self._advance(event)
        return violations

    def finalize(self):
        violations = []
        if not self._started:
            violations.append(Violation("boundary_mismatch", "run", "no run_start seen"))
        if not self._ended:
            violations.append(Violation("boundary_mismatch", "run", "no run_end seen"))
        if self._open_episodes:
            open_ids = ", ".join(sorted(self._open_episodes))
            violations.append(
                Violation("boundary_mismatch", "run", f"unclosed episodes: {open_ids}")
            )
        return violations


def _reference_log_error(events, run_id):
    """``require_valid_log``'s error message as before the table, or ``None``."""

    validator = _ReferenceValidator()
    for event in events:
        violations = validator.validate(event)
        if violations:
            where = f"event {event.sequence}"
            break
    else:
        violations, where = validator.finalize(), "end of log"
    if violations:
        first = violations[0]
        return f"run {run_id}: {where}: {first.code} {first.field}: {first.message}"
    return None


# ---------------------------------------------------------------------------
# The derived names
# ---------------------------------------------------------------------------


def test_derived_names_equal_the_tables_they_replaced():
    assert EVENT_KINDS == _EVENT_KINDS
    assert REQUIRED_PAYLOAD_KEYS == _REQUIRED_PAYLOAD_KEYS
    assert OPTIONAL_PAYLOAD_KEYS == _OPTIONAL_PAYLOAD_KEYS
    assert {kind for kind, row in KINDS.items() if row.scope == "run"} == _RUN_SCOPED_KINDS


def test_each_span_is_opened_and_closed_by_its_own_start_and_end_kinds():
    spans = {kind: row.span for kind, row in KINDS.items() if row.span}
    assert spans == {
        "env_step_start": "env_step",
        "env_step_end": "env_step",
        "model_request_start": "model_request",
        "model_request_end": "model_request",
    }


# ---------------------------------------------------------------------------
# Honest logs, and each scope and span rule fired alone by a one-event edit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def honest_logs(demo_runset, tmp_path_factory):
    """Every demo log and every log of a 4-run study, as decoded event lists."""

    runset, _ = demo_runset
    study, _, _ = run_study(
        StudyConfig(backends=("vllm",), seeds=(0,), budgets=(5,)),
        out_dir=tmp_path_factory.mktemp("kinds-study"),
    )
    logs = []
    for runs in (runset, study):
        logs += [list(runs.events_for(run)) for run in runs.runs if run.event_log_ref]
    for events in logs:
        require_valid_log(events, events[0].run_id)
    return logs


def _first(events, kind):
    return next(i for i, event in enumerate(events) if event.kind == kind)


def _end_before_a_second_start(events, span):
    """Index of a ``{span}_end`` whose episode opens the span again before it ends."""

    for i, event in enumerate(events):
        if event.kind == f"{span}_end":
            for later in events[i + 1:]:
                if later.episode_id == event.episode_id and later.kind == f"{span}_start":
                    return i
                if later.episode_id == event.episode_id and later.kind == "episode_end":
                    break
    raise AssertionError(f"no episode opens {span} twice")


def _delete(index):
    return lambda events: events[:index(events)] + events[index(events) + 1:]


def _set_episode(index, episode_id):
    def edit(events):
        i = index(events)
        edited = dataclasses.replace(events[i], episode_id=episode_id)
        return [*events[:i], edited, *events[i + 1:]]
    return edit


_ALONE = {
    "nested env_step_start": (
        _delete(lambda events: _end_before_a_second_start(events, "env_step")),
        Violation("boundary_mismatch", "kind", "nested env_step_start"),
    ),
    "env_step_end without env_step_start": (
        _delete(lambda events: _first(events, "env_step_start")),
        Violation("boundary_mismatch", "kind", "env_step_end without env_step_start"),
    ),
    "nested model_request_start": (
        _delete(lambda events: _end_before_a_second_start(events, "model_request")),
        Violation("boundary_mismatch", "kind", "nested model_request_start"),
    ),
    "model_request_end without model_request_start": (
        _delete(lambda events: _first(events, "model_request_start")),
        Violation("boundary_mismatch", "kind", "model_request_end without model_request_start"),
    ),
    "must use empty episode_id": (
        _set_episode(lambda events: _first(events, "run_end"), "ep-x"),
        Violation("boundary_mismatch", "episode_id", "run_end must use empty episode_id"),
    ),
    "episode_start needs an episode_id": (
        _set_episode(lambda events: _first(events, "episode_start"), ""),
        Violation("missing_field", "episode_id", "episode_start needs an episode_id"),
    ),
    "outside an open episode": (
        _set_episode(lambda events: _first(events, "env_step_start"), "ep-x"),
        Violation("boundary_mismatch", "episode_id",
                  "env_step_start outside an open episode ('ep-x')"),
    ),
}


@pytest.mark.parametrize("rule", sorted(_ALONE))
def test_one_event_edit_of_an_honest_log_fires_one_scope_or_span_rule_alone(rule, honest_logs):
    events = next(
        events for events in honest_logs
        if events[0].provenance.replay_class == "R1"
        and any(event.kind == "model_request_start" for event in events)
    )
    edit, expected = _ALONE[rule]
    edited = edit(events)
    validator = RunValidator()
    outcomes = [validator.validate(event) for event in edited]
    first = next(i for i, violations in enumerate(outcomes) if violations)
    assert outcomes[first] == [expected]
    with pytest.raises(SchemaError) as err:
        require_valid_log(edited, events[0].run_id)
    assert err.value.message == (
        f"run {events[0].run_id}: event {edited[first].sequence}: "
        f"{expected.code} {expected.field}: {expected.message}"
    )


# ---------------------------------------------------------------------------
# The table-driven validator equals the reference on randomly edited logs
# ---------------------------------------------------------------------------

_PAYLOAD_KEY_NAMES = sorted(
    {key for keys in (*_REQUIRED_PAYLOAD_KEYS.values(), *_OPTIONAL_PAYLOAD_KEYS.values())
     for key in keys} | {"zzz"}
)
_STATUSES = ("success", "failure", "error", "missing_terminal", "parsed", "invalid", 5, None,
             True, False)
_EDITS = ("delete", "duplicate", "swap", "kind", "episode", "add_key", "drop_key", "status")


def _edit(data, events):
    """``events`` with one random edit applied."""

    i = data.draw(st.integers(0, len(events) - 1))
    event = events[i]
    edit = data.draw(st.sampled_from(_EDITS))
    if edit == "delete":
        return events[:i] + events[i + 1:]
    if edit == "duplicate":
        return events[:i + 1] + events[i:]
    if edit == "swap":
        j = data.draw(st.integers(0, len(events) - 1))
        swapped = list(events)
        swapped[i], swapped[j] = events[j], events[i]
        return swapped
    if edit == "kind":  # optionally with the new kind's required keys, or run-level
        kind = data.draw(st.sampled_from(sorted(_EVENT_KINDS)))
        payload = event.payload
        if data.draw(st.booleans()):
            payload = dict.fromkeys(_REQUIRED_PAYLOAD_KEYS[kind], "success")
        episode_id = data.draw(st.sampled_from((event.episode_id, "")))
        event = dataclasses.replace(event, kind=kind, payload=payload, episode_id=episode_id)
    elif edit == "episode":
        episodes = sorted({event.episode_id for event in events} | {"", "ep-x"})
        event = dataclasses.replace(event, episode_id=data.draw(st.sampled_from(episodes)))
    elif edit == "add_key":
        key = data.draw(st.sampled_from(_PAYLOAD_KEY_NAMES))
        event = dataclasses.replace(event, payload={**event.payload, key: 1})
    elif edit == "drop_key" and event.payload:
        key = data.draw(st.sampled_from(sorted(event.payload)))
        event = dataclasses.replace(
            event, payload={name: value for name, value in event.payload.items() if name != key}
        )
    elif edit == "status":
        key = data.draw(st.sampled_from(("status", "parse_status", "invalid_action")))
        value = data.draw(st.sampled_from(_STATUSES))
        event = dataclasses.replace(event, payload={**event.payload, key: value})
    return [*events[:i], event, *events[i + 1:]]


@given(data=st.data())
@settings(max_examples=1000, deadline=None)
def test_validator_equals_the_reference_on_edited_honest_logs(honest_logs, data):
    events = data.draw(st.sampled_from(honest_logs))
    for _ in range(data.draw(st.integers(0, 3))):
        events = _edit(data, events)
    run_id = events[0].run_id if events else "empty"

    validator, reference = RunValidator(), _ReferenceValidator()
    for event in events:
        assert validator.validate(event) == reference.validate(event)
    assert validator.finalize() == reference.finalize()

    expected = _reference_log_error(events, run_id)
    if expected is None:
        require_valid_log(events, run_id)
    else:
        with pytest.raises(SchemaError) as err:
            require_valid_log(events, run_id)
        assert (err.value.code, err.value.message) == ("invalid_log", expected)
