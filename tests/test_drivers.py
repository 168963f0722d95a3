from __future__ import annotations

import random
import statistics
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

from gatebench.drivers import (
    Action,
    DriverError,
    DriverRecord,
    HookBConfig,
    SampleMeta,
    SyntheticLlmProfile,
    TelemetryWindow,
    calibration_action,
    draw_lognormal,
    hook_a_filter,
    hook_b_adjust,
    scripted_next_action,
    synthetic_llm_call,
)
from gatebench.manifest import make_manifest
from gatebench.schema import (
    OPTIONAL_PAYLOAD_KEYS,
    REQUIRED_PAYLOAD_KEYS,
    SchemaError,
    canonical_hash,
)


# ---------------------------------------------------------------------------
# DriverRecord contract
# ---------------------------------------------------------------------------


def test_llm_driver_requires_model_fields():
    with pytest.raises(DriverError):
        DriverRecord(
            driver_id="d",
            driver_type="llm",
            driver_version="1",
            parser_version="1",
            budget=3,
            seed=0,
            setting_label="clean",
            evidence_status="paper_facing",
        )


def test_budget_must_be_positive():
    with pytest.raises(DriverError):
        DriverRecord(
            driver_id="d",
            driver_type="scripted",
            driver_version="1",
            parser_version="1",
            budget=0,
            seed=0,
            setting_label="clean",
            evidence_status="paper_facing",
        )


# ---------------------------------------------------------------------------
# Scripted and calibration drivers
# ---------------------------------------------------------------------------

SCRIPT = (Action(kind="click"), Action(kind="type"))


def test_scripted_step_zero():
    payload, action = scripted_next_action({}, SCRIPT, 0)
    assert action.kind == "click"
    assert payload["parse_status"] == "parsed"


def test_scripted_cyclic_indexing():
    _, action = scripted_next_action({}, SCRIPT, 3, cyclic=True)
    assert action.kind == "type"


def test_scripted_empty_script():
    with pytest.raises(DriverError) as err:
        scripted_next_action({}, (), 0)
    assert err.value.code == "empty_script"


def test_noop_action_never_advances():
    manifest = make_manifest("web", "t", "root")
    action = calibration_action("noop", manifest)
    assert action.advance_prob == 0.0


def test_oracle_action_always_advances():
    manifest = make_manifest("micro", "t", "root")
    action = calibration_action("oracle", manifest)
    assert action.advance_prob == 1.0


# ---------------------------------------------------------------------------
# Synthetic LLM driver
# ---------------------------------------------------------------------------


def test_synthetic_zero_invalid_prob():
    profile = SyntheticLlmProfile(invalid_action_prob=0.0)
    rng = random.Random(1)
    assert all(
        not synthetic_llm_call({}, profile, rng)[0]["invalid_action"] for _ in range(500)
    )


def test_synthetic_always_invalid():
    profile = SyntheticLlmProfile(invalid_action_prob=1.0)
    rng = random.Random(1)
    for _ in range(50):
        payload, action = synthetic_llm_call({}, profile, rng)
        assert payload["invalid_action"]
        assert payload["parse_status"] == "invalid"
        assert action.advance_prob == 0.0


def test_synthetic_latency_mean_within_two_percent():
    # Statistical oracle over the fixed generator: log-normal parameterized by
    # arithmetic mean and CV must hit the requested mean.
    rng = random.Random(0)
    draws = [draw_lognormal(rng, 100.0, 0.2) for _ in range(10_000)]
    assert abs(statistics.fmean(draws) - 100.0) <= 2.0


def test_synthetic_deterministic_sequences_match():
    profile = SyntheticLlmProfile()
    first = []
    second = []
    for bucket in (first, second):
        rng = random.Random(42)
        for index in range(20):
            payload, _ = synthetic_llm_call({"step": index}, profile, rng)
            bucket.append(payload)
    assert first == second  # includes every hash field


# Digests of the action payload equal canonical_hash of the documents they
# stand for, however the driver assembles their canonical text.

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=16,
)
_observations = (
    st.dictionaries(st.text(), _json_values, max_size=6)
    | _json_values
    | st.tuples(st.integers(), st.text())
)


def _observation_reference(obs):
    return dict(obs) if isinstance(obs, Mapping) else str(obs)


@given(_observations, st.integers(0, 2**32), st.sampled_from([0.0, 0.5, 1.0]))
def test_synthetic_digests_equal_reference_documents(obs, seed, invalid_prob):
    profile = SyntheticLlmProfile(invalid_action_prob=invalid_prob)
    payload, action = synthetic_llm_call(obs, profile, random.Random(seed))
    doc = _observation_reference(obs)
    raw_output = {
        "obs": doc, "invalid": payload["invalid_action"], "tokens": payload["completion_tokens"]
    }
    assert payload["observation_hash"] == canonical_hash({"obs": doc}).hex
    assert payload["prompt_hash"] == canonical_hash({"prompt": doc}).hex
    assert payload["raw_output_hash"] == canonical_hash(raw_output).hex
    if payload["invalid_action"]:
        assert "parsed_action_hash" not in payload
    else:
        assert payload["parsed_action_hash"] == canonical_hash({"kind": action.kind}).hex


@given(_observations, st.text())
def test_scripted_digests_equal_reference_documents(obs, kind):
    payload, action = scripted_next_action(obs, (Action(kind=kind),), 0)
    assert action.kind == kind
    assert payload["observation_hash"] == canonical_hash({"obs": _observation_reference(obs)}).hex
    assert payload["parsed_action_hash"] == canonical_hash({"kind": kind}).hex


_uncanonical_observations = (
    st.dictionaries(st.text(), st.just(float("nan")) | st.just(float("-inf")), min_size=1)
    | st.dictionaries(st.integers() | st.none(), _json_values, min_size=1)
    | st.dictionaries(
        st.text(), st.dictionaries(st.integers(), st.integers(), min_size=1), min_size=1
    )
    | st.dictionaries(st.text(), st.lists(st.just(float("nan")), min_size=1), min_size=1)
)


@given(_uncanonical_observations, st.integers(0, 2**32))
def test_uncanonical_observations_raise_the_reference_error(obs, seed):
    with pytest.raises(SchemaError) as expected:
        canonical_hash({"obs": dict(obs)})
    assert expected.value.code == "non_canonical_value"
    calls = (
        lambda: synthetic_llm_call(obs, SyntheticLlmProfile(), random.Random(seed)),
        lambda: scripted_next_action(obs, SCRIPT, 0),
    )
    for call in calls:
        with pytest.raises(SchemaError) as err:
            call()
        assert (err.value.code, str(err.value)) == (expected.value.code, str(expected.value))


def test_synthetic_fills_action_level_fields():
    rng = random.Random(3)
    payload, _ = synthetic_llm_call({"obs": 1}, SyntheticLlmProfile(), rng)
    assert set(payload) == set(REQUIRED_PAYLOAD_KEYS["action_parsed"]) | set(
        OPTIONAL_PAYLOAD_KEYS["action_parsed"]
    )
    assert payload["prompt_tokens"] > 0
    assert payload["completion_tokens"] > 0
    assert payload["model_latency_ms"] > 0
    assert payload["backend_engine"] == "vllm"


# ---------------------------------------------------------------------------
# Hook A: validity/staleness filter
# ---------------------------------------------------------------------------


def test_hook_a_missing_terminal_first():
    decision = hook_a_filter(SampleMeta(has_terminal_outcome=False, invalid_sample_marker=True))
    assert not decision.keep
    assert decision.reason == "missing_terminal"


def test_hook_a_clean_sample_kept():
    decision = hook_a_filter(SampleMeta())
    assert decision.keep
    assert decision.reason is None


def test_hook_a_retry_budget_exceeded():
    decision = hook_a_filter(SampleMeta(retry_count=4, retry_budget=3))
    assert not decision.keep
    assert decision.reason == "retry_budget_exceeded"


def test_hook_a_mismatch_requires_version_fields():
    hidden = SampleMeta(version_fields_present=False, version_mismatch=True)
    assert hook_a_filter(hidden).keep
    visible = SampleMeta(version_fields_present=True, version_mismatch=True)
    assert hook_a_filter(visible).reason == "version_snapshot_mismatch"


def test_hook_a_reason_precedence_total_order():
    meta = SampleMeta(
        has_terminal_outcome=False,
        invalid_sample_marker=True,
        version_mismatch=True,
        retry_count=9,
        retry_budget=1,
    )
    assert hook_a_filter(meta).reason == "missing_terminal"
    meta2 = SampleMeta(invalid_sample_marker=True, version_mismatch=True, retry_count=9, retry_budget=1)
    assert hook_a_filter(meta2).reason == "invalid_sample"
    meta3 = SampleMeta(version_mismatch=True, retry_count=9, retry_budget=1)
    assert hook_a_filter(meta3).reason == "version_snapshot_mismatch"


@given(
    has_terminal=st.booleans(),
    invalid=st.booleans(),
    fields_present=st.booleans(),
    mismatch=st.booleans(),
    retry_count=st.integers(min_value=0, max_value=10),
    retry_budget=st.integers(min_value=0, max_value=10),
)
def test_hook_a_pure_and_consistent(
    has_terminal, invalid, fields_present, mismatch, retry_count, retry_budget
):
    meta = SampleMeta(
        has_terminal_outcome=has_terminal,
        invalid_sample_marker=invalid,
        version_fields_present=fields_present,
        version_mismatch=mismatch,
        retry_count=retry_count,
        retry_budget=retry_budget,
    )
    first = hook_a_filter(meta)
    assert first == hook_a_filter(meta)
    assert first.keep == (first.reason is None)


# ---------------------------------------------------------------------------
# Hook B: adaptive concurrency
# ---------------------------------------------------------------------------

CFG = HookBConfig(pressure_threshold_ms=50.0, min_conc=1, max_conc=8, step=1)


def _window(waits: list[float]) -> TelemetryWindow:
    window = TelemetryWindow(capacity=16)
    for index, wait in enumerate(waits):
        window.push(float(index), 0, wait)
    return window


def test_hook_b_relief_branch_grows():
    assert hook_b_adjust(_window([0.0, 0.0]), CFG, 4) == 5


def test_hook_b_pressure_branch_shrinks():
    assert hook_b_adjust(_window([200.0, 200.0]), CFG, 4) == 3


def test_hook_b_dead_band_holds():
    assert hook_b_adjust(_window([30.0, 40.0]), CFG, 4) == 4


def test_hook_b_empty_window_unchanged():
    assert hook_b_adjust(TelemetryWindow(), CFG, 4) == 4


def test_hook_b_respects_floor_and_cap():
    assert hook_b_adjust(_window([500.0]), CFG, 1) == 1
    assert hook_b_adjust(_window([0.0]), CFG, 8) == 8


@given(
    waits=st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=20),
    current=st.integers(min_value=1, max_value=8),
)
def test_hook_b_never_leaves_bounds(waits, current):
    result = hook_b_adjust(_window(waits), CFG, current)
    assert CFG.min_conc <= result <= CFG.max_conc


def test_window_capacity_trims_oldest():
    window = TelemetryWindow(capacity=3)
    for index in range(6):
        window.push(float(index), index, float(index))
    assert len(window.window) == 3
    assert window.window[0][0] == 3.0
