from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from gatebench.cli import EXIT_OK, main
from gatebench.drivers import SyntheticLlmProfile
from gatebench.replay import (
    ReplayError,
    build_bundle,
    load_bundle,
    log_replay_class,
    replay_run,
    replay_runset,
    save_bundle,
)
from gatebench.runner import DriverSpec, RunSet, execute_run, load_runset, save_runset
from gatebench.schema import write_event_log, write_json
from gatebench.simenv import clean_setting

LLM = DriverSpec(
    name="llm",
    driver_type="llm",
    model_family="sim",
    backend_engine="vllm",
    profile=SyntheticLlmProfile(mean_model_latency_ms=180.0, success_bias=0.8),
)
SCRIPTED = DriverSpec(name="scripted", driver_type="scripted")
ORACLE = DriverSpec(name="oracle", driver_type="calibration", mode="oracle",
                    evidence_status="diagnostic")
GENERATED = DriverSpec(
    name="patcher",
    driver_type="llm",
    model_family="sim",
    backend_engine="vllm",
    profile=SyntheticLlmProfile(success_bias=0.5),
)


def _run(manifest, spec, seed=7, budget=8, episodes=4):
    return execute_run(manifest, spec, clean_setting(), seed=seed, budget=budget,
                       planned_episodes=episodes)


# ---------------------------------------------------------------------------
# Bundle classes per family
# ---------------------------------------------------------------------------


def test_micro_bundle_is_r0_summary_only(micro_manifest):
    record, events = _run(micro_manifest, SCRIPTED)
    bundle = build_bundle(record, events)
    assert bundle.replay_class == "R0"
    assert "episode_rows" in bundle.material
    assert "events" not in bundle.material


def test_web_bundle_is_r1_with_full_trace(web_manifest):
    record, events = _run(web_manifest, LLM)
    bundle = build_bundle(record, events)
    assert bundle.replay_class == "R1"
    assert len(bundle.material["events"]) == len(events)
    assert bundle.material["evaluator_freeze"]["verifier_version"]


def test_code_bundle_is_r2_with_snapshot(code_manifest):
    record, events = _run(code_manifest, GENERATED, episodes=3, budget=2)
    bundle = build_bundle(record, events)
    assert bundle.replay_class == "R2"
    assert bundle.material["snapshot_digest"]["hex"]
    assert len(bundle.material["decisions"]) == 3


def test_bundle_requires_freeze(web_manifest):
    record, events = _run(web_manifest, LLM)
    stripped = dataclasses.replace(record, freeze=None)
    with pytest.raises(ReplayError) as err:
        build_bundle(stripped, events)
    assert err.value.code == "missing_replay_freeze"


# ---------------------------------------------------------------------------
# Replay behavior
# ---------------------------------------------------------------------------


def test_r1_replay_terminal_match_and_reduction(web_manifest):
    record, events = _run(web_manifest, LLM, episodes=6)
    result = replay_run(build_bundle(record, events))
    assert result.terminal_match
    assert result.replay_mean_ms == 1.0
    assert result.live_mean_ms > 100.0
    assert result.reduction >= 0.99
    assert result.reduction == pytest.approx(1.0 - result.replay_mean_ms / result.live_mean_ms)


def test_r1_replay_idempotent(web_manifest):
    record, events = _run(web_manifest, LLM)
    bundle = build_bundle(record, events)
    assert replay_run(bundle) == replay_run(bundle)


def test_r0_replay_checks_aggregates(micro_manifest):
    record, events = _run(micro_manifest, SCRIPTED)
    bundle = build_bundle(record, events)
    result = replay_run(bundle)
    assert result.terminal_match
    assert result.reduction == 1.0


def test_r0_tampered_summary_detected(micro_manifest):
    record, events = _run(micro_manifest, SCRIPTED)
    bundle = build_bundle(record, events)
    bundle.material["rollup"]["successes"] += 1
    with pytest.raises(ReplayError) as err:
        replay_run(bundle)
    assert err.value.code == "summary_mismatch"


def test_r0_rows_come_from_the_log_not_from_runset_json(tmp_path, micro_manifest):
    # Overwrite every stored episode summary with success, 1 step and 1.0 ms:
    # the log's episode_end events still say otherwise, so R0 must refuse.
    record, events = _run(micro_manifest, SCRIPTED)
    (tmp_path / "logs").mkdir()
    write_event_log(tmp_path / record.event_log_ref, events)
    save_runset(RunSet(runs=[record]), tmp_path)
    out = tmp_path / "replay"
    out.mkdir()
    (honest,) = replay_runset(load_runset(tmp_path), out)
    assert honest.terminal_match
    index = tmp_path / "runset.json"
    doc = json.loads(index.read_text(encoding="utf-8"))
    for summary in doc["runs"][0]["episode_summaries"]:
        summary.update(status="success", steps=1, wall_ms=1.0)
    index.write_text(json.dumps(doc), encoding="utf-8")
    assert load_runset(tmp_path).runs[0].episode_summaries != record.episode_summaries
    with pytest.raises(ReplayError) as err:
        replay_runset(load_runset(tmp_path), out)
    assert err.value.code == "summary_mismatch"
    assert err.value.message.startswith(f"run {record.run_id}: ")


def test_r0_summary_of_another_type_is_a_mismatch(micro_manifest):
    record, events = _run(micro_manifest, SCRIPTED)
    first, *rest = record.episode_summaries
    retyped = dataclasses.replace(first, steps=float(first.steps))
    assert retyped == first  # equal as values, so only the types tell them apart
    with pytest.raises(ReplayError) as err:
        build_bundle(dataclasses.replace(record, episode_summaries=(retyped, *rest)), events)
    assert err.value.code == "summary_mismatch"


def test_r2_replay_recomputes_decisions(code_manifest):
    record, events = _run(code_manifest, GENERATED, episodes=5, budget=2)
    result = replay_run(build_bundle(record, events))
    assert result.terminal_match


def test_r2_oracle_and_flipped_status(code_manifest):
    record, events = _run(code_manifest, ORACLE, episodes=2, budget=2)
    bundle = build_bundle(record, events)
    assert replay_run(bundle).terminal_match
    bundle.material["decisions"][0]["status"] = "failure"
    assert not replay_run(bundle).terminal_match


def test_r2_seeds_each_decision_by_its_episode_index(code_manifest):
    # An episode that records no verifier decision must not shift the seeds
    # of the later ones: drop the first generated decision and the rest
    # still replay to their recorded verdicts.
    record, events = _run(code_manifest, GENERATED, episodes=8, budget=2)
    bundle = build_bundle(record, events)
    decisions = bundle.material["decisions"]
    first = next(i for i, d in enumerate(decisions) if d["patch_quality"] == "generated")
    del decisions[first]
    assert replay_run(bundle).terminal_match


def test_r2_episode_id_without_index_is_typed_error(code_manifest):
    record, events = _run(code_manifest, GENERATED, episodes=2, budget=2)
    bundle = build_bundle(record, events)
    bundle.material["decisions"][0]["episode_id"] = "no-index-here"
    with pytest.raises(ReplayError) as err:
        replay_run(bundle)
    assert err.value.code == "invalid_bundle"


def test_harness_version_mismatch_rejected(micro_manifest):
    record, events = _run(micro_manifest, SCRIPTED)
    bundle = build_bundle(record, events)
    stale = dataclasses.replace(bundle, harness_version="0.0.1")
    with pytest.raises(ReplayError) as err:
        replay_run(stale)
    assert err.value.code == "replay_version_mismatch"


def test_bundle_file_round_trip(tmp_path, web_manifest):
    record, events = _run(web_manifest, LLM)
    bundle = build_bundle(record, events)
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    assert replay_run(load_bundle(path)) == replay_run(bundle)


def test_r1_hundred_episode_fidelity(web_manifest):
    # Terminal match on every episode across many runs of varying seeds.
    matches = 0
    episodes = 0
    for seed in range(10):
        record, events = _run(web_manifest, LLM, seed=seed, episodes=10)
        result = replay_run(build_bundle(record, events))
        episodes += len(record.episode_summaries)
        matches += len(record.episode_summaries) if result.terminal_match else 0
    assert episodes == 100
    assert matches == 100


# ---------------------------------------------------------------------------
# R1 bundles splice the log's lines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["all/runs", "study"])
def replayed(request, golden_tree, tmp_path_factory):
    """A golden runset (the demo's or the study's), replayed: (runset, bundle
    directory, replay_results.jsonl lines by run id)."""

    runs = golden_tree / request.param
    out = tmp_path_factory.mktemp("replay")
    assert main(["replay", "--runset", str(runs), "--out", str(out)]) == EXIT_OK
    runset = load_runset(runs)
    replayed_ids = [run.run_id for run in runset.runs if run.freeze and run.manifest_resolved]
    lines = (out / "replay_results.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(replayed_ids)
    return runset, out, dict(zip(replayed_ids, lines))


def _r1_runs(runset):
    for run in runset.runs:
        if run.freeze and run.manifest_resolved:
            events = runset.events_for(run)
            if log_replay_class(run, events) == "R1":
                yield run, events


def test_r1_bundle_file_is_the_reference_bundle(replayed, tmp_path):
    runset, out, _ = replayed
    reference = tmp_path / "reference.json"
    checked = 0
    for run, events in _r1_runs(runset):
        write_json(reference, build_bundle(run, events))
        assert (out / f"bundle_{run.run_id}.json").read_bytes() == reference.read_bytes()
        checked += 1
    assert checked >= 2


def test_replaying_an_r1_bundle_file_gives_its_runs_result(replayed, tmp_path):
    runset, out, results = replayed
    checked = 0
    for run, _ in _r1_runs(runset):
        one = tmp_path / run.run_id
        bundle = out / f"bundle_{run.run_id}.json"
        assert main(["replay", "--bundle", str(bundle), "--out", str(one)]) == EXIT_OK
        assert (one / "replay_results.jsonl").read_text(encoding="utf-8") == results[run.run_id] + "\n"
        checked += 1
    assert checked >= 2


def test_r1_bundle_copies_a_non_canonical_log_line_as_written(golden_tree, tmp_path):
    # A space after every colon of one event line: the log still decodes and
    # validates, and its R1 bundle carries that line as written, so its bytes
    # differ from the reference rendering while its document and its replay
    # do not.
    runs = tmp_path / "runs"
    shutil.copytree(golden_tree / "all" / "runs", runs)
    runset = load_runset(runs)
    run, events = next(_r1_runs(runset))
    expected = replay_run(build_bundle(run, events))
    reference = tmp_path / "reference.json"
    write_json(reference, build_bundle(run, events))

    log = runs / run.event_log_ref
    rows = log.read_text(encoding="utf-8").split("\n")
    rows[2] = rows[2].replace('":', '": ')
    log.write_text("\n".join(rows), encoding="utf-8")
    out = tmp_path / "replay"
    out.mkdir()
    results = replay_runset(load_runset(runs), out, "R1")
    written = (out / f"bundle_{run.run_id}.json").read_text(encoding="utf-8")

    assert rows[2] in written
    assert written != reference.read_text(encoding="utf-8")
    assert json.loads(written) == json.loads(reference.read_text(encoding="utf-8"))
    assert expected in results
    assert replay_run(load_bundle(out / f"bundle_{run.run_id}.json")) == expected


def test_r1_bundle_event_that_does_not_decode_is_invalid_bundle(web_manifest):
    record, events = _run(web_manifest, LLM)
    bundle = build_bundle(record, events)
    bundle.material["events"][3]["sequence"] = "3"
    with pytest.raises(ReplayError) as err:
        replay_run(bundle)
    assert (err.value.code, err.value.message) == (
        "invalid_bundle", "R1 material: TypeError: expected an integer, got '3'"
    )
    bundle.material["events"][3] = 7
    with pytest.raises(ReplayError) as err:
        replay_run(bundle)
    assert (err.value.code, err.value.message) == (
        "invalid_bundle",
        "R1 material: SchemaError: invalid_document: EventRecord: expected an object, got int",
    )
