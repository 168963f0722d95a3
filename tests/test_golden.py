"""Golden digests: the demo pipeline, its replay and the study grid, byte for byte.

Runs ``init-root``, ``all`` on the demo plan, ``replay`` of the demo runset,
and ``study`` on the default grid, then compares the sha256 of every output
file with the values pinned in ``golden_digests.json``. The outputs do not
depend on the output directory. Any change to these bytes is a change to the
artifacts and must be deliberate: regenerate the file and say why in the
change log.

The digests pin the write side only. The decode side is pinned by reading
every artifact a loader reads back and re-encoding it to the same bytes, and
by the keys each record requires on decode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from gatebench.drivers import DriverRecord, SyntheticLlmProfile
from gatebench.gate import GateDecision, GateReport, load_decisions
from gatebench.manifest import FreezeRecord, ManifestStore, ReleaseRoot, TaskManifest
from gatebench.replay import ReplayBundle, ReplayResult, load_bundle
from gatebench.report import (
    ClaimMatrix,
    DecisionCell,
    DecisionStudyReport,
    InvalidActionReport,
    load_study_report,
)
from gatebench.runner import (
    DriverSpec,
    EpisodeSummary,
    PlanEntry,
    RewardPoint,
    RunPlan,
    RunRecord,
    RunSet,
    load_plan,
    load_runset,
)
from gatebench.schema import (
    Digest,
    EventRecord,
    ProvenanceFields,
    SchemaError,
    TimingFields,
    TraceContext,
    canonical_json,
    read_event_log,
    render_record,
)
from gatebench.simenv import TerminalOutcome

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _tree_digests(base: Path) -> dict[str, str]:
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def test_demo_pipeline_and_study_match_golden_digests(golden_tree):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = _tree_digests(golden_tree)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(name for name in expected if actual[name] != expected[name])
    assert mismatched == []


def _document(doc) -> str:
    return canonical_json(doc) + "\n"


def _lines(docs) -> str:
    return "\n".join(canonical_json(doc) for doc in docs) + "\n"


def _reencode_log(path: Path) -> str:
    version, events = read_event_log(path)
    return _lines([{"schema_version": version}, *(e.to_doc() for e in events)])


# What each loader reads back, keyed by file name pattern, re-encoded the way
# the writer encodes it.
_REENCODERS = {
    "demo_plan.json": lambda p: _document(load_plan(p).to_doc()),
    "manifest_*.json": lambda p: _document(
        ManifestStore(p.parent).load(p.stem[len("manifest_"):]).to_doc()
    ),
    "release_root.json": lambda p: _document(ManifestStore(p.parent).load_root().to_doc()),
    "runset.json": lambda p: _document(load_runset(p).to_doc()),
    "gate_report*.json": lambda p: _document(
        GateReport.from_doc(json.loads(p.read_text(encoding="utf-8"))).to_doc()
    ),
    "gate_decisions.jsonl": lambda p: _lines(d.to_doc() for d in load_decisions(p)),
    "bundle_*.json": lambda p: _document(load_bundle(p).to_doc()),
    "decision_study.json": lambda p: _document(load_study_report(p).to_doc()),
    "*.log": _reencode_log,
}


def test_every_artifact_read_back_reencodes_to_its_bytes(golden_tree):
    checked = {pattern: 0 for pattern in _REENCODERS}
    for path in sorted(golden_tree.rglob("*")):
        pattern = next((p for p in _REENCODERS if path.match(p)), None)
        if pattern is None:
            continue
        assert _REENCODERS[pattern](path) == path.read_text(encoding="utf-8"), path
        checked[pattern] += 1
    assert checked.pop("*.log") > 17
    assert checked == {
        "demo_plan.json": 1,
        "manifest_*.json": 9,
        "release_root.json": 2,
        "runset.json": 2,
        "gate_report*.json": 4,
        "gate_decisions.jsonl": 2,
        "bundle_*.json": 17,
        "decision_study.json": 1,
    }


# The record class of every record file in the trees, by file name pattern; a
# ``.jsonl`` file holds one record per line.
_RECORD_FILES = {
    "demo_plan.json": RunPlan,
    "manifest_*.json": TaskManifest,
    "release_root.json": ReleaseRoot,
    "runset.json": RunSet,
    "gate_report*.json": GateReport,
    "gate_decisions.jsonl": GateDecision,
    "bundle_*.json": ReplayBundle,
    "replay_results.jsonl": ReplayResult,
    "invalid_actions.json": InvalidActionReport,
    "decision_study.json": DecisionStudyReport,
    "claim_matrix.json": ClaimMatrix,
}


def test_renderer_equals_the_reference_on_every_record_and_event(golden_tree):
    checked = dict.fromkeys(_RECORD_FILES, 0)
    events = 0
    for path in sorted(golden_tree.rglob("*")):
        pattern = next((p for p in _RECORD_FILES if path.match(p)), None)
        if pattern is None and path.suffix != ".log":
            continue
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        if pattern is None:
            _, records = read_event_log(path)
            lines = lines[1:]
            events += len(records)
        else:
            records = [_RECORD_FILES[pattern].from_doc(json.loads(line)) for line in lines]
            checked[pattern] += 1
        for record, line in zip(records, lines, strict=True):
            assert render_record(record) == canonical_json(record.to_doc()) == line, path
    assert events > 2000
    assert checked == {
        "demo_plan.json": 1,
        "manifest_*.json": 9,
        "release_root.json": 2,
        "runset.json": 2,
        "gate_report*.json": 4,
        "gate_decisions.jsonl": 2,
        "bundle_*.json": 17,
        "replay_results.jsonl": 1,
        "invalid_actions.json": 1,
        "decision_study.json": 1,
        "claim_matrix.json": 1,
    }


def _record_docs(golden_tree):
    """(record class, document) for every record kind the artifacts store."""

    def read(*parts):
        return json.loads(golden_tree.joinpath(*parts).read_text(encoding="utf-8"))

    plan = read("root", "demo_plan.json")
    run = next(r for r in read("all", "runs", "runset.json")["runs"] if "terminal" in r)
    study = read("study", "decision_study.json")
    bundle = next(golden_tree.joinpath("replay").glob("bundle_*.json"))
    log = next(golden_tree.joinpath("all", "runs", "logs").glob("*.log"))
    event = json.loads(log.read_text(encoding="utf-8").split("\n")[2])
    llm = plan["drivers"]["synthetic-llm"]
    return [
        (RunPlan, plan), (PlanEntry, plan["entries"][0]), (DriverSpec, llm),
        (SyntheticLlmProfile, llm["profile"]),
        (TaskManifest, read("root", "manifest_code-001.json")),
        (ReleaseRoot, read("root", "release_root.json")),
        (RunRecord, run), (DriverRecord, run["driver"]), (FreezeRecord, run["freeze"]),
        (TerminalOutcome, run["terminal"]), (EpisodeSummary, run["episode_summaries"][0]),
        (RewardPoint, run["reward_trajectory"][0]), (Digest, run["manifest_hash"]),
        (GateReport, read("all", "gate", "gate_report.json")),
        (GateDecision, json.loads(
            golden_tree.joinpath("all", "gate", "gate_decisions.jsonl").read_text().splitlines()[0]
        )),
        (ReplayBundle, json.loads(bundle.read_text(encoding="utf-8"))),
        (DecisionStudyReport, study), (DecisionCell, study["cells"][0]),
        (EventRecord, event), (TraceContext, event["trace"]), (TimingFields, event["timing"]),
        (ProvenanceFields, event["provenance"]),
    ]


def test_only_five_defaulted_keys_are_required_on_decode(golden_tree):
    required = set()
    for cls, doc in _record_docs(golden_tree):
        defaulted = {
            f.metadata.get("key") or f.name
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        }
        for key in sorted(defaulted & set(doc)):
            try:
                cls.from_doc({k: v for k, v in doc.items() if k != key})
            except SchemaError as exc:
                assert exc.code == "invalid_document"
                assert exc.message == f"{cls.__name__}.{key}: missing required key"
                required.add(f"{cls.__name__}.{key}")
    assert required == {
        "EventRecord.payload",
        "ReleaseRoot.created_at",
        "ReplayBundle.harness_version",
        "TimingFields.queue_wait_ms",
        "TimingFields.service_time_ms",
    }
