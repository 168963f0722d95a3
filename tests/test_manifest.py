from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from gatebench.manifest import (
    FAMILIES,
    FreezeRecord,
    ManifestError,
    ManifestStore,
    TaskManifest,
    freeze_run,
    make_manifest,
    publish_release,
    resolve_manifest,
    verify_binding,
)
from gatebench.runner import DriverSpec, execute_run
from gatebench.simenv import clean_setting


def spec_for(driver_type: str = "scripted") -> DriverSpec:
    return DriverSpec(name="driver-x", driver_type=driver_type)


def driver_record(budget: int = 5):
    return spec_for().record(seed=3, setting_label="clean", budget=budget)


# ---------------------------------------------------------------------------
# resolve_manifest
# ---------------------------------------------------------------------------


def test_resolve_happy_path(demo_store, demo_root):
    manifest = resolve_manifest("micro-001", demo_root, demo_store)
    assert manifest.resolved
    assert manifest.family == "micro"


def test_resolve_absent_task(demo_store, demo_root):
    with pytest.raises(ManifestError) as err:
        resolve_manifest("no-such-task", demo_root, demo_store)
    assert err.value.code == "unresolved_manifest"


def test_resolve_detects_tampered_manifest(tmp_path):
    store = ManifestStore(tmp_path)
    manifest = make_manifest("web", "web-x", "root-x")
    root = publish_release(store, "root-x", [manifest])

    path = store.manifest_path("web-x")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["snapshot_ref"] = doc["snapshot_ref"] + "-tampered"
    path.write_text(json.dumps(doc), encoding="utf-8")

    with pytest.raises(ManifestError) as err:
        resolve_manifest("web-x", root, store)
    assert err.value.code == "registry_hash_mismatch"


def test_manifest_round_trip_preserves_hash(demo_store, micro_manifest):
    demo_store.save(micro_manifest)
    reloaded = demo_store.load(micro_manifest.task_id)
    assert reloaded.to_doc() == micro_manifest.to_doc()
    assert reloaded.manifest_hash() == micro_manifest.manifest_hash()


def test_resolved_marker_excluded_from_hash(micro_manifest):
    import dataclasses

    unresolved = dataclasses.replace(micro_manifest, resolved=False)
    assert unresolved.manifest_hash() == micro_manifest.manifest_hash()


@given(
    family=st.sampled_from(["micro", "web", "code"]),
    task=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=12
    ),
    goal=st.integers(min_value=1, max_value=20),
)
def test_family_replay_class_mapping_holds(family, task, goal):
    manifest = make_manifest(family, task, "root", family_params={"goal": goal})
    assert manifest.replay_class == FAMILIES[family].replay_class


def test_wrong_replay_class_rejected():
    with pytest.raises(ManifestError):
        TaskManifest(
            family="micro",
            task_id="t",
            snapshot_ref="s",
            reset_contract="stateless",
            verifier_id="v",
            adapter_version="1.0.0",
            replay_class="R2",
            schema_version="1.0.0",
            release_binding="root",
        )


# ---------------------------------------------------------------------------
# freeze_run
# ---------------------------------------------------------------------------


def test_freeze_copies_setting_label(web_manifest):
    freeze = freeze_run(
        web_manifest, driver_record(), "clean", web_manifest.manifest_hash()
    )
    assert freeze.setting_label == "clean"
    assert freeze.manifest_hash == web_manifest.manifest_hash()


def test_freeze_deterministic_bytes(web_manifest):
    from gatebench.schema import canonical_json

    manifest_hash = web_manifest.manifest_hash()
    first = freeze_run(web_manifest, driver_record(), "clean", manifest_hash)
    second = freeze_run(web_manifest, driver_record(), "clean", manifest_hash)
    assert canonical_json(first.to_doc()) == canonical_json(second.to_doc())


def test_freeze_requires_verifier_version_for_code(demo_store, demo_root):
    manifest = resolve_manifest("code-001", demo_root, demo_store)
    params = dict(manifest.family_params)
    params["verifier_version"] = ""
    import dataclasses

    broken = dataclasses.replace(manifest, family_params=params)
    with pytest.raises(ManifestError) as err:
        freeze_run(broken, driver_record(), "clean", broken.manifest_hash())
    assert err.value.code == "incomplete_freeze"


def test_freeze_round_trip():
    manifest = make_manifest("code", "code-x", "root-x")
    freeze = freeze_run(manifest, driver_record(), "clean", manifest.manifest_hash())
    assert FreezeRecord.from_doc(freeze.to_doc()) == freeze


# ---------------------------------------------------------------------------
# verify_binding
# ---------------------------------------------------------------------------


def _executed_run(demo_store, demo_root, task_id="micro-001"):
    manifest = resolve_manifest(task_id, demo_root, demo_store)
    record, _ = execute_run(
        manifest, spec_for(), clean_setting(), seed=5, budget=5, planned_episodes=2
    )
    return record


def test_binding_bound_for_registered_run(demo_store, demo_root):
    run = _executed_run(demo_store, demo_root)
    assert verify_binding(run, demo_root) == ()


def test_binding_snapshot_mismatch_for_unregistered_hash(demo_store, demo_root):
    import dataclasses

    run = _executed_run(demo_store, demo_root)
    foreign = make_manifest("micro", "other-task", "other-root")
    tampered = dataclasses.replace(
        run, freeze=freeze_run(foreign, run.driver, "clean", foreign.manifest_hash())
    )
    assert "snapshot_mismatch" in verify_binding(tampered, demo_root)


def test_binding_missing_schema_version(demo_store, demo_root):
    import dataclasses

    run = _executed_run(demo_store, demo_root)
    weak_freeze = dataclasses.replace(run.freeze, schema_version="")
    violations = verify_binding(dataclasses.replace(run, freeze=weak_freeze), demo_root)
    assert "missing_schema_version" in violations


def test_binding_missing_freeze(demo_store, demo_root):
    import dataclasses

    run = _executed_run(demo_store, demo_root)
    violations = verify_binding(dataclasses.replace(run, freeze=None), demo_root)
    assert violations == ("missing_replay_freeze",)


def test_publish_rejects_duplicate_task_ids(tmp_path):
    store = ManifestStore(tmp_path)
    manifest = make_manifest("micro", "dup", "root-d")
    with pytest.raises(ManifestError):
        publish_release(store, "root-d", [manifest, manifest])
