"""Task manifests, release roots, freeze records, and release-binding checks.

A manifest is the release-time binding of one task; a release root is the
registry mapping task ids to manifest hashes. Storage is one file per manifest
plus one registry file per root, all in the same canonical text serialization
as event logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Final, Mapping

from .schema import Digest, GatebenchError, SCHEMA_VERSION, canonical_hash, canonical_json

if TYPE_CHECKING:  # pragma: no cover
    from .drivers import DriverRecord
    from .runner import RunRecord

FAMILIES: Final[frozenset[str]] = frozenset({"micro", "web", "code"})
RESET_CONTRACTS: Final[frozenset[str]] = frozenset(
    {"full_reset", "session_reset", "stateless"}
)

# Family-to-replay-class mapping: micro is summary replay, web is event-trace
# replay with evaluator freeze, code is snapshot/manifest replay.
FAMILY_REPLAY_CLASS: Final[dict[str, str]] = {
    "micro": "R0",
    "web": "R1",
    "code": "R2",
}

SUITE_VERSION: Final = "0.1.0"
REPLAY_HARNESS_VERSION: Final = "0.1.0"
DEFAULT_ADAPTER_VERSION: Final = "1.0.0"
DEFAULT_PARSER_VERSION: Final = "1.0.0"

# Fixed epoch for synthesized roots so init-root is byte-idempotent.
RELEASE_EPOCH: Final = "2026-01-01T00:00:00Z"


class ManifestError(GatebenchError):
    """Raised for unresolved or incomplete manifests and unsupported families."""


@dataclass(frozen=True, slots=True)
class TaskManifest:
    """Release-time binding of one task.

    The ``resolved`` marker is runtime state set by :func:`resolve_manifest`
    and is excluded from the canonical hash and from storage.
    """

    family: str
    task_id: str
    snapshot_ref: str
    reset_contract: str
    verifier_id: str
    adapter_version: str
    replay_class: str
    schema_version: str
    release_binding: str
    family_params: dict[str, Any] = field(default_factory=dict)
    resolved: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ManifestError("unsupported_family", f"unknown family {self.family!r}")
        if self.reset_contract not in RESET_CONTRACTS:
            raise ManifestError(
                "invalid_manifest", f"unknown reset contract {self.reset_contract!r}"
            )
        expected = FAMILY_REPLAY_CLASS[self.family]
        if self.replay_class != expected:
            raise ManifestError(
                "invalid_manifest",
                f"family {self.family} requires replay class {expected}, got {self.replay_class}",
            )

    def to_doc(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "task_id": self.task_id,
            "snapshot_ref": self.snapshot_ref,
            "reset_contract": self.reset_contract,
            "verifier_id": self.verifier_id,
            "adapter_version": self.adapter_version,
            "replay_class": self.replay_class,
            "schema_version": self.schema_version,
            "release_binding": self.release_binding,
            "family_params": dict(self.family_params),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TaskManifest":
        return cls(
            family=str(doc["family"]),
            task_id=str(doc["task_id"]),
            snapshot_ref=str(doc["snapshot_ref"]),
            reset_contract=str(doc["reset_contract"]),
            verifier_id=str(doc["verifier_id"]),
            adapter_version=str(doc["adapter_version"]),
            replay_class=str(doc["replay_class"]),
            schema_version=str(doc["schema_version"]),
            release_binding=str(doc["release_binding"]),
            family_params=dict(doc.get("family_params", {})),
        )

    def manifest_hash(self) -> Digest:
        return canonical_hash(self.to_doc())

    def snapshot_digest(self) -> Digest:
        return canonical_hash({"snapshot_ref": self.snapshot_ref, "task_id": self.task_id})


def make_manifest(
    family: str,
    task_id: str,
    release_binding: str,
    snapshot_ref: str | None = None,
    verifier_id: str | None = None,
    family_params: Mapping[str, Any] | None = None,
) -> TaskManifest:
    """Build a manifest with the family's standard reset and replay bindings."""

    if family not in FAMILIES:
        raise ManifestError("unsupported_family", f"unknown family {family!r}")
    reset = {"micro": "stateless", "web": "session_reset", "code": "full_reset"}[family]
    params: dict[str, Any] = dict(family_params or {})
    if family == "code":
        params.setdefault("repo_state", f"repo:{task_id}")
        params.setdefault("patch_semantics", "unified_diff")
        params.setdefault("test_command", "run-suite")
        params.setdefault("verifier_version", "1.0.0")
    elif family == "web":
        params.setdefault("session_config", "default-session")
        params.setdefault("evaluator_semantics", "final_state")
        params.setdefault("exec_mode", "replay")
    else:
        params.setdefault("collector_config", "default-collector")
    return TaskManifest(
        family=family,
        task_id=task_id,
        snapshot_ref=snapshot_ref or f"snapshot:{family}:{task_id}",
        reset_contract=reset,
        verifier_id=verifier_id or f"verifier:{family}:1",
        adapter_version=DEFAULT_ADAPTER_VERSION,
        replay_class=FAMILY_REPLAY_CLASS[family],
        schema_version=SCHEMA_VERSION,
        release_binding=release_binding,
        family_params=params,
    )


@dataclass(frozen=True, slots=True)
class ReleaseRoot:
    """Versioned registry mapping task ids to manifest hashes."""

    root_id: str
    registry: dict[str, str]
    created_at: str = RELEASE_EPOCH

    def to_doc(self) -> dict[str, Any]:
        return {
            "root_id": self.root_id,
            "registry": dict(self.registry),
            "created_at": self.created_at,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ReleaseRoot":
        return cls(
            root_id=str(doc["root_id"]),
            registry={str(k): str(v) for k, v in doc["registry"].items()},
            created_at=str(doc["created_at"]),
        )


class ManifestStore:
    """One-file-per-manifest store rooted at a directory.

    Reads are shared; writes go through :meth:`save` which fully rewrites the
    target file. The registry file of a release root lives alongside.
    """

    REGISTRY_FILE: Final = "release_root.json"

    def __init__(self, root_dir: Path | str) -> None:
        self.root_dir = Path(root_dir)

    def manifest_path(self, task_id: str) -> Path:
        return self.root_dir / f"manifest_{task_id}.json"

    def save(self, manifest: TaskManifest) -> Path:
        self.root_dir.mkdir(parents=True, exist_ok=True)
        path = self.manifest_path(manifest.task_id)
        path.write_text(canonical_json(manifest.to_doc()) + "\n", encoding="utf-8")
        return path

    def load(self, task_id: str) -> TaskManifest:
        path = self.manifest_path(task_id)
        if not path.exists():
            raise ManifestError("unresolved_manifest", f"no manifest file for {task_id!r}")
        doc = json.loads(path.read_text(encoding="utf-8"))
        return TaskManifest.from_doc(doc)

    def save_root(self, root: ReleaseRoot) -> Path:
        self.root_dir.mkdir(parents=True, exist_ok=True)
        path = self.root_dir / self.REGISTRY_FILE
        path.write_text(canonical_json(root.to_doc()) + "\n", encoding="utf-8")
        return path

    def load_root(self) -> ReleaseRoot:
        path = self.root_dir / self.REGISTRY_FILE
        if not path.exists():
            raise ManifestError("unresolved_manifest", f"no release root at {path}")
        return ReleaseRoot.from_doc(json.loads(path.read_text(encoding="utf-8")))


def publish_release(
    store: ManifestStore, root_id: str, manifests: list[TaskManifest],
    created_at: str = RELEASE_EPOCH,
) -> ReleaseRoot:
    """Save manifests and publish the registry binding them to one root."""

    registry: dict[str, str] = {}
    for manifest in manifests:
        if manifest.task_id in registry:
            raise ManifestError(
                "invalid_manifest", f"duplicate task_id {manifest.task_id!r} in release"
            )
        store.save(manifest)
        registry[manifest.task_id] = manifest.manifest_hash().hex
    root = ReleaseRoot(root_id=root_id, registry=registry, created_at=created_at)
    store.save_root(root)
    return root


def resolve_manifest(task_id: str, root: ReleaseRoot, store: ManifestStore) -> TaskManifest:
    """Load the manifest for ``task_id`` and verify it against the registry."""

    if task_id not in root.registry:
        raise ManifestError("unresolved_manifest", f"task {task_id!r} not in release root")
    manifest = store.load(task_id)
    actual = manifest.manifest_hash().hex
    expected = root.registry[task_id]
    if actual != expected:
        raise ManifestError(
            "registry_hash_mismatch",
            f"manifest for {task_id!r} hashes to {actual[:12]}…, registry has {expected[:12]}…",
        )
    return replace(manifest, resolved=True)


# ---------------------------------------------------------------------------
# Freeze records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SuiteVersions:
    """Version set stamped onto freeze records at release time."""

    suite_version: str = SUITE_VERSION
    schema_version: str = SCHEMA_VERSION
    replay_harness_version: str = REPLAY_HARNESS_VERSION
    seed_policy: str = "fixed-per-entry"


@dataclass(frozen=True, slots=True)
class FreezeRecord:
    """Release-time version binding for one run.

    Construction is permissive so tampered or legacy records stay loadable
    for forensics; completeness is enforced by :func:`freeze_run` when records
    are created and by :func:`verify_binding` when they are checked.
    """

    suite_version: str
    manifest_hash: Digest
    driver_id: str
    driver_version: str
    parser_version: str
    snapshot_digest: Digest
    verifier_version: str
    schema_version: str
    replay_harness_version: str
    setting_label: str
    seed_policy: str
    model_backend_id: str | None = None
    prompt_template_hash: Digest | None = None
    repo_commit: str | None = None

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "suite_version": self.suite_version,
            "manifest_hash": self.manifest_hash.to_doc(),
            "driver_id": self.driver_id,
            "driver_version": self.driver_version,
            "parser_version": self.parser_version,
            "snapshot_digest": self.snapshot_digest.to_doc(),
            "verifier_version": self.verifier_version,
            "schema_version": self.schema_version,
            "replay_harness_version": self.replay_harness_version,
            "setting_label": self.setting_label,
            "seed_policy": self.seed_policy,
        }
        if self.model_backend_id is not None:
            doc["model_backend_id"] = self.model_backend_id
        if self.prompt_template_hash is not None:
            doc["prompt_template_hash"] = self.prompt_template_hash.to_doc()
        if self.repo_commit is not None:
            doc["repo_commit"] = self.repo_commit
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "FreezeRecord":
        return cls(
            suite_version=str(doc["suite_version"]),
            manifest_hash=Digest.from_doc(doc["manifest_hash"]),
            driver_id=str(doc["driver_id"]),
            driver_version=str(doc["driver_version"]),
            parser_version=str(doc["parser_version"]),
            snapshot_digest=Digest.from_doc(doc["snapshot_digest"]),
            verifier_version=str(doc["verifier_version"]),
            schema_version=str(doc["schema_version"]),
            replay_harness_version=str(doc["replay_harness_version"]),
            setting_label=str(doc["setting_label"]),
            seed_policy=str(doc["seed_policy"]),
            model_backend_id=(
                str(doc["model_backend_id"]) if "model_backend_id" in doc else None
            ),
            prompt_template_hash=(
                Digest.from_doc(doc["prompt_template_hash"])
                if "prompt_template_hash" in doc
                else None
            ),
            repo_commit=str(doc["repo_commit"]) if "repo_commit" in doc else None,
        )


def freeze_run(
    manifest: TaskManifest,
    driver: "DriverRecord",
    setting_label: str,
    versions: SuiteVersions | None = None,
) -> FreezeRecord:
    """Bind one run to its release-time versions; deterministic in its inputs."""

    versions = versions or SuiteVersions()
    verifier_version = str(manifest.family_params.get("verifier_version", "") or "")
    if manifest.family == "code" and not verifier_version:
        raise ManifestError(
            "incomplete_freeze", f"code manifest {manifest.task_id} lacks verifier_version"
        )
    if not verifier_version:
        verifier_version = "1.0.0"
    for name, value in (
        ("driver_id", driver.driver_id),
        ("driver_version", driver.driver_version),
        ("parser_version", driver.parser_version),
        ("setting_label", setting_label),
    ):
        if not value:
            raise ManifestError("incomplete_freeze", f"freeze field {name} is empty")
    return FreezeRecord(
        suite_version=versions.suite_version,
        manifest_hash=manifest.manifest_hash(),
        driver_id=driver.driver_id,
        driver_version=driver.driver_version,
        parser_version=driver.parser_version,
        snapshot_digest=manifest.snapshot_digest(),
        verifier_version=verifier_version,
        schema_version=versions.schema_version,
        replay_harness_version=versions.replay_harness_version,
        setting_label=setting_label,
        seed_policy=versions.seed_policy,
        model_backend_id=driver.model_backend_id,
        prompt_template_hash=driver.prompt_template_hash,
        repo_commit=(
            str(manifest.family_params["repo_state"])
            if manifest.family == "code" and "repo_state" in manifest.family_params
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Release-binding verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BindingStatus:
    bound: bool
    violations: tuple[str, ...] = ()


_FREEZE_VERSION_FIELDS: Final[tuple[str, ...]] = (
    "suite_version",
    "driver_version",
    "parser_version",
    "verifier_version",
    "schema_version",
    "replay_harness_version",
)


def verify_binding(run: "RunRecord", root: ReleaseRoot) -> BindingStatus:
    """Check a run's freeze record against a release root.

    Bound means the frozen manifest hash is registered and every version
    field is populated; violations are returned, never raised.
    """

    violations: list[str] = []
    freeze = run.freeze
    if freeze is None:
        return BindingStatus(bound=False, violations=("missing_replay_freeze",))
    if freeze.manifest_hash.hex not in root.registry.values():
        violations.append("snapshot_mismatch")
    for name in _FREEZE_VERSION_FIELDS:
        if not getattr(freeze, name):
            violations.append(f"missing_{name}")
    if violations:
        return BindingStatus(bound=False, violations=tuple(violations))
    return BindingStatus(bound=True)


__all__ = [
    "BindingStatus",
    "DEFAULT_PARSER_VERSION",
    "FAMILIES",
    "FAMILY_REPLAY_CLASS",
    "FreezeRecord",
    "ManifestError",
    "ManifestStore",
    "RELEASE_EPOCH",
    "REPLAY_HARNESS_VERSION",
    "ReleaseRoot",
    "SUITE_VERSION",
    "SuiteVersions",
    "TaskManifest",
    "freeze_run",
    "make_manifest",
    "publish_release",
    "resolve_manifest",
    "verify_binding",
]
