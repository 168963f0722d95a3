"""Task manifests, release roots, freeze records, and release-binding checks.

A manifest is the release-time binding of one task; a release root is the
registry mapping task ids to manifest hashes. Storage is one file per manifest
plus one registry file per root, all in the same canonical text serialization
as event logs.
"""

from __future__ import annotations

from dataclasses import field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Final, Mapping

from .records import record
from .schema import (
    SCHEMA_VERSION,
    Digest,
    GatebenchError,
    Record,
    canonical_hash,
    doc_field,
    read_json,
    render_record,
    text_hash,
    write_json,
)

if TYPE_CHECKING:  # pragma: no cover
    from .drivers import DriverRecord
    from .runner import RunRecord


@record
class Family:
    """What a workload family fixes: replay class, reset contract, default
    ``family_params``, default goal and step service time (``family_params``
    may override both), and a verification's service demand. The times are
    order-of-magnitude configuration values, not measured claims."""

    replay_class: str
    reset_contract: str
    params: dict[str, str]
    goal: int
    base_service_ms: float
    verify_base_ms: float


# The one table of family facts; every module reads a family's from here.
FAMILIES: Final[dict[str, Family]] = {
    "micro": Family("R0", "stateless", {"collector_config": "default-collector"}, 3, 15.0, 5.0),
    "web": Family("R1", "session_reset", {"session_config": "default-session",
                  "evaluator_semantics": "final_state", "exec_mode": "replay"}, 5, 75.0, 300.0),
    "code": Family("R2", "full_reset", {"patch_semantics": "unified_diff",
                   "test_command": "run-suite", "verifier_version": "1.0.0"}, 1, 200.0, 350.0),
}
RESET_CONTRACTS: Final = frozenset(family.reset_contract for family in FAMILIES.values())

SUITE_VERSION: Final = "0.1.0"
REPLAY_HARNESS_VERSION: Final = "0.1.0"
DEFAULT_ADAPTER_VERSION: Final = "1.0.0"
DEFAULT_PARSER_VERSION: Final = "1.0.0"

# Fixed epoch for synthesized roots so init-root is byte-idempotent.
RELEASE_EPOCH: Final = "2026-01-01T00:00:00Z"


class ManifestError(GatebenchError):
    """Raised for unresolved or incomplete manifests and unsupported families."""


@record
class TaskManifest(Record):
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
    resolved: bool = doc_field(default=False, stored=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ManifestError("unsupported_family", f"unknown family {self.family!r}")
        if self.reset_contract not in RESET_CONTRACTS:
            raise ManifestError(
                "invalid_manifest", f"unknown reset contract {self.reset_contract!r}"
            )
        expected = FAMILIES[self.family].replay_class
        if self.replay_class != expected:
            raise ManifestError(
                "invalid_manifest",
                f"family {self.family} requires replay class {expected}, got {self.replay_class}",
            )

    def manifest_hash(self) -> Digest:
        return text_hash(render_record(self))

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
    spec = FAMILIES[family]
    params: dict[str, Any] = {**spec.params, **(family_params or {})}
    if family == "code":
        params.setdefault("repo_state", f"repo:{task_id}")
    return TaskManifest(
        family=family,
        task_id=task_id,
        snapshot_ref=snapshot_ref or f"snapshot:{family}:{task_id}",
        reset_contract=spec.reset_contract,
        verifier_id=verifier_id or f"verifier:{family}:1",
        adapter_version=DEFAULT_ADAPTER_VERSION,
        replay_class=spec.replay_class,
        schema_version=SCHEMA_VERSION,
        release_binding=release_binding,
        family_params=params,
    )


@record
class ReleaseRoot(Record):
    """Versioned registry mapping task ids to manifest hashes."""

    root_id: str
    registry: dict[str, str]
    created_at: str = doc_field(default=RELEASE_EPOCH, required=True)


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
        write_json(path, manifest)
        return path

    def load(self, task_id: str) -> TaskManifest:
        path = self.manifest_path(task_id)
        if not path.exists():
            raise ManifestError("unresolved_manifest", f"no manifest file for {task_id!r}")
        doc = read_json(path, ManifestError, "unresolved_manifest", "invalid_manifest")
        return TaskManifest.from_doc(doc)

    def save_root(self, root: ReleaseRoot) -> Path:
        self.root_dir.mkdir(parents=True, exist_ok=True)
        path = self.root_dir / self.REGISTRY_FILE
        write_json(path, root)
        return path

    def load_root(self) -> ReleaseRoot:
        path = self.root_dir / self.REGISTRY_FILE
        if not path.exists():
            raise ManifestError("unresolved_manifest", f"no release root at {path}")
        doc = read_json(path, ManifestError, "unresolved_manifest", "invalid_manifest")
        return ReleaseRoot.from_doc(doc)


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


@record
class FreezeRecord(Record):
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


def freeze_run(
    manifest: TaskManifest,
    driver: "DriverRecord",
    setting_label: str,
    manifest_hash: Digest,
) -> FreezeRecord:
    """Bind one run to its release-time versions; deterministic in its inputs.

    ``manifest_hash`` is ``manifest.manifest_hash()``, which the caller has
    already computed.
    """

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
        suite_version=SUITE_VERSION,
        manifest_hash=manifest_hash,
        driver_id=driver.driver_id,
        driver_version=driver.driver_version,
        parser_version=driver.parser_version,
        snapshot_digest=manifest.snapshot_digest(),
        verifier_version=verifier_version,
        schema_version=SCHEMA_VERSION,
        replay_harness_version=REPLAY_HARNESS_VERSION,
        setting_label=setting_label,
        seed_policy="fixed-per-entry",
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


FREEZE_VERSION_FIELDS: Final[tuple[str, ...]] = (
    "suite_version",
    "driver_version",
    "parser_version",
    "verifier_version",
    "schema_version",
    "replay_harness_version",
)


def verify_binding(run: "RunRecord", root: ReleaseRoot) -> tuple[str, ...]:
    """Check a run's freeze record against a release root.

    Returns every binding violation's code, empty when the run is bound: its
    frozen manifest hash is registered and every version field is populated.
    Violations are returned, never raised.
    """

    freeze = run.freeze
    if freeze is None:
        return ("missing_replay_freeze",)
    violations: list[str] = []
    if freeze.manifest_hash.hex not in root.registry.values():
        violations.append("snapshot_mismatch")
    for name in FREEZE_VERSION_FIELDS:
        if not getattr(freeze, name):
            violations.append(f"missing_{name}")
    return tuple(violations)


__all__ = [
    "DEFAULT_PARSER_VERSION",
    "FAMILIES",
    "FREEZE_VERSION_FIELDS",
    "Family",
    "FreezeRecord",
    "ManifestError",
    "ManifestStore",
    "RELEASE_EPOCH",
    "REPLAY_HARNESS_VERSION",
    "ReleaseRoot",
    "SUITE_VERSION",
    "TaskManifest",
    "freeze_run",
    "make_manifest",
    "publish_release",
    "resolve_manifest",
    "verify_binding",
]
