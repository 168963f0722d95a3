from __future__ import annotations

import pytest

from gatebench.cli import EXIT_OK, main
from gatebench.demo import build_demo_plan, build_demo_release
from gatebench.manifest import ManifestStore, resolve_manifest
from gatebench.runner import run_plan


@pytest.fixture()
def demo_store(tmp_path):
    store = ManifestStore(tmp_path / "root")
    build_demo_release(store)
    return store


@pytest.fixture()
def demo_root(demo_store):
    return demo_store.load_root()


@pytest.fixture()
def micro_manifest(demo_store, demo_root):
    return resolve_manifest("micro-001", demo_root, demo_store)


@pytest.fixture()
def web_manifest(demo_store, demo_root):
    return resolve_manifest("web-001", demo_root, demo_store)


@pytest.fixture()
def code_manifest(demo_store, demo_root):
    return resolve_manifest("code-001", demo_root, demo_store)


@pytest.fixture(scope="session")
def demo_runset(tmp_path_factory):
    """One executed demo plan shared by read-only tests."""

    base = tmp_path_factory.mktemp("demo-pipeline")
    store = ManifestStore(base / "root")
    build_demo_release(store)
    plan = build_demo_plan()
    return run_plan(plan, store, out_dir=base / "runs"), store


@pytest.fixture(scope="session")
def golden_tree(tmp_path_factory):
    """The demo release, its pipeline, its replay and the study, as the CLI writes them."""

    base = tmp_path_factory.mktemp("golden")
    root = base / "root"
    assert main(["init-root", "--out", str(root)]) == EXIT_OK
    assert main([
        "all", "--plan", str(root / "demo_plan.json"), "--release-root", str(root),
        "--out", str(base / "all"),
    ]) == EXIT_OK
    assert main([
        "replay", "--runset", str(base / "all" / "runs"), "--out", str(base / "replay"),
    ]) == EXIT_OK
    assert main(["study", "--out", str(base / "study")]) == EXIT_OK
    return base
