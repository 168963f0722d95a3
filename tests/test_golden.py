"""Golden digests: the demo pipeline, its replay and the study grid, byte for byte.

Runs ``init-root``, ``all`` on the demo plan, ``replay`` of the demo runset,
and ``study`` on the default grid, then compares the sha256 of every output
file with the values pinned in ``golden_digests.json``. The outputs do not
depend on the output directory. Any change to these bytes is a change to the
artifacts and must be deliberate: regenerate the file and say why in the
change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gatebench.cli import EXIT_OK, main

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _tree_digests(base: Path) -> dict[str, str]:
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def test_demo_pipeline_and_study_match_golden_digests(tmp_path):
    root = tmp_path / "root"
    assert main(["init-root", "--out", str(root)]) == EXIT_OK
    assert main([
        "all", "--plan", str(root / "demo_plan.json"), "--release-root", str(root),
        "--out", str(tmp_path / "all"),
    ]) == EXIT_OK
    assert main([
        "replay", "--runset", str(tmp_path / "all" / "runs"), "--out", str(tmp_path / "replay"),
    ]) == EXIT_OK
    assert main(["study", "--out", str(tmp_path / "study")]) == EXIT_OK

    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = _tree_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(name for name in expected if actual[name] != expected[name])
    assert mismatched == []
