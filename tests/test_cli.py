from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gatebench import runner
from gatebench.cli import EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from gatebench.drivers import DriverError


def _tree_bytes(base: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(base)): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def root_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-root")
    assert main(["init-root", "--out", str(base)]) == EXIT_OK
    return base


def test_init_root_idempotent(tmp_path):
    out = tmp_path / "root"
    assert main(["init-root", "--out", str(out)]) == EXIT_OK
    snapshot = _tree_bytes(out)
    assert main(["init-root", "--out", str(out)]) == EXIT_OK
    assert _tree_bytes(out) == snapshot


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["run", "--plan", "x.json"])
    assert err.value.code == EXIT_USAGE


def test_run_gate_report_pipeline(root_dir, tmp_path):
    runs = tmp_path / "runs"
    plan = root_dir / "demo_plan.json"
    assert main([
        "run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(runs),
    ]) == EXIT_OK
    assert (runs / "runset.json").exists()
    assert (runs / "logs").is_dir()

    gate_out = tmp_path / "gate"
    assert main([
        "gate", "--runset", str(runs), "--release-root", str(root_dir),
        "--out", str(gate_out),
    ]) == EXIT_OK
    report_doc = json.loads((gate_out / "gate_report.json").read_text())
    assert report_doc["excluded"] >= 1  # fixture + stressed + candidate rows
    assert report_doc["by_reason"].get("fixture_only_provenance", 0) >= 1

    report_out = tmp_path / "report"
    assert main([
        "report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(report_out),
    ]) == EXIT_OK
    assert (report_out / "claim_matrix.json").exists()
    assert (report_out / "latency_tables.txt").exists()


def test_all_chains_and_emits_decision_claim_row(root_dir, tmp_path):
    out = tmp_path / "pipeline"
    plan = root_dir / "demo_plan.json"
    assert main([
        "all", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(out),
    ]) == EXIT_OK
    matrix = json.loads((out / "report" / "claim_matrix.json").read_text())
    claims = {row["claim"]: row["status"] for row in matrix["rows"]}
    # End-to-end smoke expectation, pinned after the first demo-plan run.
    assert claims == {
        "substrate_evidence_gate": "supported",
        "real_task_anchors": "supported",
        "llm_driver_traffic": "supported",
        "verifier_controls": "supported",
        "replay_fidelity": "supported",
        "throughput_scaling": "supported",
        "stronger_driver_sanity": "appendix_only",
        "controller_decision_study": "not_claimed",
    }


def test_study_outputs_byte_identical(tmp_path):
    first = tmp_path / "s1"
    second = tmp_path / "s2"
    assert main(["study", "--out", str(first), "--seed-base", "0"]) == EXIT_OK
    assert main(["study", "--out", str(second), "--seed-base", "0"]) == EXIT_OK
    assert _tree_bytes(first) == _tree_bytes(second)
    study_doc = json.loads((first / "decision_study.json").read_text())
    assert study_doc["reversal_cells"] == study_doc["comparable_cells"] == 12
    assert study_doc["blocked"] == 0


def test_study_feeds_report_decision_claim(root_dir, tmp_path):
    study_out = tmp_path / "study"
    assert main(["study", "--out", str(study_out)]) == EXIT_OK

    out = tmp_path / "pipeline"
    plan = root_dir / "demo_plan.json"
    assert main([
        "all", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(out),
        "--study", str(study_out / "decision_study.json"),
    ]) == EXIT_OK
    matrix = json.loads((out / "report" / "claim_matrix.json").read_text())
    claims = {row["claim"]: row["status"] for row in matrix["rows"]}
    assert claims["controller_decision_study"] == "supported"


def test_replay_verb_over_runset(root_dir, tmp_path):
    runs = tmp_path / "runs"
    plan = root_dir / "demo_plan.json"
    assert main([
        "run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(runs),
    ]) == EXIT_OK
    replay_out = tmp_path / "replay"
    assert main([
        "replay", "--runset", str(runs), "--class", "R1", "--out", str(replay_out),
    ]) == EXIT_OK
    lines = (replay_out / "replay_results.jsonl").read_text().splitlines()
    results = [json.loads(line) for line in lines if line]
    assert results
    assert all(result["replay_class"] == "R1" for result in results)
    assert all(result["terminal_match"] for result in results)


def test_replay_single_bundle(root_dir, tmp_path):
    runs = tmp_path / "runs"
    plan = root_dir / "demo_plan.json"
    main(["run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(runs)])
    stage = tmp_path / "stage"
    main(["replay", "--runset", str(runs), "--class", "R0", "--out", str(stage)])
    bundles = sorted(stage.glob("bundle_*.json"))
    assert bundles
    single_out = tmp_path / "single"
    assert main(["replay", "--bundle", str(bundles[0]), "--out", str(single_out)]) == EXIT_OK


def test_error_record_on_bad_input(tmp_path, capsys):
    status = main([
        "gate", "--runset", str(tmp_path / "missing"), "--release-root",
        str(tmp_path / "missing"), "--out", str(tmp_path / "out"),
    ])
    assert status == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in record and "message" in record


def test_run_respects_setting_filter(root_dir, tmp_path):
    runs = tmp_path / "stressed-only"
    plan = root_dir / "demo_plan.json"
    assert main([
        "run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(runs),
        "--setting", "medium_live_stressed",
    ]) == EXIT_OK
    runset = json.loads((runs / "runset.json").read_text())
    assert all(run["setting_label"] == "medium_live_stressed" for run in runset["runs"])


def test_worker_error_code_reaches_error_record(root_dir, tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise DriverError("driver_failure", "synthetic backend went away")

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "execute_run", failing_run)  # forked workers inherit it
    status = main([
        "run", "--plan", str(root_dir / "demo_plan.json"), "--release-root", str(root_dir),
        "--out", str(tmp_path / "runs"), "--concurrency", "2",
    ])
    assert status == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {
        "error": "driver_failure",
        "message": "driver_failure: synthetic backend went away",
    }


def test_cli_import_leaves_process_pool_unloaded():
    probe = (
        "import sys, gatebench.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_report_reads_each_log_once(root_dir, tmp_path, monkeypatch):
    runs, gate_out = tmp_path / "runs", tmp_path / "gate"
    assert main([
        "run", "--plan", str(root_dir / "demo_plan.json"), "--release-root", str(root_dir),
        "--out", str(runs),
    ]) == EXIT_OK
    assert main([
        "gate", "--runset", str(runs), "--release-root", str(root_dir), "--out", str(gate_out),
    ]) == EXIT_OK

    reads: Counter[str] = Counter()
    real_read = runner.read_event_log

    def counting_read(path):
        reads[str(path)] += 1
        return real_read(path)

    monkeypatch.setattr(runner, "read_event_log", counting_read)
    assert main([
        "report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(tmp_path / "report"),
    ]) == EXIT_OK
    assert reads and max(reads.values()) == 1
