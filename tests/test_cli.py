from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gatebench import replay, runner
from gatebench.cli import EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from gatebench.drivers import DriverError
from gatebench.gate import load_decisions
from gatebench.manifest import ManifestStore
from gatebench.replay import ReplayError
from gatebench.report import load_study_report
from gatebench.schema import GatebenchError, read_event_log


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


@pytest.fixture()
def gated_runs(root_dir, tmp_path):
    """The demo plan run and gated: (runset directory, gate directory)."""

    runs, gate_out = tmp_path / "runs", tmp_path / "gate"
    assert main([
        "run", "--plan", str(root_dir / "demo_plan.json"), "--release-root", str(root_dir),
        "--out", str(runs),
    ]) == EXIT_OK
    assert main([
        "gate", "--runset", str(runs), "--release-root", str(root_dir), "--out", str(gate_out),
    ]) == EXIT_OK
    return runs, gate_out


def _last_error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


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


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        ([], "one of the arguments --bundle --runset is required"),
        (["--bundle", "{tmp}/b.json", "--runset", "{tmp}/runs"], "not allowed with argument"),
        (["--runset", "{tmp}/runs", "--class", "R7"], "argument --class: invalid choice: 'R7'"),
        (
            ["--bundle", "{tmp}/b.json", "--class", "R2"],
            "argument --class: not allowed with argument --bundle",
        ),
    ],
    ids=["no_source", "bundle_and_runset", "unknown_class", "class_with_bundle"],
)
def test_replay_argument_error_is_usage_error(tmp_path, capsys, flags, message):
    argv = ["replay", *(flag.format(tmp=tmp_path) for flag in flags), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_pooled_study_forks_once_and_equals_the_study_on_one_cpu(tmp_path, monkeypatch):
    real_fork = os.fork
    trees, forks = [], []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda cpus=cpus: cpus)
        forks.clear()
        out = tmp_path / f"cpus{cpus}"
        assert main(["study", "--out", str(out)]) == EXIT_OK
        # Width 2: this process is worker 0 and forks the one other worker.
        assert forks == [os.getpid()] * (cpus - 1)
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        trees.append(_tree_bytes(out))
    assert len(trees[0]) > 48
    assert trees[0] == trees[1]


def test_undecodable_manifest_fails_the_plan_before_any_log(root_dir, tmp_path, capsys):
    root = tmp_path / "root"
    shutil.copytree(root_dir, root)
    manifest = root / "manifest_web-001.json"
    doc = json.loads(manifest.read_text())
    doc["family"] = 5
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    status = main([
        "all", "--plan", str(root / "demo_plan.json"), "--release-root", str(root),
        "--out", str(out),
    ])
    assert status == EXIT_ERROR
    assert _last_error_record(capsys)["error"] == "invalid_document"
    assert not [path for path in (out / "runs").rglob("*") if path.is_file()]
    assert not (out / "runs" / "runset.json").exists()


def test_run_resolves_each_task_manifest_once(root_dir, tmp_path, monkeypatch):
    loads: Counter[str] = Counter()
    real_load = runner.ManifestStore.load

    def counting_load(store, task_id):
        loads[task_id] += 1
        return real_load(store, task_id)

    monkeypatch.setattr(runner.ManifestStore, "load", counting_load)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)  # every run in this process
    assert main([
        "run", "--plan", str(root_dir / "demo_plan.json"), "--release-root", str(root_dir),
        "--out", str(tmp_path / "runs"),
    ]) == EXIT_OK
    plan = json.loads((root_dir / "demo_plan.json").read_text())
    tasks = {entry["task_id"] for entry in plan["entries"]}
    registry = json.loads((root_dir / "release_root.json").read_text())["registry"]
    assert len(tasks - set(registry)) == 1  # the ghost task, never loaded
    assert loads == Counter(tasks & set(registry))


_POOL_MODULES = "[m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]"


def _probe(code: str) -> str:
    """The last line a fresh interpreter prints after running ``code``."""

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_process_pool_unloaded():
    assert _probe(f"import sys, gatebench.cli; print({_POOL_MODULES})") == "[]"


def test_pooled_replay_leaves_process_pool_unloaded(gated_runs, tmp_path):
    runs, _ = gated_runs
    code = "\n".join([
        "import os, sys",
        "from gatebench import cli, runner",
        "runner._usable_cpus = lambda: 2",
        "forks, real_fork = [], os.fork",
        "os.fork = lambda: forks.append(1) or real_fork()",
        f"status = cli.main(['replay', '--runset', {str(runs)!r}, '--out', {str(tmp_path / 'r')!r}])",
        f"print(status, len(forks), {_POOL_MODULES})",
    ])
    # Width 2: this process is worker 0 and forks the one other worker.
    assert _probe(code) == f"{EXIT_OK} 1 []"


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

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)  # every read in this process
    monkeypatch.setattr(runner, "read_event_log", counting_read)
    assert main([
        "report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(tmp_path / "report"),
    ]) == EXIT_OK
    assert reads and max(reads.values()) == 1


@pytest.fixture(scope="module")
def study_out(tmp_path_factory):
    """The study grid's output directory: a runset, its gate outputs and the study report."""

    out = tmp_path_factory.mktemp("study")
    assert main(["study", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(params=["demo", "study"])
def report_input(request):
    """(runset, gate directory, extra report arguments, R1 rows) for the demo and the study."""

    if request.param == "demo":
        runs, gate_out = request.getfixturevalue("gated_runs")
        return runs, gate_out, [], 2
    study = request.getfixturevalue("study_out")
    return study, study, ["--study", str(study / "decision_study.json")], 48


def _report_argv(runs: Path, gate_out: Path, out: Path, extra: list[str]) -> list[str]:
    return ["report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(out), *extra]


def _report_logs(runs: Path, gate_out: Path) -> list[str]:
    """The logs the report reads: admitted runs outside the decision study, and
    admitted decision-study web runs, each with a log."""

    decisions = {
        doc["run_id"]: doc
        for doc in map(json.loads, (gate_out / "gate_decisions.jsonl").read_text().splitlines())
    }
    logs = []
    for run in json.loads((runs / "runset.json").read_text())["runs"]:
        decision = decisions.get(run["run_id"])
        if decision is None or decision["verdict"] != "admitted" or not run["event_log_ref"]:
            continue
        if decision["stratum"] != "decision_study" or run["family"] == "web":
            logs.append(str(runs / run["event_log_ref"]))
    return logs


def test_report_workers_read_each_log_once(report_input, tmp_path, monkeypatch):
    runs, gate_out, extra, _ = report_input
    journal = tmp_path / "reads.txt"
    real_read = runner.read_event_log

    def journaled_read(path):
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {path}\n")
        return real_read(path)

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "read_event_log", journaled_read)  # forked workers inherit it
    assert main(_report_argv(runs, gate_out, tmp_path / "report", extra)) == EXIT_OK
    reads = [line.split(" ", 1) for line in journal.read_text(encoding="utf-8").splitlines()]
    # Width 2: this process reads stride 0 and one forked child stride 1.
    assert str(os.getpid()) in {pid for pid, _ in reads}
    assert len({pid for pid, _ in reads}) == 2
    expected = _report_logs(runs, gate_out)
    assert len(expected) > 2
    assert sorted(path for _, path in reads) == sorted(expected)


def test_report_tree_identical_on_one_and_two_cpus(report_input, tmp_path, monkeypatch):
    runs, gate_out, extra, r1_rows = report_input
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(_report_argv(runs, gate_out, out, extra)) == EXIT_OK
        trees.append(_tree_bytes(out))
    rows = {row["claim"]: row for row in json.loads(trees[0]["claim_matrix.json"])["rows"]}
    assert rows["replay_fidelity"]["rows_used"] == r1_rows
    assert trees[0] == trees[1]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "faults, code",
    [
        (["deleted_log"], "missing_log"),
        (["truncated_log"], "invalid_log"),
        (["missing_study"], "missing_study_report"),
        (["deleted_log", "missing_study"], "missing_log"),  # the logs are read first
    ],
    ids=["deleted_log", "truncated_log", "missing_study", "deleted_log_and_missing_study"],
)
def test_report_fault_gives_its_error_code(faults, code, cpus, gated_runs, tmp_path, capsys, monkeypatch):
    runs, gate_out = gated_runs
    logs = _report_logs(runs, gate_out)
    log = Path(logs[len(logs) // 2])
    study = tmp_path / "gone.json"
    named = {"deleted_log": log.stem, "truncated_log": str(log), "missing_study": str(study)}
    if "deleted_log" in faults:
        log.unlink()
    if "truncated_log" in faults:
        data = log.read_bytes()
        log.write_bytes(data[: data.index(b"\n", len(data) // 2) - 1])  # cut inside a line
    extra = ["--study", str(study)] if "missing_study" in faults else []
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    capsys.readouterr()
    assert main(_report_argv(runs, gate_out, tmp_path / "report", extra)) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == code
    assert named[faults[0]] in record["message"]


def test_replay_tree_identical_on_one_and_two_cpus(gated_runs, tmp_path, monkeypatch):
    runs, _ = gated_runs
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["replay", "--runset", str(runs), "--out", str(out)]) == EXIT_OK
        trees.append(_tree_bytes(out))
    assert "replay_results.jsonl" in trees[0] and len(trees[0]) > 10
    assert trees[0] == trees[1]


def test_replay_worker_error_code_reaches_error_record(gated_runs, tmp_path, capsys, monkeypatch):
    runs, _ = gated_runs
    parent = os.getpid()
    real_replay = replay.replay_run

    def failing_replay(bundle):
        # Stride 0 replays in this process; stride 1 in the one forked child fails.
        if os.getpid() == parent:
            return real_replay(bundle)
        raise ReplayError("replay_version_mismatch", f"raised in pid {os.getpid()}")

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(replay, "replay_run", failing_replay)  # forked workers inherit it
    capsys.readouterr()
    status = main(["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")])
    assert status == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "replay_version_mismatch"
    assert record["message"].startswith("replay_version_mismatch: raised in pid ")
    assert record["message"] != f"replay_version_mismatch: raised in pid {parent}"
    assert not (tmp_path / "replay" / "replay_results.jsonl").exists()


def test_missing_log_is_typed_error_for_replay_and_report(gated_runs, tmp_path, capsys, monkeypatch):
    runs, gate_out = gated_runs
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    decisions = [
        json.loads(line) for line in (gate_out / "gate_decisions.jsonl").read_text().splitlines()
    ]
    missing = next(
        d["run_id"] for d in decisions
        if d["verdict"] == "admitted" and d["stratum"] != "decision_study"
    )
    (runs / "logs" / f"{missing}.log").unlink()
    capsys.readouterr()
    for argv in (
        ["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")],
        ["report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(tmp_path / "rep")],
    ):
        assert main(argv) == EXIT_ERROR
        record = _last_error_record(capsys)
        assert record["error"] == "missing_log"
        assert missing in record["message"]


def _drop_first_env_step_end(lines: list[str]) -> None:
    lines.remove(next(line for line in lines if '"kind":"env_step_end"' in line))


def _swap_events(lines: list[str]) -> None:
    lines[3], lines[4] = lines[4], lines[3]  # the first model request's start and end


def _change_run_id(lines: list[str]) -> None:
    doc = json.loads(lines[3])
    doc["run_id"] = "0" * 16
    lines[3] = json.dumps(doc)


def _tamper_admitted_web_log(gated_runs, tamper) -> str:
    """Apply ``tamper`` to the lines of the first admitted web run's log; returns the run id."""

    runs, gate_out = gated_runs
    decisions = [
        json.loads(line) for line in (gate_out / "gate_decisions.jsonl").read_text().splitlines()
    ]
    families = {run.run_id: run.family for run in runner.load_runset(runs).runs}
    run_id = next(
        d["run_id"] for d in decisions
        if d["verdict"] == "admitted" and families[d["run_id"]] == "web"
    )
    log = runs / "logs" / f"{run_id}.log"
    lines = log.read_text(encoding="utf-8").split("\n")
    tamper(lines)
    log.write_text("\n".join(lines), encoding="utf-8")
    return run_id


def _replay_and_report_errors(gated_runs, tmp_path, capsys) -> list[dict]:
    """The error records of ``replay`` and ``report`` over the gated runs, both failing."""

    runs, gate_out = gated_runs
    capsys.readouterr()
    records = []
    for argv in (
        ["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")],
        ["report", "--runset", str(runs), "--gate", str(gate_out), "--out", str(tmp_path / "rep")],
    ):
        assert main(argv) == EXIT_ERROR
        records.append(_last_error_record(capsys))
    return records


@pytest.mark.parametrize(
    "tamper, rule",
    [
        (_drop_first_env_step_end, "boundary_mismatch kind: nested env_step_start"),
        (_swap_events, "boundary_mismatch kind: model_request_end without model_request_start"),
        (_change_run_id, "boundary_mismatch run_id: event run_id '0000000000000000' does not"),
    ],
    ids=["drop-env-step-end", "swap-lines", "run-id"],
)
def test_tampered_log_is_invalid_log_for_replay_and_report(
    tamper, rule, gated_runs, tmp_path, capsys
):
    run_id = _tamper_admitted_web_log(gated_runs, tamper)
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
        assert rule in record["message"]


def _edit_line(index: int, **fields):
    def edit(lines: list[str]) -> None:
        lines[index] = json.dumps({**json.loads(lines[index]), **fields})

    return edit


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_edit_line(4, step_index=-1),
         "line 5: invalid_value: sequence and step_index must be >= 0"),
        (_edit_line(6, sequence="5"),
         "line 7: invalid_document: EventRecord.sequence: TypeError: expected an integer, got '5'"),
    ],
    ids=["negative-step-index", "string-sequence"],
)
def test_undecodable_log_line_is_invalid_log_naming_run_and_line(
    tamper, message, gated_runs, tmp_path, capsys
):
    run_id = _tamper_admitted_web_log(gated_runs, tamper)
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"] == f"invalid_log: run {run_id}: {message}"


def _float_seed(index: int):
    """Rewrite the provenance seed of line ``index + 1`` as the equal float (``31.0``)."""

    def edit(lines: list[str]) -> None:
        doc = json.loads(lines[index])
        doc["provenance"]["seed"] = float(doc["provenance"]["seed"])
        lines[index] = json.dumps(doc)

    return edit


def _both(*tampers):
    def edit(lines: list[str]) -> None:
        for tamper in tampers:
            tamper(lines)

    return edit


@pytest.mark.parametrize(
    "tamper",
    [_float_seed(3), _both(_float_seed(3), _edit_line(8, sequence="5"))],
    ids=["float-seed", "float-seed-then-string-sequence"],
)
def test_float_seed_after_an_integer_one_is_invalid_log_at_its_line(
    tamper, gated_runs, tmp_path, capsys
):
    # Every earlier event of the log carries the same seed as an integer; the
    # float one equals it under ==, yet is not an integer.
    run_id = _tamper_admitted_web_log(gated_runs, tamper)
    log = gated_runs[0] / "logs" / f"{run_id}.log"
    seed = json.loads(log.read_text(encoding="utf-8").split("\n")[3])["provenance"]["seed"]
    assert type(seed) is float
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"] == (
            f"invalid_log: run {run_id}: line 4: invalid_document: "
            f"ProvenanceFields.seed: TypeError: expected an integer, got {seed!r}"
        )


@pytest.mark.parametrize("version", [9, "0.0.1"], ids=["number", "unsupported-string"])
def test_log_header_of_an_unsupported_version_is_invalid_log(version, gated_runs, tmp_path, capsys):
    def edit(lines: list[str]) -> None:
        lines[0] = json.dumps({"schema_version": version})

    run_id = _tamper_admitted_web_log(gated_runs, edit)
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"] == (
            f"invalid_log: run {run_id}: line 1: invalid_value: "
            f"unsupported schema version {version!r}"
        )


def test_undecodable_gate_decision_names_its_file_and_line(gated_runs, tmp_path, capsys):
    runs, gate_out = gated_runs
    path = gate_out / "gate_decisions.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[6] = json.dumps({**json.loads(lines[6]), "verdict": 5})
    path.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(_report_argv(runs, gate_out, tmp_path / "report", [])) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "invalid_gate_output"
    assert record["message"] == (
        f"invalid_gate_output: {path} line 7: invalid_document: "
        "GateDecision.verdict: TypeError: expected a string, got 5"
    )
    assert not (tmp_path / "report").exists()


def _set_run(**fields):
    """Edit the second run of ``runset.json``."""

    return lambda runs: runs[1].update(fields)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda runs: runs.append(runs[1]), "is indexed twice"),
        (_set_run(event_log_ref="../../etc/passwd"),
         "has event_log_ref '../../etc/passwd', not 'logs/{run_id}.log'"),
        (_set_run(event_log_ref="logs/other.log"),
         "has event_log_ref 'logs/other.log', not 'logs/{run_id}.log'"),
        (_set_run(event_log_ref=""), "has event_log_ref '', not 'logs/{run_id}.log'"),
        (_set_run(run_id="../../etc/passwd", event_log_ref="logs/../../etc/passwd.log"),
         "has a '/' in its run id"),
        (_set_run(retry_count=-5), "has a negative retry_count, retry_budget or repetition"),
        (_set_run(retry_budget=-1), "has a negative retry_count, retry_budget or repetition"),
        (_set_run(repetition=-1), "has a negative retry_count, retry_budget or repetition"),
        (_set_run(concurrency=0), "has concurrency 0, below 1"),
        (_set_run(manifest_resolved=False, event_log_ref=""),
         "is a candidate whose manifest_hash is not its task's placeholder"),
    ],
    ids=[
        "duplicate-run", "ref-outside", "ref-of-another-run", "ref-blank", "run-id-with-slash",
        "retry-count", "retry-budget", "repetition", "concurrency", "resolved-run-as-candidate",
    ],
)
def test_tampered_runset_index_is_invalid_runset_for_gate_and_replay(
    edit, problem, gated_runs, root_dir, tmp_path, capsys
):
    runs, gate_out = gated_runs
    index = runs / "runset.json"
    _edit_json(index, lambda doc: edit(doc["runs"]))
    run_id = json.loads(index.read_text(encoding="utf-8"))["runs"][1]["run_id"]
    message = f"invalid_runset: {index}: run {run_id!r} {problem.format(run_id=run_id)}"
    capsys.readouterr()
    for argv in (
        ["gate", "--runset", str(runs), "--release-root", str(root_dir), "--out", str(tmp_path / "g")],
        ["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")],
        _report_argv(runs, gate_out, tmp_path / "report", []),
    ):
        assert main(argv) == EXIT_ERROR
        record = _last_error_record(capsys)
        assert (record["error"], record["message"]) == ("invalid_runset", message)
    assert not (tmp_path / "g").exists()
    assert not (tmp_path / "replay").exists()
    assert not (tmp_path / "report").exists()


def _first_event(edit):
    return lambda material: edit(material["events"][0])


@pytest.mark.parametrize(
    "replay_class, edit, error",
    [
        ("R1", _first_event(lambda event: event.pop("episode_id")),
         "events[0]: invalid_document: EventRecord.episode_id: missing required key"),
        ("R1", lambda material: material.update(events=5),
         "TypeError: 'int' object is not iterable"),
        ("R2", lambda material: material.pop("seed"), "KeyError: 'seed'"),
        ("R2", lambda material: material["decisions"][0].update(patch_quality="platinum"),
         "EnvError: invalid_patch_quality: unknown patch quality 'platinum'"),
        ("R0", lambda material: material["episode_rows"][0].update(steps="abc"),
         "ValueError: invalid literal for int() with base 10: 'abc'"),
    ],
    ids=[
        "event-without-episode-id", "events-not-a-list", "no-seed", "unknown-patch-quality",
        "steps-not-a-number",
    ],
)
def test_malformed_bundle_material_is_invalid_bundle(
    replay_class, edit, error, gated_runs, tmp_path, capsys
):
    runs, _ = gated_runs
    assert main(["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")]) == EXIT_OK
    bundle = next(
        path for path in sorted((tmp_path / "replay").glob("bundle_*.json"))
        if json.loads(path.read_text(encoding="utf-8"))["replay_class"] == replay_class
    )
    _edit_json(bundle, lambda doc: edit(doc["material"]))
    capsys.readouterr()
    assert main(["replay", "--bundle", str(bundle), "--out", str(tmp_path / "one")]) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "invalid_bundle"
    assert record["message"] == f"invalid_bundle: {replay_class} material: {error}"


def test_report_needs_one_gate_decision_per_run(gated_runs, tmp_path, capsys):
    runs, gate_out = gated_runs
    decisions = gate_out / "gate_decisions.jsonl"
    lines = decisions.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 18
    decisions.write_text("".join(lines[:5]), encoding="utf-8")
    capsys.readouterr()
    argv = _report_argv(runs, gate_out, tmp_path / "report", [])
    assert main(argv) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "decision_set_mismatch"
    assert not (tmp_path / "report").exists()


def test_report_derives_the_gate_report_from_the_decisions(gated_runs, tmp_path):
    runs, gate_out = gated_runs
    assert main(_report_argv(runs, gate_out, tmp_path / "with", [])) == EXIT_OK
    (gate_out / "gate_report.json").unlink()
    assert main(_report_argv(runs, gate_out, tmp_path / "without", [])) == EXIT_OK
    assert _tree_bytes(tmp_path / "with") == _tree_bytes(tmp_path / "without")


# One unreadable input per verb, "{gone}" standing for a path that does not exist.
_MISSING_INPUT_ARGV = {
    "missing_plan": ["run", "--plan", "{gone}", "--release-root", "{root}", "--out", "{out}"],
    "missing_runset": ["gate", "--runset", "{gone}", "--release-root", "{root}", "--out", "{out}"],
    "missing_gate_output": ["report", "--runset", "{runs}", "--gate", "{gone}", "--out", "{out}"],
    "missing_bundle": ["replay", "--bundle", "{gone}", "--out", "{out}"],
    "missing_study_report": [
        "report", "--runset", "{runs}", "--gate", "{gate}", "--out", "{out}", "--study", "{gone}",
    ],
}


@pytest.mark.parametrize("code", sorted(_MISSING_INPUT_ARGV))
def test_missing_input_is_typed_error(code, gated_runs, root_dir, tmp_path, capsys):
    runs, gate_out = gated_runs
    gone = tmp_path / "gone"
    paths = {"gone": gone, "root": root_dir, "runs": runs, "gate": gate_out, "out": tmp_path / "out"}
    capsys.readouterr()
    argv = [arg.format_map({k: str(v) for k, v in paths.items()}) for arg in _MISSING_INPUT_ARGV[code]]
    assert main(argv) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == code
    assert record["message"].startswith(f"{code}: cannot read {gone}")


# One input per verb that exists but is cut short, "{bad}" standing for a copy of
# the runset directory in which each named file is replaced by a truncated one.
_TRUNCATED = '{"runs": [\n'
_INVALID_INPUT = {
    "invalid_plan": (
        ["run", "--plan", "{bad}/plan.json", "--release-root", "{root}", "--out", "{out}"],
        ["plan.json"],
    ),
    "invalid_runset": (
        ["gate", "--runset", "{bad}", "--release-root", "{root}", "--out", "{out}"],
        ["runset.json"],
    ),
    "invalid_gate_output": (
        ["report", "--runset", "{runs}", "--gate", "{bad}", "--out", "{out}"],
        ["gate_report.json", "gate_decisions.jsonl"],
    ),
    "invalid_bundle": (["replay", "--bundle", "{bad}/bundle.json", "--out", "{out}"], ["bundle.json"]),
    "invalid_study_report": (
        ["report", "--runset", "{runs}", "--gate", "{gate}", "--out", "{out}",
         "--study", "{bad}/decision_study.json"],
        ["decision_study.json"],
    ),
    "invalid_manifest": (
        ["gate", "--runset", "{runs}", "--release-root", "{bad}", "--out", "{out}"],
        ["release_root.json"],
    ),
    "invalid_log": (["replay", "--runset", "{bad}", "--out", "{out}"], ["logs/*.log"]),
}


@pytest.mark.parametrize("code", sorted(_INVALID_INPUT))
def test_invalid_json_input_is_typed_error(code, gated_runs, root_dir, tmp_path, capsys):
    runs, gate_out = gated_runs
    bad = tmp_path / "bad"
    shutil.copytree(runs, bad)
    argv, names = _INVALID_INPUT[code]
    for name in names:
        for target in list(bad.glob(name)) or [bad / name]:
            target.write_text(_TRUNCATED, encoding="utf-8")
    paths = {"bad": bad, "root": root_dir, "runs": runs, "gate": gate_out, "out": tmp_path / "out"}
    capsys.readouterr()
    assert main([arg.format_map({k: str(v) for k, v in paths.items()}) for arg in argv]) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == code
    assert " is not valid JSON: Expecting value: line " in record["message"]


NAN = float("nan")


def _set_first_number_to_nan(doc) -> None:
    """Replace the first number in ``doc`` (its first value when it has none) with NaN."""

    slots = []

    def walk(node) -> None:
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(value, (dict, list)):
                walk(value)
            else:
                slots.append((node, key, value))

    walk(doc)
    numbers = [slot for slot in slots if type(slot[2]) in (int, float)]
    node, key, _ = (numbers or slots)[0]
    node[key] = NAN


# Each loader of a JSON input: its invalid code, the file it reads (a glob
# under the test's directory) and the call that loads it.
_NAN_LOADERS = {
    "plan": ("invalid_plan", "root/demo_plan.json", runner.load_plan),
    "runset": ("invalid_runset", "runs/runset.json", lambda path: runner.load_runset(path.parent)),
    "release-root": (
        "invalid_manifest", "root/release_root.json",
        lambda path: ManifestStore(path.parent).load_root(),
    ),
    "manifest": (
        "invalid_manifest", "root/manifest_web-001.json",
        lambda path: ManifestStore(path.parent).load("web-001"),
    ),
    "gate-decisions": ("invalid_gate_output", "gate/gate_decisions.jsonl", load_decisions),
    "bundle": ("invalid_bundle", "replay/bundle_*.json", replay.load_bundle),
    "study-report": ("invalid_study_report", "study/decision_study.json", load_study_report),
    "event-log": ("invalid_log", "runs/logs/*.log", read_event_log),
}


@pytest.mark.parametrize("loader", sorted(_NAN_LOADERS))
def test_non_finite_number_is_its_loaders_invalid_code(
    loader, gated_runs, root_dir, study_out, tmp_path
):
    code, pattern, load = _NAN_LOADERS[loader]
    runs, _ = gated_runs
    shutil.copytree(root_dir, tmp_path / "root")
    shutil.copytree(study_out, tmp_path / "study")
    if loader == "bundle":
        replay_argv = ["replay", "--runset", str(runs), "--out", str(tmp_path / "replay")]
        assert main(replay_argv) == EXIT_OK
    path = sorted(tmp_path.glob(pattern))[0]
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        _set_first_number_to_nan(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:  # one document per line: NaN goes into line 2
        lines = text.split("\n")
        doc = json.loads(lines[1])
        _set_first_number_to_nan(doc)
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(GatebenchError) as err:
        load(path)
    assert err.value.code == code
    assert err.value.message.startswith(f"{path} is not valid JSON: non-finite number NaN")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "verb, edit, message",
    [
        ("gate", lambda doc: doc.update(runs=[{"run_id": "x"}]), "RunRecord.task_id: missing required key"),
        ("gate", lambda doc: doc["runs"][0].update(seed="s"),
         "RunRecord.seed: TypeError: expected an integer, got 's'"),
        ("gate", lambda doc: doc["runs"][0].update(seed=7.9),
         "RunRecord.seed: TypeError: expected an integer, got 7.9"),
        ("gate", lambda doc: doc.pop("runs"), "RunSet.runs: missing required key"),
        ("gate", lambda doc: doc["runs"][0].update(trace_complete="false"),
         "RunRecord.trace_complete: TypeError: expected true or false, got 'false'"),
        ("run", lambda doc: doc["entries"][0].pop("driver"), "PlanEntry.driver: missing required key"),
        ("run", lambda doc: doc.update(entries=7), "RunPlan.entries: TypeError: "),
        ("run", lambda doc: doc.update(drivers=[]),
         "RunPlan.drivers: TypeError: expected an object, got []"),
        ("run", lambda doc: doc["entries"][0].update(budget="3"),
         "PlanEntry.budget: TypeError: expected an integer, got '3'"),
    ],
    ids=[
        "runset-entry", "runset-seed", "runset-float-seed", "runset-runs", "runset-bool",
        "plan-driver", "plan-entries", "plan-drivers", "plan-string-budget",
    ],
)
def test_malformed_document_is_typed_error(verb, edit, message, gated_runs, root_dir, tmp_path, capsys):
    runs, _ = gated_runs
    if verb == "gate":
        _edit_json(runs / "runset.json", edit)
        argv = ["gate", "--runset", str(runs), "--release-root", str(root_dir)]
    else:
        plan = tmp_path / "plan.json"
        shutil.copy(root_dir / "demo_plan.json", plan)
        _edit_json(plan, edit)
        argv = ["run", "--plan", str(plan), "--release-root", str(root_dir)]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "invalid_document"
    assert record["message"].startswith(f"invalid_document: {message}")


def _first_entrys_driver(doc) -> dict:
    return doc["drivers"][doc["entries"][0]["driver"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["entries"][0].update(episodes=-2), "episodes must be >= 1"),
        (lambda doc: doc["entries"][0].update(episodes=0), "episodes must be >= 1"),
        (lambda doc: doc.update(episodes_per_run=0), "episodes_per_run must be >= 1"),
        (lambda doc: doc.update(episodes_per_run=-1), "episodes_per_run must be >= 1"),
        (lambda doc: _first_entrys_driver(doc).update(retry_budget=-1), "retry_budget must be >= 0"),
    ],
    ids=["episodes-negative", "episodes-zero", "episodes-per-run-zero",
         "episodes-per-run-negative", "retry-budget-negative"],
)
def test_count_below_its_floor_is_invalid_plan_before_any_log(
    edit, message, root_dir, tmp_path, capsys
):
    plan, out = tmp_path / "plan.json", tmp_path / "out"
    shutil.copy(root_dir / "demo_plan.json", plan)
    _edit_json(plan, edit)
    capsys.readouterr()
    argv = ["run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert _last_error_record(capsys)["message"] == f"invalid_plan: {message}"
    assert not out.exists()
    with pytest.raises(runner.RunnerError, match=message) as err:
        runner.load_plan(plan)
    assert err.value.code == "invalid_plan"


def test_plan_checks_keep_their_codes_after_decoding(root_dir, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    shutil.copy(root_dir / "demo_plan.json", plan)
    _edit_json(plan, lambda doc: doc.pop("drivers"))
    capsys.readouterr()
    argv = ["run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_ERROR
    assert _last_error_record(capsys)["message"] == (
        "invalid_plan: entry references unknown driver 'scripted-anchor'"
    )
    argv[2] = str(root_dir / "demo_plan.json")
    assert main([*argv, "--concurrency", "0"]) == EXIT_ERROR
    assert _last_error_record(capsys)["message"] == "invalid_plan: concurrency must be >= 1"


def _cut_demo_plan(doc: dict, driver: str, setting: str) -> None:
    # The demo plan's first three entries, then one that cannot run.
    doc["drivers"]["bare-llm"] = {"driver_type": "llm"}
    doc["entries"] = doc["entries"][:3] + [
        {"task_id": "web-001", "driver": driver, "setting": setting, "seed": 5, "budget": 4}
    ]
    doc["concurrency"] = 1


@pytest.mark.parametrize(
    "driver, setting, code, message",
    [
        ("bare-llm", "clean", "invalid_driver",
         "invalid_driver: llm drivers require model_family and backend_engine"),
        ("scripted-anchor", "hot_summer", "invalid_setting",
         "invalid_setting: unknown setting label 'hot_summer'"),
    ],
    ids=["driver", "setting"],
)
def test_bad_plan_entry_fails_at_load_before_any_log(
    driver, setting, code, message, root_dir, tmp_path, capsys
):
    plan, out = tmp_path / "plan.json", tmp_path / "runs"
    shutil.copy(root_dir / "demo_plan.json", plan)
    _edit_json(plan, lambda doc: _cut_demo_plan(doc, driver, setting))
    capsys.readouterr()
    status = main(["run", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(out)])
    assert status == EXIT_ERROR
    assert _last_error_record(capsys) == {"error": code, "message": message}
    assert not any(out.rglob("*"))


def test_run_with_no_entries_for_setting_is_usage_error(root_dir, tmp_path, capsys):
    capsys.readouterr()
    assert main([
        "run", "--plan", str(root_dir / "demo_plan.json"), "--release-root", str(root_dir),
        "--out", str(tmp_path / "runs"), "--setting", "no-such-setting",
    ]) == EXIT_USAGE
    assert _last_error_record(capsys) == {
        "error": "invalid_plan", "message": "no entries with setting 'no-such-setting'",
    }
    assert not (tmp_path / "runs").exists()


def _flip_calibration_statuses(doc: dict) -> None:
    flips = {"success": "failure", "failure": "success"}
    summaries = [
        summary for run in doc["runs"] if run["driver"]["driver_type"] == "calibration"
        for summary in run["episode_summaries"]
    ]
    assert len(summaries) == 10
    for summary in summaries:
        summary["status"] = flips[summary["status"]]


def test_claims_count_episodes_from_the_logs_not_the_runset_copies(gated_runs, root_dir, tmp_path):
    runs, gate_out = gated_runs
    assert main(_report_argv(runs, gate_out, tmp_path / "honest", [])) == EXIT_OK
    _edit_json(runs / "runset.json", _flip_calibration_statuses)
    assert main([
        "gate", "--runset", str(runs), "--release-root", str(root_dir), "--out", str(tmp_path / "g"),
    ]) == EXIT_OK
    decisions = "gate_decisions.jsonl"
    assert (tmp_path / "g" / decisions).read_bytes() == (gate_out / decisions).read_bytes()
    assert main(_report_argv(runs, gate_out, tmp_path / "tampered", [])) == EXIT_OK
    honest, tampered = (
        (tmp_path / name / "claim_matrix.json").read_bytes() for name in ("honest", "tampered")
    )
    assert b'"gold 5/5 pass, noop 5/5 fail"' in honest
    assert tampered == honest


def _first_payload(kind: str, edit):
    """A log tamper applying ``edit`` to the payload of the first ``kind`` event."""

    def tamper(lines: list[str]) -> None:
        index = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line)
        doc = json.loads(lines[index])
        edit(doc["payload"])
        lines[index] = json.dumps(doc)

    return tamper


def _first_status(kind: str, value):
    return _first_payload(kind, lambda payload: payload.update(status=value))


def _tamper_oracle_log(runs: Path, *tampers) -> str:
    """Apply ``tampers`` to the lines of the first oracle-control run's log; returns its id."""

    run_id = next(
        run.run_id for run in runner.load_runset(runs).runs
        if run.driver.driver_id == "oracle-control"
    )
    log = runs / "logs" / f"{run_id}.log"
    lines = log.read_text(encoding="utf-8").split("\n")
    for tamper in tampers:
        tamper(lines)
    log.write_text("\n".join(lines), encoding="utf-8")
    return run_id


def test_non_string_episode_status_in_a_log_is_invalid_log(gated_runs, tmp_path, capsys):
    run_id = _tamper_admitted_web_log(gated_runs, _first_status("episode_end", 5))
    runs, gate_out = gated_runs
    capsys.readouterr()
    assert main(_report_argv(runs, gate_out, tmp_path / "report", [])) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "invalid_log"
    assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
    assert record["message"].endswith(": episode_end status 5 is not a string")


def test_episode_status_that_contradicts_its_terminal_result_is_invalid_log(
    gated_runs, tmp_path, capsys
):
    # An oracle episode's episode_end says failure while its terminal_result
    # still says success; the claim evidence counts episode_end statuses.
    runs, gate_out = gated_runs
    run_id = _tamper_oracle_log(runs, _first_status("episode_end", "failure"))
    capsys.readouterr()
    assert main(_report_argv(runs, gate_out, tmp_path / "report", [])) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "invalid_log"
    assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
    assert record["message"].endswith(
        ": invalid_value payload.status: episode_end status 'failure' is not its episode's "
        "'success'"
    )


def test_r2_terminal_that_contradicts_its_verifier_outcome_is_invalid_log(
    gated_runs, tmp_path, capsys
):
    # An oracle episode's terminal_result and episode_end both say failure
    # while its verifier_outcome still says success.
    run_id = _tamper_oracle_log(
        gated_runs[0],
        _first_status("terminal_result", "failure"),
        _first_status("episode_end", "failure"),
    )
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
        assert record["message"].endswith(
            ": invalid_value payload.status: terminal_result status 'failure' is not its "
            "verifier_outcome's 'success'"
        )


@pytest.mark.parametrize("key", ["patch_quality", "pass_prob"])
def test_r2_verifier_outcome_without_a_verdict_input_is_invalid_log(
    key, gated_runs, tmp_path, capsys
):
    # Without the key the run used to stop counting as a control, and replay
    # filled in a generated patch.
    run_id = _tamper_oracle_log(
        gated_runs[0], _first_payload("verifier_outcome", lambda payload: payload.pop(key))
    )
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
        assert record["message"].endswith(
            f": missing_field payload.{key}: an R2 verifier_outcome requires payload key {key}"
        )


def test_non_finite_number_in_a_log_is_invalid_log_at_its_line(gated_runs, tmp_path, capsys):
    # The decoder used to accept NaN: the gate admitted the run, and replay
    # and report failed late on a canonical-form check that named no run.
    run_id = _tamper_admitted_web_log(
        gated_runs,
        _first_payload("env_step_end", lambda payload: payload.update(service_time_ms=NAN)),
    )
    log = gated_runs[0] / "logs" / f"{run_id}.log"
    lines = log.read_text(encoding="utf-8").split("\n")
    number = next(index for index, line in enumerate(lines, start=1) if "NaN" in line)
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record == {
            "error": "invalid_log",
            "message": f"invalid_log: {log} is not valid JSON: non-finite number NaN: "
                       f"line {number}",
        }


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("patch_quality", "platinum", "'platinum' is not a known patch quality"),
        ("pass_prob", "high", "'high' is not a number in [0, 1]"),
        ("pass_prob", 1.5, "1.5 is not a number in [0, 1]"),
        ("pass_prob", True, "True is not a number in [0, 1]"),
    ],
    ids=["platinum", "high", "above-one", "bool"],
)
def test_r2_verdict_input_of_a_wrong_value_is_invalid_log(
    key, value, expected, gated_runs, tmp_path, capsys
):
    # An unknown quality used to drop the run from the control counts while
    # report passed; a string pass_prob failed replay with a bare ValueError.
    run_id = _tamper_oracle_log(
        gated_runs[0],
        _first_payload("verifier_outcome", lambda payload: payload.update({key: value})),
    )
    for record in _replay_and_report_errors(gated_runs, tmp_path, capsys):
        assert record["error"] == "invalid_log"
        assert record["message"].startswith(f"invalid_log: run {run_id}: event ")
        assert record["message"].endswith(f": invalid_value payload.{key}: {key} {expected}")


def _relabel_web_runs(doc: dict) -> None:
    for run in doc["runs"]:
        if run["family"] == "web" and run["manifest_resolved"]:
            run["family"] = "micro"


@pytest.mark.parametrize("argv", [
    ["replay", "--runset", "{runs}", "--out", "{tmp}/replay"],
    ["replay", "--runset", "{runs}", "--class", "R1", "--out", "{tmp}/replay"],
    ["report", "--runset", "{runs}", "--gate", "{gate}", "--out", "{tmp}/report"],
], ids=["replay", "replay-class-r1", "report"])
def test_family_label_that_disagrees_with_the_log_is_family_mismatch(
    argv, gated_runs, tmp_path, capsys
):
    runs, gate_out = gated_runs
    relabelled = {
        run.run_id for run in runner.load_runset(runs).runs
        if run.family == "web" and run.manifest_resolved
    }
    assert len(relabelled) == 3
    _edit_json(runs / "runset.json", _relabel_web_runs)
    capsys.readouterr()
    paths = {"runs": runs, "gate": gate_out, "tmp": tmp_path}
    assert main([arg.format_map(paths) for arg in argv]) == EXIT_ERROR
    record = _last_error_record(capsys)
    assert record["error"] == "family_mismatch"
    run_id = record["message"].split()[2].rstrip(":")
    assert run_id in relabelled
    assert record["message"] == (
        f"family_mismatch: run {run_id}: runset.json says family micro, "
        "its log records replay class R1"
    )


def test_replay_class_r1_selects_exactly_the_web_runs(gated_runs, tmp_path):
    runs, _ = gated_runs
    web = [
        run.run_id for run in runner.load_runset(runs).runs
        if run.family == "web" and run.freeze is not None and run.manifest_resolved
    ]
    out = tmp_path / "replay"
    assert main(["replay", "--runset", str(runs), "--class", "R1", "--out", str(out)]) == EXIT_OK
    assert sorted(path.name for path in out.glob("bundle_*.json")) == sorted(
        f"bundle_{run_id}.json" for run_id in web
    )
    assert len(web) == 3
    results = (out / "replay_results.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["replay_class"] for line in results] == ["R1"] * 3


def _rename_controls(doc: dict) -> None:
    names = {"oracle-control": "gold-control", "noop-control": "null-control"}
    doc["drivers"] = {names.get(name, name): spec for name, spec in doc["drivers"].items()}
    for entry in doc["entries"]:
        entry["driver"] = names.get(entry["driver"], entry["driver"])


def test_verifier_controls_are_known_by_their_logged_patch_quality_not_their_names(
    root_dir, tmp_path
):
    plan = tmp_path / "plan.json"
    shutil.copy(root_dir / "demo_plan.json", plan)
    _edit_json(plan, _rename_controls)
    assert main([
        "all", "--plan", str(plan), "--release-root", str(root_dir), "--out", str(tmp_path / "o"),
    ]) == EXIT_OK
    rows = json.loads((tmp_path / "o" / "report" / "claim_matrix.json").read_text())["rows"]
    row = next(row for row in rows if row["claim"] == "verifier_controls")
    assert (row["status"], row["rows_used"], row["scope"]) == (
        "supported", 10, "gold 5/5 pass, noop 5/5 fail"
    )


def _flip_first_selection(doc: dict) -> None:
    cell = doc["cells"][0]
    cell["selected"] = next(label for label in cell["auc_by_variant"] if label != cell["selected"])


def _cell_message(doc: dict) -> str:
    cell = doc["cells"][0]
    label = f"{cell['backend']}/s{cell['seed']}/b{cell['budget']}/{cell['setting']}"
    return f"cell {label} selects {cell['selected']!r}, not the argmax of its AUCs"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(reversal_cells=11),
         lambda doc: "11/12 reversals stated, 12/12 in its cells"),
        (lambda doc: doc.update(comparable_cells=13),
         lambda doc: "12/13 reversals stated, 12/12 in its cells"),
        (_flip_first_selection, _cell_message),
    ],
    ids=["reversal-count", "comparable-count", "selected"],
)
def test_study_report_that_disagrees_with_its_cells_is_invalid(
    edit, message, study_out, tmp_path, capsys
):
    study = tmp_path / "decision_study.json"
    shutil.copy(study_out / "decision_study.json", study)
    _edit_json(study, edit)
    capsys.readouterr()
    argv = _report_argv(study_out, study_out, tmp_path / "report", ["--study", str(study)])
    assert main(argv) == EXIT_ERROR
    doc = json.loads(study.read_text(encoding="utf-8"))
    assert _last_error_record(capsys) == {
        "error": "invalid_study_report",
        "message": f"invalid_study_report: {study}: {message(doc)}",
    }
    assert not (tmp_path / "report").exists()
