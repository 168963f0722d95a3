"""Command-line entry point wiring the pipeline verbs together.

Verbs: init-root, run, gate, replay, report, study, all. No command mutates
its inputs; artifacts land under --out, and re-running a verb with identical
inputs overwrites with identical bytes. Exit codes: 0 success, 2 usage error,
3 validator failure during a run, 1 any other error (with a machine-readable
error record on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .demo import DEMO_ROOT_ID, build_demo_plan, build_demo_release
from .gate import decide_runset, gate_report, load_decisions, load_gate_report, save_gate_outputs
from .manifest import RELEASE_EPOCH, ManifestStore
from .replay import build_bundle, load_bundle, replay_run, save_bundle
from .report import (
    claim_matrix,
    invalid_action_rate,
    latency_decomposition,
    load_study_report,
    render_claim_matrix,
    render_decision_table,
    save_report_outputs,
)
from .runner import load_plan, load_runset, run_plan, save_plan
from .schema import canonical_json
from .simenv import simulate_family_throughput
from .study import StudyConfig, run_study

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VALIDATOR = 3


def _error_record(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


def _cmd_init_root(args: argparse.Namespace) -> int:
    out = Path(args.out)
    store = ManifestStore(out)
    build_demo_release(store, root_id=args.root_id, created_at=args.created_at)
    save_plan(build_demo_plan(root_id=args.root_id), out / "demo_plan.json")
    print(f"release root {args.root_id} written to {out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    if args.concurrency is not None:
        plan = type(plan).from_doc({**plan.to_doc(), "concurrency": args.concurrency})
    if args.setting is not None:
        doc = plan.to_doc()
        doc["entries"] = [e for e in doc["entries"] if e["setting"] == args.setting]
        if not doc["entries"]:
            _error_record("invalid_plan", f"no entries with setting {args.setting!r}")
            return EXIT_USAGE
        plan = type(plan).from_doc(doc)
    store = ManifestStore(args.release_root)
    runset = run_plan(plan, store, out_dir=args.out, strict=args.strict_schema)
    executed = [run for run in runset.runs if run.manifest_resolved]
    incomplete = [run for run in executed if not run.trace_complete]
    print(f"{len(runset.runs)} runs recorded ({len(runset.runs) - len(executed)} candidates)")
    if incomplete:
        _error_record(
            "validator_failure",
            f"{len(incomplete)} runs with incomplete traces: "
            + ", ".join(run.run_id for run in incomplete),
        )
        return EXIT_VALIDATOR
    return EXIT_OK


def _cmd_gate(args: argparse.Namespace) -> int:
    runset = load_runset(args.runset)
    store = ManifestStore(args.release_root)
    root = store.load_root()
    decisions = decide_runset(runset, root)
    canonical = gate_report(runset, decisions, scope="canonical")
    decision_scope = gate_report(runset, decisions, scope="decision_study")
    save_gate_outputs(args.out, canonical, decisions, decision_report=decision_scope)
    print(
        f"indexed={canonical.indexed} admitted={canonical.admitted} "
        f"excluded={canonical.excluded} quarantined={canonical.quarantined}"
    )
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    if args.bundle:
        result = replay_run(load_bundle(args.bundle))
        results.append(result)
    else:
        runset = load_runset(args.runset)
        family_class = {"micro": "R0", "web": "R1", "code": "R2"}
        for run in runset.runs:
            if run.freeze is None or not run.manifest_resolved:
                continue
            if args.replay_class and family_class[run.family] != args.replay_class:
                continue
            events = runset.events_for(run) if run.event_log_ref else None
            bundle = build_bundle(run, events)
            save_bundle(bundle, out / f"bundle_{run.run_id}.json")
            results.append(replay_run(bundle))
    lines = [canonical_json(result.to_doc()) for result in results]
    (out / "replay_results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    matches = sum(1 for result in results if result.terminal_match)
    print(f"{len(results)} replays, {matches} terminal matches")
    return EXIT_OK


def _report_diagnostics(runset, decisions, events_by_run) -> dict[str, Any]:
    """Diagnostic inputs for the claim matrix, computed from admitted rows.

    ``events_by_run`` holds the logs the report already decoded; only the
    admitted web runs it lacks (the decision-study stratum) are read here.
    """

    verdicts = {d.run_id: d for d in decisions}
    diagnostics: dict[str, Any] = {}
    gold_total = gold_pass = noop_total = noop_fail = 0
    sanity_episodes = 0
    r1_reductions: list[float] = []
    r1_matches = 0
    r1_runs = 0
    for run in runset.runs:
        decision = verdicts.get(run.run_id)
        if decision is None or decision.verdict != "admitted":
            continue
        if run.driver.driver_type == "calibration" and run.family == "code":
            successes = sum(1 for s in run.episode_summaries if s.status == "success")
            failures = sum(1 for s in run.episode_summaries if s.status == "failure")
            if run.driver.driver_id.startswith("oracle"):
                gold_total += len(run.episode_summaries)
                gold_pass += successes
            elif run.driver.driver_id.startswith("noop"):
                noop_total += len(run.episode_summaries)
                noop_fail += failures
        if run.driver.driver_type == "sanity":
            sanity_episodes += len(run.episode_summaries)
        if run.family == "web" and run.event_log_ref and runset.base_dir is not None:
            events = events_by_run.get(run.run_id)
            if events is None:
                events = runset.events_for(run)
            result = replay_run(build_bundle(run, events))
            r1_runs += 1
            r1_reductions.append(result.reduction)
            r1_matches += 1 if result.terminal_match else 0
    if gold_total or noop_total:
        diagnostics.update(
            gold_total=gold_total, gold_pass=gold_pass,
            noop_total=noop_total, noop_fail=noop_fail,
        )
    if sanity_episodes:
        diagnostics["sanity_episodes"] = sanity_episodes
    if r1_runs:
        diagnostics["r1_reduction"] = sum(r1_reductions) / len(r1_reductions)
        diagnostics["r1_terminal_match_rate"] = r1_matches / r1_runs
        diagnostics["r1_runs"] = r1_runs
    diagnostics["throughput_eps"] = [
        simulate_family_throughput("code", concurrency, episodes=40, seed=7)
        for concurrency in (1, 4, 8)
    ]
    return diagnostics


def _cmd_report(args: argparse.Namespace) -> int:
    runset = load_runset(args.runset)
    gate_dir = Path(args.gate)
    decisions = load_decisions(gate_dir / "gate_decisions.jsonl")
    canonical = load_gate_report(gate_dir / "gate_report.json")

    verdicts = {d.run_id: d for d in decisions}
    admitted_runs = [
        run
        for run in runset.runs
        if verdicts.get(run.run_id) is not None
        and verdicts[run.run_id].verdict == "admitted"
        and verdicts[run.run_id].stratum != "decision_study"
    ]
    admitted_decisions = [verdicts[run.run_id] for run in admitted_runs]
    events_by_run = {
        run.run_id: runset.events_for(run) for run in admitted_runs if run.event_log_ref
    }

    latency = latency_decomposition(admitted_runs, events_by_run, admitted_decisions)
    all_events = [event for events in events_by_run.values() for event in events]
    invalid = invalid_action_rate(all_events) if any(
        event.kind == "action_parsed" for event in all_events
    ) else None

    study_report = load_study_report(args.study) if args.study else None
    diagnostics = _report_diagnostics(runset, decisions, events_by_run)
    matrix = claim_matrix(canonical, study_report, diagnostics)
    save_report_outputs(
        args.out, latency=latency, invalid_actions=invalid, study=study_report, matrix=matrix
    )
    print(render_claim_matrix(matrix))
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    cfg = StudyConfig()
    if args.grid != "default":
        _error_record("unknown_grid", f"unknown grid {args.grid!r}")
        return EXIT_USAGE
    if args.seed_base:
        cfg = StudyConfig(seeds=tuple(args.seed_base + seed for seed in cfg.seeds))
    _, _, report = run_study(cfg, out_dir=args.out)
    print(render_decision_table(report))
    return EXIT_OK


def _cmd_all(args: argparse.Namespace) -> int:
    out = Path(args.out)
    run_args = argparse.Namespace(
        plan=args.plan,
        release_root=args.release_root,
        out=out / "runs",
        concurrency=args.concurrency,
        setting=None,
        strict_schema=args.strict_schema,
    )
    status = _cmd_run(run_args)
    if status not in (EXIT_OK, EXIT_VALIDATOR):
        return status
    gate_args = argparse.Namespace(
        runset=out / "runs", release_root=args.release_root, out=out / "gate"
    )
    gate_status = _cmd_gate(gate_args)
    if gate_status != EXIT_OK:
        return gate_status
    report_args = argparse.Namespace(
        runset=out / "runs", gate=out / "gate", out=out / "report", study=args.study
    )
    report_status = _cmd_report(report_args)
    if report_status != EXIT_OK:
        return report_status
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatebench",
        description="Evidence-gated benchmark harness for simulated agent workloads",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_init = sub.add_parser("init-root", help="write the demo release root and plan")
    p_init.add_argument("--out", required=True)
    p_init.add_argument("--root-id", default=DEMO_ROOT_ID)
    p_init.add_argument("--created-at", default=RELEASE_EPOCH)
    p_init.set_defaults(func=_cmd_init_root)

    p_run = sub.add_parser("run", help="execute a run plan")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--release-root", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--concurrency", type=int, default=None)
    p_run.add_argument("--setting", default=None)
    p_run.add_argument(
        "--strict-schema", action=argparse.BooleanOptionalAction, default=True
    )
    p_run.set_defaults(func=_cmd_run)

    p_gate = sub.add_parser("gate", help="apply the evidence gate to a runset")
    p_gate.add_argument("--runset", required=True)
    p_gate.add_argument("--release-root", required=True)
    p_gate.add_argument("--out", required=True)
    p_gate.set_defaults(func=_cmd_gate)

    p_replay = sub.add_parser("replay", help="replay bundles or a runset")
    p_replay.add_argument("--bundle", default=None)
    p_replay.add_argument("--runset", default=None)
    p_replay.add_argument("--class", dest="replay_class", default=None)
    p_replay.add_argument("--out", required=True)
    p_replay.set_defaults(func=_cmd_replay)

    p_report = sub.add_parser("report", help="emit claim-scoped reports")
    p_report.add_argument("--runset", required=True)
    p_report.add_argument("--gate", required=True)
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--study", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_study = sub.add_parser("study", help="run the controller decision study grid")
    p_study.add_argument("--out", required=True)
    p_study.add_argument("--grid", default="default")
    p_study.add_argument("--seed-base", type=int, default=0)
    p_study.set_defaults(func=_cmd_study)

    p_all = sub.add_parser("all", help="run, gate, and report in one pass")
    p_all.add_argument("--plan", required=True)
    p_all.add_argument("--release-root", required=True)
    p_all.add_argument("--out", required=True)
    p_all.add_argument("--concurrency", type=int, default=None)
    p_all.add_argument("--study", default=None)
    p_all.add_argument(
        "--strict-schema", action=argparse.BooleanOptionalAction, default=True
    )
    p_all.set_defaults(func=_cmd_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  (single boundary: map to error records)
        code = getattr(exc, "code", exc.__class__.__name__)
        _error_record(str(code), str(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
