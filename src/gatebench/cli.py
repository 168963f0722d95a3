"""Command-line entry point wiring the pipeline verbs together.

Verbs: init-root, run, gate, replay, report, study, all. No command mutates
its inputs; artifacts land under --out, and re-running a verb with identical
inputs overwrites with identical bytes. Every event log that replay or
report reads is validated, and one that breaks an event rule is the error
invalid_log. Exit codes: 0 success, 2 usage error, 3 validator failure
during a run, 1 any other error (with a machine-readable error record on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .demo import DEMO_ROOT_ID, build_demo_plan, build_demo_release
from .gate import decide_runset, gate_report, save_gate_outputs
from .manifest import RELEASE_EPOCH, ManifestStore
from .replay import load_bundle, replay_run, replay_runset
from .report import render_claim_matrix, render_decision_table, report_runset
from .runner import load_plan, load_runset, run_plan, save_plan
from .schema import REPLAY_CLASSES, canonical_json
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
        plan = replace(plan, concurrency=args.concurrency)
    if args.setting is not None:
        entries = tuple(e for e in plan.entries if e.setting_label == args.setting)
        if not entries:  # checked first: the plan itself rejects an empty entry list
            _error_record("invalid_plan", f"no entries with setting {args.setting!r}")
            return EXIT_USAGE
        plan = replace(plan, entries=entries)
    store = ManifestStore(args.release_root)
    runset = run_plan(plan, store, out_dir=args.out)
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
    if args.bundle is not None:
        results = [replay_run(load_bundle(args.bundle))]
    else:
        results = replay_runset(load_runset(args.runset), out, args.replay_class)
    lines = [canonical_json(result.to_doc()) for result in results]
    (out / "replay_results.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    matches = sum(1 for result in results if result.terminal_match)
    print(f"{len(results)} replays, {matches} terminal matches")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_claim_matrix(report_runset(args.runset, args.gate, args.out, args.study)))
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    seeds = tuple(args.seed_base + seed for seed in StudyConfig().seeds)
    _, _, report = run_study(StudyConfig(seeds=seeds), out_dir=args.out)
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
    p_run.set_defaults(func=_cmd_run)

    p_gate = sub.add_parser("gate", help="apply the evidence gate to a runset")
    p_gate.add_argument("--runset", required=True)
    p_gate.add_argument("--release-root", required=True)
    p_gate.add_argument("--out", required=True)
    p_gate.set_defaults(func=_cmd_gate)

    p_replay = sub.add_parser("replay", help="replay bundles or a runset")
    source = p_replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--bundle", default=None)
    source.add_argument("--runset", default=None)
    p_replay.add_argument("--class", dest="replay_class", choices=sorted(REPLAY_CLASSES))
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
    p_study.add_argument("--seed-base", type=int, default=0)
    p_study.set_defaults(func=_cmd_study)

    p_all = sub.add_parser("all", help="run, gate, and report in one pass")
    p_all.add_argument("--plan", required=True)
    p_all.add_argument("--release-root", required=True)
    p_all.add_argument("--out", required=True)
    p_all.add_argument("--concurrency", type=int, default=None)
    p_all.add_argument("--study", default=None)
    p_all.set_defaults(func=_cmd_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "replay" and args.bundle is not None and args.replay_class is not None:
        # --class selects runs of a runset; a bundle carries its own class.
        parser.error("argument --class: not allowed with argument --bundle")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  (single boundary: map to error records)
        code = getattr(exc, "code", exc.__class__.__name__)
        _error_record(str(code), str(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
