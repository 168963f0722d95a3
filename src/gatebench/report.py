"""Claim-scoped reporting: latency decomposition, reward AUC, decision study.

Reports consume admitted rows only; feeding a rejected or quarantined run into
a report input raises. Percentiles are nearest-rank over sorted samples, the
reward AUC is the left-continuous step integral normalized by the horizon, and
variant selection breaks ties lexicographically by variant label.

``report_runset`` is the ``report`` verb. It reads each event log it needs
once, on the run pool (``runner.map_runs``): a job decodes one run's log and
sends back only that run's ``RunSummary``, and the latency tables, the
invalid-action report and the replay diagnostic are aggregated from the
summaries in runset order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Final, Iterable, Mapping, Sequence

from .gate import GateDecision, GateReport, load_decisions, load_gate_report
from .records import record
from .replay import build_bundle, replay_run
from .runner import RewardPoint, RunRecord, RunSet, load_runset, map_runs
from .schema import EventRecord, GatebenchError, Record, float_sum, read_json, write_json
from .simenv import CLEAN_LABEL, STRESSED_LABEL, simulate_family_throughput

VARIANT_LABELS: Final[tuple[str, str]] = ("hook_a_only", "hook_b_only")
# The two settings a decision-study group compares.
STUDY_SETTINGS: Final[tuple[str, str]] = (CLEAN_LABEL, STRESSED_LABEL)

CLAIM_KEYS: Final[tuple[str, ...]] = (
    "substrate_evidence_gate",
    "real_task_anchors",
    "llm_driver_traffic",
    "verifier_controls",
    "replay_fidelity",
    "throughput_scaling",
    "stronger_driver_sanity",
    "controller_decision_study",
)

CLAIM_STATUSES: Final[frozenset[str]] = frozenset(
    {"supported", "supported_bounded", "caveated", "appendix_only", "not_claimed"}
)


class ReportError(GatebenchError):
    """Raised for inputs that cannot give a claim-scoped report."""


# ---------------------------------------------------------------------------
# Admitted-input guard
# ---------------------------------------------------------------------------


def require_admitted(
    runs: Sequence[RunRecord], decisions: Sequence[GateDecision]
) -> list[RunRecord]:
    """Provenance check: every supplied run must carry an admitted decision."""

    verdicts = {decision.run_id: decision.verdict for decision in decisions}
    for run in runs:
        verdict = verdicts.get(run.run_id)
        if verdict != "admitted":
            raise ReportError(
                "rejected_input",
                f"run {run.run_id} is {verdict or 'undecided'}; reports consume admitted rows only",
            )
    return list(runs)


# ---------------------------------------------------------------------------
# Per-run log summaries
# ---------------------------------------------------------------------------


@record
class RunSummary:
    """What the report keeps of one run's event log once its events are dropped.

    Samples keep the order of the log. ``r1`` is the run's R1 replay as
    (reduction, terminal match), present for a web run summarized with its
    record.
    """

    service_times_ms: list[float]
    queue_waits_ms: list[float]
    episodes: int
    wall_span_ms: float
    counts_by_status: dict[str, int]
    invalid_actions: int
    r1: tuple[float, bool] | None = None


def summarize_run(events: Sequence[EventRecord], run: RunRecord | None = None) -> RunSummary:
    """Reduce one run's events to its ``RunSummary``.

    Service times come from environment steps, queue waits from verifier
    outcomes, episodes from terminal results, parse statuses from parsed
    actions, and the wall span is the latest event clock. Given the record of
    a web run, the summary also holds ``replay_run(build_bundle(run, events))``.
    """

    steps: list[float] = []
    waits: list[float] = []
    counts: dict[str, int] = {}
    episodes = invalid = 0
    span = 0.0
    for event in events:
        kind = event.kind
        if kind == "env_step_end":
            steps.append(float(event.payload["service_time_ms"]))
        elif kind == "verifier_outcome":
            waits.append(float(event.payload["queue_wait_ms"]))
        elif kind == "terminal_result":
            episodes += 1
        elif kind == "action_parsed":
            status = str(event.payload["parse_status"])
            counts[status] = counts.get(status, 0) + 1
            if bool(event.payload["invalid_action"]):
                invalid += 1
        span = max(span, event.wall_clock_ms)
    r1 = None
    if run is not None and run.family == "web":
        result = replay_run(build_bundle(run, events))
        r1 = (result.reduction, result.terminal_match)
    return RunSummary(steps, waits, episodes, span, counts, invalid, r1)


# ---------------------------------------------------------------------------
# Percentiles and latency decomposition
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile over pre-sorted values (1-based ceil rank)."""

    if not sorted_values:
        raise ReportError("no_samples", "percentile of empty sample set")
    if not 0.0 < percentile <= 100.0:
        raise ReportError("no_samples", f"percentile {percentile} out of range")
    n = len(sorted_values)
    rank = -(-int(percentile * n) // 100)  # ceil(percentile/100 * n) in integers
    rank = max(1, min(n, rank))
    return sorted_values[rank - 1]


@record
class LatencyBreakdown(Record):
    """Step-latency percentiles, queue wait and throughput of one latency group."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_queue_wait_ms: float
    throughput_eps: float


def latency_breakdown(
    step_latencies_ms: Sequence[float],
    queue_waits_ms: Sequence[float],
    episodes_completed: int,
    wall_span_ms: float,
) -> LatencyBreakdown:
    if not step_latencies_ms:
        raise ReportError("no_samples", "latency breakdown needs at least one sample")
    ordered = sorted(step_latencies_ms)
    mean_wait = float_sum(queue_waits_ms) / len(queue_waits_ms) if queue_waits_ms else 0.0
    throughput = episodes_completed / (wall_span_ms / 1000.0) if wall_span_ms > 0 else 0.0
    return LatencyBreakdown(
        count=len(ordered),
        mean_ms=float_sum(ordered) / len(ordered),
        p50_ms=nearest_rank(ordered, 50.0),
        p95_ms=nearest_rank(ordered, 95.0),
        p99_ms=nearest_rank(ordered, 99.0),
        mean_queue_wait_ms=mean_wait,
        throughput_eps=throughput,
    )


def latency_decomposition(
    runs: Sequence[RunRecord],
    summaries: Mapping[str, RunSummary],
    decisions: Sequence[GateDecision],
) -> dict[str, LatencyBreakdown]:
    """Per-(family, concurrency) latency breakdowns over admitted runs.

    Samples are environment step service times; queue waits come from verifier
    outcomes; throughput is completed episodes over the run's wall-clock span.
    Each run contributes its summary, keyed by run id, in the order of
    ``runs``; a run without one contributes nothing. Empty groups are omitted.
    """

    require_admitted(runs, decisions)
    grouped: dict[str, dict[str, Any]] = {}
    for run in runs:
        key = f"{run.family}/c{run.concurrency}"
        bucket = grouped.setdefault(
            key, {"steps": [], "waits": [], "episodes": 0, "span": 0.0}
        )
        summary = summaries.get(run.run_id)
        if summary is None:
            continue
        bucket["steps"] += summary.service_times_ms
        bucket["waits"] += summary.queue_waits_ms
        bucket["episodes"] += summary.episodes
        bucket["span"] = max(bucket["span"], summary.wall_span_ms)
    output: dict[str, LatencyBreakdown] = {}
    for key in sorted(grouped):
        bucket = grouped[key]
        if not bucket["steps"]:
            continue
        output[key] = latency_breakdown(
            bucket["steps"], bucket["waits"], bucket["episodes"], bucket["span"]
        )
    return output


# ---------------------------------------------------------------------------
# Invalid-action behavior
# ---------------------------------------------------------------------------


@record
class InvalidActionReport(Record):
    """Invalid-action rate over every parsed action, with counts by parse status."""

    rate: float
    total_actions: int
    counts_by_status: dict[str, int]


def invalid_action_rate(summaries: Iterable[RunSummary]) -> InvalidActionReport:
    counts: dict[str, int] = {}
    invalid = 0
    for summary in summaries:
        for status, count in summary.counts_by_status.items():
            counts[status] = counts.get(status, 0) + count
        invalid += summary.invalid_actions
    total = sum(counts.values())
    if total == 0:
        raise ReportError("no_actions", "no action_parsed events in input")
    return InvalidActionReport(
        rate=invalid / total, total_actions=total, counts_by_status=counts
    )


# ---------------------------------------------------------------------------
# Reward AUC
# ---------------------------------------------------------------------------


def reward_auc(trajectory: Sequence[RewardPoint], horizon_ms: float) -> float:
    """Left-continuous step integral of reward over [0, horizon], normalized.

    The trajectory must start at t=0, have strictly increasing timestamps, and
    fit inside the horizon; the result lies in [0, 1] for rewards in [0, 1].
    """

    if not trajectory:
        raise ReportError("nonmonotone_trajectory", "empty trajectory")
    if trajectory[0].wall_clock_ms != 0.0:
        raise ReportError("nonmonotone_trajectory", "trajectory must start at t=0")
    for earlier, later in zip(trajectory, trajectory[1:]):
        if later.wall_clock_ms <= earlier.wall_clock_ms:
            raise ReportError(
                "nonmonotone_trajectory",
                f"timestamps not increasing at t={later.wall_clock_ms}",
            )
    last_t = trajectory[-1].wall_clock_ms
    if horizon_ms < last_t or horizon_ms <= 0:
        raise ReportError(
            "invalid_horizon", f"horizon {horizon_ms} shorter than trajectory end {last_t}"
        )
    area = 0.0
    for point, nxt in zip(trajectory, trajectory[1:]):
        area += point.reward * (nxt.wall_clock_ms - point.wall_clock_ms)
    area += trajectory[-1].reward * (horizon_ms - last_t)
    return area / horizon_ms


# ---------------------------------------------------------------------------
# Controller decision study
# ---------------------------------------------------------------------------


def select_variant(auc_by_variant: Mapping[str, float]) -> str:
    """Argmax over variants; equal AUCs select the lexicographically first."""

    if not auc_by_variant:
        raise ReportError("no_samples", "cannot select from an empty variant map")
    return sorted(auc_by_variant.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


@record
class DecisionCell(Record):
    """Reward AUC per variant in one study cell, and the variant it selects."""

    backend: str
    seed: int
    budget: int
    setting: str
    auc_by_variant: dict[str, float]
    selected: str

    @classmethod
    def from_aucs(
        cls, backend: str, seed: int, budget: int, setting: str,
        auc_by_variant: Mapping[str, float],
    ) -> "DecisionCell":
        return cls(
            backend=backend,
            seed=seed,
            budget=budget,
            setting=setting,
            auc_by_variant=dict(auc_by_variant),
            selected=select_variant(auc_by_variant),
        )


@record
class DecisionStudyReport(Record):
    """The decision study: every cell, and the admitted, blocked and reversal counts."""

    cells: tuple[DecisionCell, ...]
    admitted: int
    blocked: int
    comparable_cells: int
    reversal_cells: int
    incomparable: tuple[str, ...] = ()


def decision_study(
    runset: RunSet, decisions: Sequence[GateDecision]
) -> DecisionStudyReport:
    """Aggregate admitted controller-study runs into per-cell variant choices.

    One cell per (backend, seed, budget, setting); the selected variant is the
    reward-AUC argmax over the run's own ``horizon_ms``. A cell is complete
    with a run of each of ``VARIANT_LABELS``; a (backend, seed, budget) group
    is comparable when both ``STUDY_SETTINGS`` have complete cells; reversals
    count comparable groups whose clean and stressed selections differ.
    """

    verdicts = {decision.run_id: decision for decision in decisions}
    study_runs = [
        run
        for run in runset.runs
        if verdicts.get(run.run_id) is not None
        and verdicts[run.run_id].stratum == "decision_study"
    ]
    admitted = [
        run for run in study_runs if verdicts[run.run_id].verdict == "admitted"
    ]
    blocked = len(study_runs) - len(admitted)

    aucs: dict[tuple[str, int, int, str], dict[str, float]] = {}
    for run in admitted:
        if run.backend is None or run.variant is None:
            raise ReportError(
                "rejected_input", f"study run {run.run_id} lacks backend/variant labels"
            )
        if run.horizon_ms is None:
            raise ReportError("invalid_horizon", f"study run {run.run_id} has no horizon")
        key = (run.backend, run.seed, run.driver.budget, run.setting_label)
        aucs.setdefault(key, {})[run.variant] = reward_auc(
            list(run.reward_trajectory), run.horizon_ms
        )

    cells: list[DecisionCell] = []
    incomparable: list[str] = []
    for key in sorted(aucs):
        backend, seed, budget, setting = key
        by_variant = aucs[key]
        if set(by_variant) != set(VARIANT_LABELS):
            incomparable.append(f"{backend}/s{seed}/b{budget}/{setting}")
            continue
        cells.append(DecisionCell.from_aucs(backend, seed, budget, setting, by_variant))

    by_group: dict[tuple[str, int, int], dict[str, str]] = {}
    for cell in cells:
        by_group.setdefault((cell.backend, cell.seed, cell.budget), {})[cell.setting] = (
            cell.selected
        )
    comparable = 0
    reversals = 0
    for group, selections in sorted(by_group.items()):
        if set(selections) != set(STUDY_SETTINGS):
            incomparable.append(f"{group[0]}/s{group[1]}/b{group[2]}")
            continue
        comparable += 1
        choices = {selections[setting] for setting in STUDY_SETTINGS}
        if len(choices) > 1:
            reversals += 1

    return DecisionStudyReport(
        cells=tuple(cells),
        admitted=len(admitted),
        blocked=blocked,
        comparable_cells=comparable,
        reversal_cells=reversals,
        incomparable=tuple(incomparable),
    )


# ---------------------------------------------------------------------------
# Claim matrix
# ---------------------------------------------------------------------------


@record
class ClaimRow(Record):
    """One claim's status, the rows it rests on and its scope."""

    claim: str
    status: str
    rows_used: int
    scope: str

    def __post_init__(self) -> None:
        if self.status not in CLAIM_STATUSES:
            raise ReportError("unknown_claim", f"unknown status label {self.status!r}")


@record
class ClaimMatrix(Record):
    """The status of every claim the report makes."""

    rows: tuple[ClaimRow, ...]

    def row(self, claim: str) -> ClaimRow:
        for row in self.rows:
            if row.claim == claim:
                return row
        raise ReportError("unknown_claim", f"no claim row {claim!r}")


def _decision_claim(study: DecisionStudyReport | None) -> ClaimRow:
    if study is None or study.admitted == 0:
        return ClaimRow(
            claim="controller_decision_study",
            status="not_claimed",
            rows_used=0,
            scope="no admitted decision-study rows",
        )
    rows = study.admitted
    if study.blocked == 0 and study.comparable_cells > 0 and (
        study.reversal_cells == study.comparable_cells
    ):
        return ClaimRow(
            claim="controller_decision_study",
            status="supported",
            rows_used=rows,
            scope=(
                f"tested grid only: {study.reversal_cells}/{study.comparable_cells} "
                "comparable cells reverse clean-vs-stressed selection"
            ),
        )
    return ClaimRow(
        claim="controller_decision_study",
        status="caveated",
        rows_used=rows,
        scope=(
            f"{study.reversal_cells}/{study.comparable_cells} reversals, "
            f"{study.blocked} blocked"
        ),
    )


def claim_matrix(
    gate_rep: GateReport,
    study: DecisionStudyReport | None = None,
    diagnostics: Mapping[str, Any] | None = None,
) -> ClaimMatrix:
    """Build the claim-support matrix, one row per ``CLAIM_KEYS`` entry in
    order, from gate, study, and diagnostic inputs."""

    diagnostics = diagnostics or {}
    rows: list[ClaimRow] = []
    for claim in CLAIM_KEYS:
        if claim == "substrate_evidence_gate":
            if gate_rep.admitted == 0:
                rows.append(ClaimRow(claim, "not_claimed", 0, "no admitted rows"))
            elif gate_rep.validation_failures == 0 and not gate_rep.missing_strata:
                rows.append(
                    ClaimRow(
                        claim,
                        "supported",
                        gate_rep.admitted,
                        "canonical surface; all planned strata present, zero validation failures",
                    )
                )
            else:
                rows.append(
                    ClaimRow(
                        claim,
                        "caveated",
                        gate_rep.admitted,
                        f"missing strata {list(gate_rep.missing_strata)}, "
                        f"{gate_rep.validation_failures} validation failures",
                    )
                )
        elif claim == "real_task_anchors":
            count = gate_rep.by_stratum.get("real_task_anchor", 0)
            status = "supported" if count else "not_claimed"
            rows.append(ClaimRow(claim, status, count, "scripted/calibration anchors"))
        elif claim == "llm_driver_traffic":
            count = gate_rep.by_stratum.get("llm_driver", 0)
            status = "supported" if count else "not_claimed"
            rows.append(
                ClaimRow(claim, status, count, "traffic and cost evidence, not capability")
            )
        elif claim == "verifier_controls":
            gold_pass = int(diagnostics.get("gold_pass", 0))
            gold_total = int(diagnostics.get("gold_total", 0))
            noop_fail = int(diagnostics.get("noop_fail", 0))
            noop_total = int(diagnostics.get("noop_total", 0))
            total = gold_total + noop_total
            if total == 0:
                rows.append(ClaimRow(claim, "not_claimed", 0, "no control rows"))
            elif gold_pass == gold_total > 0 and noop_fail == noop_total > 0:
                rows.append(
                    ClaimRow(
                        claim,
                        "supported",
                        total,
                        f"gold {gold_pass}/{gold_total} pass, noop {noop_fail}/{noop_total} fail",
                    )
                )
            else:
                rows.append(
                    ClaimRow(
                        claim,
                        "caveated",
                        total,
                        f"gold {gold_pass}/{gold_total}, noop {noop_fail}/{noop_total}",
                    )
                )
        elif claim == "replay_fidelity":
            if "r1_reduction" not in diagnostics:
                rows.append(ClaimRow(claim, "not_claimed", 0, "no replay diagnostic"))
            else:
                reduction = float(diagnostics["r1_reduction"])
                match_rate = float(diagnostics.get("r1_terminal_match_rate", 0.0))
                count = int(diagnostics.get("r1_runs", 0))
                if reduction >= 0.99 and match_rate == 1.0:
                    rows.append(
                        ClaimRow(
                            claim,
                            "supported",
                            count,
                            f"trace-replay reduction {reduction:.4f}, all terminals match",
                        )
                    )
                elif reduction >= 0.9:
                    rows.append(
                        ClaimRow(claim, "supported_bounded", count, f"reduction {reduction:.4f}")
                    )
                else:
                    rows.append(
                        ClaimRow(claim, "caveated", count, f"reduction {reduction:.4f}")
                    )
        elif claim == "throughput_scaling":
            series = [float(x) for x in diagnostics.get("throughput_eps", [])]
            if not series:
                rows.append(ClaimRow(claim, "not_claimed", 0, "no scaling diagnostic"))
            elif all(a < b for a, b in zip(series, series[1:])):
                rows.append(
                    ClaimRow(
                        claim,
                        "supported",
                        len(series),
                        "episodes/s strictly increasing across concurrency levels",
                    )
                )
            else:
                rows.append(ClaimRow(claim, "caveated", len(series), "trend not monotone"))
        elif claim == "stronger_driver_sanity":
            episodes = int(diagnostics.get("sanity_episodes", 0))
            if episodes == 0:
                rows.append(ClaimRow(claim, "not_claimed", 0, "no sanity rows"))
            else:
                rows.append(
                    ClaimRow(
                        claim,
                        "appendix_only",
                        episodes,
                        "separate sanity evidence; non-comparative",
                    )
                )
        elif claim == "controller_decision_study":
            rows.append(_decision_claim(study))
    return ClaimMatrix(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Rendering and persistence
# ---------------------------------------------------------------------------


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(col) for col in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(col.ljust(widths[index]) for index, col in enumerate(header)),
        "  ".join("-" * widths[index] for index in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def render_decision_table(report: DecisionStudyReport) -> str:
    header = ("Backend", "Seed", "Budget", "Setting", "hook_a_only", "hook_b_only", "Selected")
    rows = []
    for cell in sorted(
        report.cells, key=lambda c: (c.backend, c.seed, c.budget, c.setting)
    ):
        rows.append(
            (
                cell.backend,
                str(cell.seed),
                str(cell.budget),
                cell.setting,
                f"{cell.auc_by_variant.get('hook_a_only', float('nan')):.6f}",
                f"{cell.auc_by_variant.get('hook_b_only', float('nan')):.6f}",
                cell.selected,
            )
        )
    footer = (
        f"admitted={report.admitted} blocked={report.blocked} "
        f"comparable={report.comparable_cells} reversals={report.reversal_cells}\n"
    )
    return _render_table(header, rows) + footer


def render_latency_table(breakdowns: Mapping[str, LatencyBreakdown]) -> str:
    header = ("Group", "Count", "Mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "Wait(ms)", "eps/s")
    rows = []
    for key in sorted(breakdowns):
        block = breakdowns[key]
        rows.append(
            (
                key,
                str(block.count),
                f"{block.mean_ms:.1f}",
                f"{block.p50_ms:.1f}",
                f"{block.p95_ms:.1f}",
                f"{block.p99_ms:.1f}",
                f"{block.mean_queue_wait_ms:.1f}",
                f"{block.throughput_eps:.2f}",
            )
        )
    return _render_table(header, rows)


def render_claim_matrix(matrix: ClaimMatrix) -> str:
    header = ("Claim", "Status", "Rows", "Scope")
    rows = [
        (row.claim, row.status, str(row.rows_used), row.scope) for row in matrix.rows
    ]
    return _render_table(header, rows)


def save_report_outputs(
    out_dir: Path | str,
    latency: Mapping[str, LatencyBreakdown] | None = None,
    invalid_actions: InvalidActionReport | None = None,
    study: DecisionStudyReport | None = None,
    matrix: ClaimMatrix | None = None,
) -> None:
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    if latency is not None:
        doc = {key: block.to_doc() for key, block in sorted(latency.items())}
        write_json(base / "latency_tables.json", doc)
        (base / "latency_tables.txt").write_text(render_latency_table(latency), encoding="utf-8")
    if invalid_actions is not None:
        write_json(base / "invalid_actions.json", invalid_actions)
    if study is not None:
        write_json(base / "decision_study.json", study)
        (base / "decision_study.txt").write_text(render_decision_table(study), encoding="utf-8")
    if matrix is not None:
        write_json(base / "claim_matrix.json", matrix)
        (base / "claim_matrix.txt").write_text(render_claim_matrix(matrix), encoding="utf-8")


def load_study_report(path: Path | str) -> DecisionStudyReport:
    doc = read_json(path, ReportError, "missing_study_report", "invalid_study_report")
    return DecisionStudyReport.from_doc(doc)


# ---------------------------------------------------------------------------
# The report verb
# ---------------------------------------------------------------------------


def _summary_job(runset: RunSet, index: int) -> RunSummary:
    """Decode the event log of run ``index`` and keep only its summary."""

    run = runset.runs[index]
    return summarize_run(runset.events_for(run), run)


def _diagnostics(
    runset: RunSet, verdicts: Mapping[str, GateDecision], summaries: Mapping[str, RunSummary]
) -> dict[str, Any]:
    """Diagnostic inputs for the claim matrix, computed from admitted rows.

    The R1 replay of every admitted web run with a log comes from its summary.
    """

    diagnostics: dict[str, Any] = {}
    gold_total = gold_pass = noop_total = noop_fail = 0
    sanity_episodes = 0
    r1_reductions: list[float] = []
    r1_matches = 0
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
        if run.family == "web" and run.event_log_ref:
            reduction, terminal_match = summaries[run.run_id].r1
            r1_reductions.append(reduction)
            r1_matches += 1 if terminal_match else 0
    if gold_total or noop_total:
        diagnostics.update(
            gold_total=gold_total, gold_pass=gold_pass,
            noop_total=noop_total, noop_fail=noop_fail,
        )
    if sanity_episodes:
        diagnostics["sanity_episodes"] = sanity_episodes
    if r1_reductions:
        diagnostics["r1_reduction"] = float_sum(r1_reductions) / len(r1_reductions)
        diagnostics["r1_terminal_match_rate"] = r1_matches / len(r1_reductions)
        diagnostics["r1_runs"] = len(r1_reductions)
    diagnostics["throughput_eps"] = [
        simulate_family_throughput("code", concurrency, episodes=40, seed=7)
        for concurrency in (1, 4, 8)
    ]
    return diagnostics


def report_runset(
    runset_path: Path | str,
    gate_dir: Path | str,
    out_dir: Path | str,
    study_path: Path | str | None = None,
) -> ClaimMatrix:
    """Write the claim-scoped report of a gated runset; returns its claim matrix.

    The latency tables and the invalid-action report cover the admitted runs
    outside the decision study; the diagnostics cover every admitted run. The
    logs read are those of the admitted runs outside the decision study, then
    those of the admitted decision-study web runs (for the R1 diagnostic), each
    once, as one job on ``min(logs, usable CPUs)`` worker processes. A job
    returns only the run's ``RunSummary``; the first failing job in that order
    raises, before the study report at ``study_path`` is read.
    """

    runset = load_runset(runset_path)
    gate_dir = Path(gate_dir)
    decisions = load_decisions(gate_dir / "gate_decisions.jsonl")
    canonical = load_gate_report(gate_dir / "gate_report.json")

    verdicts = {decision.run_id: decision for decision in decisions}
    admitted = [
        (index, run, verdicts[run.run_id].stratum == "decision_study")
        for index, run in enumerate(runset.runs)
        if run.run_id in verdicts and verdicts[run.run_id].verdict == "admitted"
    ]
    reported = [run for _, run, in_study in admitted if not in_study]
    jobs = [index for index, run, in_study in admitted if not in_study and run.event_log_ref]
    jobs += [
        index for index, run, in_study in admitted
        if in_study and run.family == "web" and run.event_log_ref
    ]
    summaries = dict(zip(
        (runset.runs[index].run_id for index in jobs),
        map_runs(_summary_job, runset, jobs, cap=len(jobs)),
    ))

    latency = latency_decomposition(
        reported, summaries, [verdicts[run.run_id] for run in reported]
    )
    logged = [summaries[run.run_id] for run in reported if run.event_log_ref]
    invalid = (
        invalid_action_rate(logged) if any(s.counts_by_status for s in logged) else None
    )
    study = load_study_report(study_path) if study_path else None
    matrix = claim_matrix(canonical, study, _diagnostics(runset, verdicts, summaries))
    save_report_outputs(
        out_dir, latency=latency, invalid_actions=invalid, study=study, matrix=matrix
    )
    return matrix


__all__ = [
    "CLAIM_KEYS",
    "CLAIM_STATUSES",
    "ClaimMatrix",
    "ClaimRow",
    "DecisionCell",
    "DecisionStudyReport",
    "InvalidActionReport",
    "LatencyBreakdown",
    "ReportError",
    "RunSummary",
    "STUDY_SETTINGS",
    "VARIANT_LABELS",
    "claim_matrix",
    "decision_study",
    "invalid_action_rate",
    "latency_breakdown",
    "latency_decomposition",
    "load_study_report",
    "nearest_rank",
    "render_claim_matrix",
    "render_decision_table",
    "render_latency_table",
    "report_runset",
    "reward_auc",
    "require_admitted",
    "save_report_outputs",
    "select_variant",
    "summarize_run",
]
