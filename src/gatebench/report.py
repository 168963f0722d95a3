"""Claim-scoped reporting: latency decomposition, reward AUC, decision study.

Reports consume admitted rows only; feeding a rejected or quarantined run into
a report input raises. Percentiles are nearest-rank over sorted samples, the
reward AUC is the left-continuous step integral normalized by the horizon, and
variant selection breaks ties lexicographically by variant label.

``report_runset`` is the ``report`` verb. It reads each event log it needs
once, on the run pool (``runner.map_runs``): a job decodes one run's log,
reduces it (``runner.reduce_log``) and sends back only its ``RunSummary``.
The latency tables, the invalid-action report and the ``ClaimEvidence`` are
aggregated from the summaries in runset order, and the claim matrix applies
one rule per claim (``CLAIM_RULES``) to the gate report, the study report
and that evidence.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Callable, Final, Iterable, Mapping, Sequence

from .gate import GateDecision, GateReport, gate_report, load_decisions
from .records import record
from .replay import log_replay_class, replay_r1
from .runner import RewardPoint, RunRecord, RunSet, load_runset, map_runs, reduce_log
from .schema import EventRecord, GatebenchError, Record, float_sum, read_json, write_json
from .simenv import CLEAN_LABEL, STRESSED_LABEL, simulate_family_throughput

VARIANT_LABELS: Final[tuple[str, str]] = ("hook_a_only", "hook_b_only")
# The two settings a decision-study group compares.
STUDY_SETTINGS: Final[tuple[str, str]] = (CLEAN_LABEL, STRESSED_LABEL)

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

    Samples keep the order of the log. ``episode_statuses`` counts the
    ``episode_end`` events by status (0 for a status none has).
    ``patch_quality`` is the one its ``verifier_outcome`` events record
    (``gold`` and ``noop`` for verifier controls), if any. ``r1`` is the
    run's R1 replay as (reduction, terminal match), present for a run whose
    log records class R1, summarized with its record.
    """

    service_times_ms: list[float]
    queue_waits_ms: list[float]
    episodes: int
    wall_span_ms: float
    counts_by_status: dict[str, int]
    invalid_actions: int
    episode_statuses: Counter[str]
    patch_quality: str | None = None
    r1: tuple[float, bool] | None = None


def summarize_run(events: Sequence[EventRecord], run: RunRecord | None = None) -> RunSummary:
    """One run's ``RunSummary``, from ``runner.reduce_log`` of its events.

    Service times come from environment steps, queue waits and the patch
    quality from verifier outcomes, episodes from terminal results, parse
    statuses from parsed actions, episode statuses from episode ends
    (``invalid_log`` for one that is not a string), and the wall span is the
    latest event clock. Given the run's record, its ``family`` label is
    checked against the log (``replay.log_replay_class``), and when the log's
    class is R1 the summary also holds ``replay.replay_r1`` of the reduced log.
    """

    log = reduce_log(events)
    ends: Counter[str] = Counter()
    for end in log.ends:
        if type(status := end.payload["status"]) is not str:
            message = f"event {end.sequence}: episode_end status {status!r} is not a string"
            raise ReportError("invalid_log", f"run {end.run_id}: {message}")
        ends[status] += 1
    steps = [float(service_ms) for _, service_ms, _, _ in log.steps]
    outcomes = log.verifier_outcomes
    waits = [float(event.payload["queue_wait_ms"]) for event in outcomes]
    quality = outcomes[-1].payload.get("patch_quality") if outcomes else None
    r1 = None
    if run is not None and log_replay_class(run, events) == "R1":
        result = replay_r1(run, log)
        r1 = (result.reduction, result.terminal_match)
    return RunSummary(
        steps, waits, len(log.terminals), log.latest_ms, log.parse_statuses,
        log.invalid_actions, ends, quality, r1,
    )


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
    ``runs``. Empty groups are omitted.
    """

    require_admitted(runs, decisions)
    grouped: dict[str, list[RunSummary]] = {}
    for run in runs:
        grouped.setdefault(f"{run.family}/c{run.concurrency}", []).append(summaries[run.run_id])
    output: dict[str, LatencyBreakdown] = {}
    for key in sorted(grouped):
        group = grouped[key]
        steps = [ms for summary in group for ms in summary.service_times_ms]
        if steps:
            waits = [ms for summary in group for ms in summary.queue_waits_ms]
            episodes = sum(summary.episodes for summary in group)
            span = max(0.0, *(summary.wall_span_ms for summary in group))
            output[key] = latency_breakdown(steps, waits, episodes, span)
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


def _count_reversals(cells: Iterable[DecisionCell]) -> tuple[int, int, list[str]]:
    """(comparable groups, reversals, incomparable groups) over ``cells``.

    A (backend, seed, budget) group is comparable when it has a cell in each
    of ``STUDY_SETTINGS``, and reverses when their selections differ.
    """

    by_group: dict[tuple[str, int, int], dict[str, str]] = {}
    for cell in cells:
        by_group.setdefault((cell.backend, cell.seed, cell.budget), {})[cell.setting] = (
            cell.selected
        )
    comparable = reversals = 0
    incomparable: list[str] = []
    for group, selections in sorted(by_group.items()):
        if set(selections) != set(STUDY_SETTINGS):
            incomparable.append(f"{group[0]}/s{group[1]}/b{group[2]}")
            continue
        comparable += 1
        if len({selections[setting] for setting in STUDY_SETTINGS}) > 1:
            reversals += 1
    return comparable, reversals, incomparable


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

    comparable, reversals, groups = _count_reversals(cells)
    return DecisionStudyReport(
        cells=tuple(cells),
        admitted=len(admitted),
        blocked=blocked,
        comparable_cells=comparable,
        reversal_cells=reversals,
        incomparable=tuple(incomparable + groups),
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


@record
class ClaimEvidence:
    """What the claim rules read beyond the gate report and the study report.

    ``report_runset`` counts it over the admitted runs from their verified
    event logs: control and sanity episodes by ``episode_end`` status, and the
    R1 replay (reduction, terminal match) of each run whose log records class
    R1, in runset order.
    ``throughput_eps`` is the modelled throughput at each concurrency level.
    """

    gold_pass: int = 0
    gold_total: int = 0
    noop_fail: int = 0
    noop_total: int = 0
    sanity_episodes: int = 0
    r1_reductions: tuple[float, ...] = ()
    r1_terminal_matches: int = 0
    throughput_eps: tuple[float, ...] = ()


# A claim rule reads the canonical gate report, the study report (None without
# one) and the claim evidence, and gives its row's (status, rows used, scope).
StudyInput = DecisionStudyReport | None
Verdict = tuple[str, int, str]
ClaimRule = Callable[[GateReport, StudyInput, ClaimEvidence], Verdict]


def _gate_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    if gate.admitted == 0:
        return "not_claimed", 0, "no admitted rows"
    if gate.validation_failures == 0 and not gate.missing_strata:
        return "supported", gate.admitted, (
            "canonical surface; all planned strata present, zero validation failures"
        )
    return "caveated", gate.admitted, (
        f"missing strata {list(gate.missing_strata)}, "
        f"{gate.validation_failures} validation failures"
    )


def _stratum_rule(stratum: str, scope: str) -> ClaimRule:
    """Supported by any admitted row of ``stratum``; the gate omits empty strata."""

    def rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
        count = gate.by_stratum.get(stratum, 0)
        return ("supported" if count else "not_claimed"), count, scope

    return rule


def _verifier_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    gold = f"gold {evidence.gold_pass}/{evidence.gold_total}"
    noop = f"noop {evidence.noop_fail}/{evidence.noop_total}"
    total = evidence.gold_total + evidence.noop_total
    if total == 0:
        return "not_claimed", 0, "no control rows"
    if evidence.gold_pass == evidence.gold_total > 0 and (
        evidence.noop_fail == evidence.noop_total > 0
    ):
        return "supported", total, f"{gold} pass, {noop} fail"
    return "caveated", total, f"{gold}, {noop}"


def _replay_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    runs = len(evidence.r1_reductions)
    if runs == 0:
        return "not_claimed", 0, "no replay diagnostic"
    reduction = float_sum(evidence.r1_reductions) / runs
    if reduction >= 0.99 and evidence.r1_terminal_matches == runs:
        return "supported", runs, f"trace-replay reduction {reduction:.4f}, all terminals match"
    if reduction >= 0.9:
        return "supported_bounded", runs, f"reduction {reduction:.4f}"
    return "caveated", runs, f"reduction {reduction:.4f}"


def _throughput_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    series = evidence.throughput_eps
    if not series:
        return "not_claimed", 0, "no scaling diagnostic"
    if all(a < b for a, b in zip(series, series[1:])):
        return "supported", len(series), "episodes/s strictly increasing across concurrency levels"
    return "caveated", len(series), "trend not monotone"


def _sanity_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    if evidence.sanity_episodes == 0:
        return "not_claimed", 0, "no sanity rows"
    return "appendix_only", evidence.sanity_episodes, "separate sanity evidence; non-comparative"


def _decision_rule(gate: GateReport, study: StudyInput, evidence: ClaimEvidence) -> Verdict:
    if study is None or study.admitted == 0:
        return "not_claimed", 0, "no admitted decision-study rows"
    counts = f"{study.reversal_cells}/{study.comparable_cells}"
    if study.blocked == 0 and 0 < study.comparable_cells == study.reversal_cells:
        return "supported", study.admitted, (
            f"tested grid only: {counts} comparable cells reverse clean-vs-stressed selection"
        )
    return "caveated", study.admitted, f"{counts} reversals, {study.blocked} blocked"


# One rule per claim, in the order of the matrix's rows.
CLAIM_RULES: Final[tuple[tuple[str, ClaimRule], ...]] = (
    ("substrate_evidence_gate", _gate_rule),
    ("real_task_anchors", _stratum_rule("real_task_anchor", "scripted/calibration anchors")),
    ("llm_driver_traffic",
     _stratum_rule("llm_driver", "traffic and cost evidence, not capability")),
    ("verifier_controls", _verifier_rule),
    ("replay_fidelity", _replay_rule),
    ("throughput_scaling", _throughput_rule),
    ("stronger_driver_sanity", _sanity_rule),
    ("controller_decision_study", _decision_rule),
)

CLAIM_KEYS: Final[tuple[str, ...]] = tuple(key for key, _ in CLAIM_RULES)


def claim_matrix(
    gate_rep: GateReport,
    study: DecisionStudyReport | None = None,
    evidence: ClaimEvidence = ClaimEvidence(),
) -> ClaimMatrix:
    """The claim-support matrix: one row per ``CLAIM_RULES`` entry, in order."""

    return ClaimMatrix(rows=tuple(
        ClaimRow(claim, *rule(gate_rep, study, evidence)) for claim, rule in CLAIM_RULES
    ))


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
    """Read a study report that agrees with its own cells (``invalid_study_report``
    otherwise): each cell selects the argmax of its AUCs, and the comparable and
    reversal counts are those of the cells."""

    doc = read_json(path, ReportError, "missing_study_report", "invalid_study_report")
    report = DecisionStudyReport.from_doc(doc)
    for cell in report.cells:
        if not cell.auc_by_variant or cell.selected != select_variant(cell.auc_by_variant):
            raise ReportError(
                "invalid_study_report",
                f"{path}: cell {cell.backend}/s{cell.seed}/b{cell.budget}/{cell.setting} "
                f"selects {cell.selected!r}, not the argmax of its AUCs",
            )
    comparable, reversals, _ = _count_reversals(report.cells)
    if (report.reversal_cells, report.comparable_cells) != (reversals, comparable):
        raise ReportError(
            "invalid_study_report",
            f"{path}: {report.reversal_cells}/{report.comparable_cells} reversals stated, "
            f"{reversals}/{comparable} in its cells",
        )
    return report


# ---------------------------------------------------------------------------
# The report verb
# ---------------------------------------------------------------------------


def _summary_job(runset: RunSet, index: int) -> RunSummary:
    """Decode the event log of run ``index`` and keep only its summary."""

    run = runset.runs[index]
    return summarize_run(runset.events_for(run), run)


def _claim_evidence(logged: Iterable[tuple[RunRecord, RunSummary]]) -> ClaimEvidence:
    """The ``ClaimEvidence`` of admitted runs, in order, each with its log summary."""

    gold_pass = gold_total = noop_fail = noop_total = sanity_episodes = matches = 0
    reductions: list[float] = []
    for run, summary in logged:
        statuses = summary.episode_statuses
        episodes = sum(statuses.values())
        if summary.patch_quality == "gold":
            gold_total += episodes
            gold_pass += statuses["success"]
        elif summary.patch_quality == "noop":
            noop_total += episodes
            noop_fail += statuses["failure"]
        if run.driver.driver_type == "sanity":
            sanity_episodes += episodes
        if summary.r1 is not None:
            reduction, terminal_match = summary.r1
            reductions.append(reduction)
            matches += terminal_match
    throughput = tuple(
        simulate_family_throughput("code", concurrency, episodes=40, seed=7)
        for concurrency in (1, 4, 8)
    )
    return ClaimEvidence(
        gold_pass, gold_total, noop_fail, noop_total, sanity_episodes,
        tuple(reductions), matches, throughput,
    )


def report_runset(
    runset_path: Path | str,
    gate_dir: Path | str,
    out_dir: Path | str,
    study_path: Path | str | None = None,
) -> ClaimMatrix:
    """Write the claim-scoped report of a gated runset; returns its claim matrix.

    The report trusts only the gate decisions in ``gate_decisions.jsonl``
    under ``gate_dir``. They must hold one decision per run, in runset order
    (``decision_set_mismatch`` otherwise), and the canonical ``GateReport``
    behind the claim matrix is derived from them by ``gate.gate_report``. The
    latency tables and the invalid-action report cover the admitted runs
    outside the decision study; the claim evidence covers every admitted run,
    from its log and no copy in ``runset.json``. The logs read are those of
    every admitted run (the gate admits only resolved runs, and ``load_runset``
    holds each of those to its log), in runset order, each once through
    ``RunSet.events_for``, as one job on ``min(logs, usable CPUs)`` worker
    processes. A job returns only the run's ``RunSummary``; the first failing
    job in that order raises, before the study report at ``study_path`` is
    read. A run whose ``family`` label disagrees with its log's replay class
    fails its job with ``family_mismatch``.
    """

    runset = load_runset(runset_path)
    decisions = load_decisions(Path(gate_dir) / "gate_decisions.jsonl")
    canonical = gate_report(runset, decisions, "canonical")

    verdicts = {decision.run_id: decision for decision in decisions}
    admitted = [
        (index, run, decision.stratum == "decision_study")
        for index, (run, decision) in enumerate(zip(runset.runs, decisions))
        if decision.verdict == "admitted"
    ]
    reported = [run for _, run, in_study in admitted if not in_study]
    jobs = [index for index, _, _ in admitted]
    summaries = dict(zip(
        (run.run_id for _, run, _ in admitted),
        map_runs(_summary_job, runset, jobs, cap=len(jobs)),
    ))

    latency = latency_decomposition(
        reported, summaries, [verdicts[run.run_id] for run in reported]
    )
    logged = [summaries[run.run_id] for run in reported]
    invalid = (
        invalid_action_rate(logged) if any(s.counts_by_status for s in logged) else None
    )
    study = load_study_report(study_path) if study_path else None
    evidence = _claim_evidence((run, summaries[run.run_id]) for _, run, _ in admitted)
    matrix = claim_matrix(canonical, study, evidence)
    save_report_outputs(
        out_dir, latency=latency, invalid_actions=invalid, study=study, matrix=matrix
    )
    return matrix


__all__ = [
    "CLAIM_KEYS",
    "CLAIM_RULES",
    "CLAIM_STATUSES",
    "ClaimEvidence",
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
