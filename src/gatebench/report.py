"""Claim-scoped reporting: latency decomposition, reward AUC, decision study.

Reports consume admitted rows only; feeding a rejected or quarantined run into
a report input raises. Percentiles are nearest-rank over sorted samples, the
reward AUC is the left-continuous step integral normalized by the horizon, and
variant selection breaks ties lexicographically by variant label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Final, Iterable, Mapping, Sequence

from .gate import GateDecision, GateReport
from .runner import RewardPoint, RunRecord, RunSet
from .schema import EventRecord, GatebenchError, canonical_json

VARIANT_LABELS: Final[tuple[str, str]] = ("hook_a_only", "hook_b_only")

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


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_queue_wait_ms: float
    throughput_eps: float

    def to_doc(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
            "throughput_eps": self.throughput_eps,
        }


def latency_breakdown(
    step_latencies_ms: Sequence[float],
    queue_waits_ms: Sequence[float],
    episodes_completed: int,
    wall_span_ms: float,
) -> LatencyBreakdown:
    if not step_latencies_ms:
        raise ReportError("no_samples", "latency breakdown needs at least one sample")
    ordered = sorted(step_latencies_ms)
    mean_wait = sum(queue_waits_ms) / len(queue_waits_ms) if queue_waits_ms else 0.0
    throughput = episodes_completed / (wall_span_ms / 1000.0) if wall_span_ms > 0 else 0.0
    return LatencyBreakdown(
        count=len(ordered),
        mean_ms=sum(ordered) / len(ordered),
        p50_ms=nearest_rank(ordered, 50.0),
        p95_ms=nearest_rank(ordered, 95.0),
        p99_ms=nearest_rank(ordered, 99.0),
        mean_queue_wait_ms=mean_wait,
        throughput_eps=throughput,
    )


def latency_decomposition(
    runs: Sequence[RunRecord],
    events_by_run: Mapping[str, Sequence[EventRecord]],
    decisions: Sequence[GateDecision],
) -> dict[str, LatencyBreakdown]:
    """Per-(family, concurrency) latency breakdowns over admitted runs.

    Samples are environment step service times; queue waits come from verifier
    outcomes; throughput is completed episodes over the run's wall-clock span.
    Empty groups are omitted.
    """

    require_admitted(runs, decisions)
    grouped: dict[str, dict[str, Any]] = {}
    for run in runs:
        key = f"{run.family}/c{run.concurrency}"
        bucket = grouped.setdefault(
            key, {"steps": [], "waits": [], "episodes": 0, "span": 0.0}
        )
        for event in events_by_run.get(run.run_id, ()):
            if event.kind == "env_step_end":
                bucket["steps"].append(float(event.payload["service_time_ms"]))
            elif event.kind == "verifier_outcome":
                bucket["waits"].append(float(event.payload["queue_wait_ms"]))
            elif event.kind == "terminal_result":
                bucket["episodes"] += 1
            bucket["span"] = max(bucket["span"], event.wall_clock_ms)
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


@dataclass(frozen=True, slots=True)
class InvalidActionReport:
    rate: float
    total_actions: int
    counts_by_status: dict[str, int]

    def to_doc(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "total_actions": self.total_actions,
            "counts_by_status": dict(sorted(self.counts_by_status.items())),
        }


def invalid_action_rate(events: Iterable[EventRecord]) -> InvalidActionReport:
    counts: dict[str, int] = {}
    invalid = 0
    total = 0
    for event in events:
        if event.kind != "action_parsed":
            continue
        total += 1
        status = str(event.payload["parse_status"])
        counts[status] = counts.get(status, 0) + 1
        if bool(event.payload["invalid_action"]):
            invalid += 1
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


@dataclass(frozen=True, slots=True)
class DecisionCell:
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

    def to_doc(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "budget": self.budget,
            "setting": self.setting,
            "auc_by_variant": dict(sorted(self.auc_by_variant.items())),
            "selected": self.selected,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "DecisionCell":
        return cls(
            backend=str(doc["backend"]),
            seed=int(doc["seed"]),
            budget=int(doc["budget"]),
            setting=str(doc["setting"]),
            auc_by_variant={str(k): float(v) for k, v in doc["auc_by_variant"].items()},
            selected=str(doc["selected"]),
        )


@dataclass(frozen=True, slots=True)
class DecisionStudyReport:
    cells: tuple[DecisionCell, ...]
    admitted: int
    blocked: int
    comparable_cells: int
    reversal_cells: int
    incomparable: tuple[str, ...] = ()

    def to_doc(self) -> dict[str, Any]:
        return {
            "cells": [cell.to_doc() for cell in self.cells],
            "admitted": self.admitted,
            "blocked": self.blocked,
            "comparable_cells": self.comparable_cells,
            "reversal_cells": self.reversal_cells,
            "incomparable": list(self.incomparable),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "DecisionStudyReport":
        return cls(
            cells=tuple(DecisionCell.from_doc(item) for item in doc["cells"]),
            admitted=int(doc["admitted"]),
            blocked=int(doc["blocked"]),
            comparable_cells=int(doc["comparable_cells"]),
            reversal_cells=int(doc["reversal_cells"]),
            incomparable=tuple(str(item) for item in doc.get("incomparable", [])),
        )


@dataclass(frozen=True, slots=True)
class StudyGrid:
    """Grid specification the decision study aggregates over."""

    backends: tuple[str, ...] = ("vllm", "sglang")
    seeds: tuple[int, ...] = (0, 1)
    budgets: tuple[int, ...] = (5, 7, 9)
    settings: tuple[str, ...] = ("clean", "medium_live_stressed")
    variants: tuple[str, ...] = VARIANT_LABELS
    horizons_ms: dict[str, float] = field(
        default_factory=lambda: {"clean": 60_000.0, "medium_live_stressed": 300_000.0}
    )


def decision_study(
    runset: RunSet,
    decisions: Sequence[GateDecision],
    grid: StudyGrid | None = None,
) -> DecisionStudyReport:
    """Aggregate admitted controller-study runs into per-cell variant choices.

    One cell per (backend, seed, budget, setting); the selected variant is the
    reward-AUC argmax. A (backend, seed, budget) group is comparable when both
    settings have complete cells; reversals count comparable groups whose
    clean and stressed selections differ.
    """

    grid = grid or StudyGrid()
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
        horizon = run.horizon_ms or grid.horizons_ms.get(run.setting_label)
        if horizon is None:
            raise ReportError("invalid_horizon", f"no horizon for {run.setting_label}")
        key = (run.backend, run.seed, run.driver.budget, run.setting_label)
        aucs.setdefault(key, {})[run.variant] = reward_auc(
            list(run.reward_trajectory), horizon
        )

    cells: list[DecisionCell] = []
    incomparable: list[str] = []
    for key in sorted(aucs):
        backend, seed, budget, setting = key
        by_variant = aucs[key]
        if set(by_variant) != set(grid.variants):
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
        if set(selections) != set(grid.settings):
            incomparable.append(f"{group[0]}/s{group[1]}/b{group[2]}")
            continue
        comparable += 1
        choices = {selections[setting] for setting in grid.settings}
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


@dataclass(frozen=True, slots=True)
class ClaimRow:
    claim: str
    status: str
    rows_used: int
    scope: str

    def __post_init__(self) -> None:
        if self.status not in CLAIM_STATUSES:
            raise ReportError("unknown_claim", f"unknown status label {self.status!r}")

    def to_doc(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "status": self.status,
            "rows_used": self.rows_used,
            "scope": self.scope,
        }


@dataclass(frozen=True, slots=True)
class ClaimMatrix:
    rows: tuple[ClaimRow, ...]

    def to_doc(self) -> dict[str, Any]:
        return {"rows": [row.to_doc() for row in self.rows]}

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
    claims: Sequence[str] | None = None,
) -> ClaimMatrix:
    """Build the claim-support matrix from gate, study, and diagnostic inputs."""

    diagnostics = diagnostics or {}
    selected = tuple(claims or CLAIM_KEYS)
    for claim in selected:
        if claim not in CLAIM_KEYS:
            raise ReportError("unknown_claim", f"unknown claim key {claim!r}")

    rows: list[ClaimRow] = []
    for claim in selected:
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
        (base / "latency_tables.json").write_text(canonical_json(doc) + "\n", encoding="utf-8")
        (base / "latency_tables.txt").write_text(render_latency_table(latency), encoding="utf-8")
    if invalid_actions is not None:
        (base / "invalid_actions.json").write_text(
            canonical_json(invalid_actions.to_doc()) + "\n", encoding="utf-8"
        )
    if study is not None:
        (base / "decision_study.json").write_text(
            canonical_json(study.to_doc()) + "\n", encoding="utf-8"
        )
        (base / "decision_study.txt").write_text(render_decision_table(study), encoding="utf-8")
    if matrix is not None:
        (base / "claim_matrix.json").write_text(
            canonical_json(matrix.to_doc()) + "\n", encoding="utf-8"
        )
        (base / "claim_matrix.txt").write_text(render_claim_matrix(matrix), encoding="utf-8")


def load_study_report(path: Path | str) -> DecisionStudyReport:
    return DecisionStudyReport.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


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
    "StudyGrid",
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
    "reward_auc",
    "require_admitted",
    "save_report_outputs",
    "select_variant",
]
