"""Simulated workload families with a deterministic clock and verifier queue.

Three families share one environment contract: ``micro`` is a short-horizon
profiling family, ``web`` a session-based interaction family, and ``code`` a
patch-and-verify family whose verification flows through a FIFO multi-server
queue. All timing comes from a simulated clock driven by seeded draws, so a
fixed seed reproduces the full (state, outcome, timing) trajectory bit for bit.

Operating settings perturb the environment: the stressed setting scales
environment latency, inflates the top decile of draws, adds verifier
contention (modeled as inflated effective service demand, the queueing
equivalent of boosted arrivals), and injects step faults that surface as
retry events and occasionally as missing-terminal samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Final

from .drivers import Action, draw_lognormal
from .manifest import TaskManifest
from .records import record
from .schema import GatebenchError, Record, TimingFields, float_sum

# Family base service times, calibrated to order of magnitude only; these are
# configuration values, not measured claims.
FAMILY_BASE_SERVICE_MS: Final[dict[str, float]] = {
    "micro": 15.0,
    "web": 75.0,
    "code": 200.0,
}
FAMILY_DEFAULT_GOAL: Final[dict[str, int]] = {"micro": 3, "web": 5, "code": 1}
SERVICE_CV: Final = 0.2
TAIL_DECILE: Final = 0.9

CLEAN_LABEL: Final = "clean"
STRESSED_LABEL: Final = "medium_live_stressed"
SETTING_LABELS: Final[frozenset[str]] = frozenset({CLEAN_LABEL, STRESSED_LABEL})


class EnvError(GatebenchError):
    """Raised for invalid settings, queues, outcomes and environment steps."""


@record
class OperatingSetting(Record):
    """Evaluation condition for a workload-driver pair."""

    label: str
    env_latency_multiplier: float = 1.0
    tail_inflation: float = 1.0
    verifier_arrival_rate_boost: float = 1.0
    fault_injection_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.label not in SETTING_LABELS:
            raise EnvError("invalid_setting", f"unknown setting label {self.label!r}")
        for name in ("env_latency_multiplier", "tail_inflation", "verifier_arrival_rate_boost"):
            if getattr(self, name) < 1.0:
                raise EnvError("invalid_setting", f"{name} must be >= 1")
        if not 0.0 <= self.fault_injection_prob <= 1.0:
            raise EnvError("invalid_setting", "fault_injection_prob must be in [0, 1]")
        if self.label == CLEAN_LABEL and (
            self.env_latency_multiplier != 1.0
            or self.tail_inflation != 1.0
            or self.verifier_arrival_rate_boost != 1.0
            or self.fault_injection_prob != 0.0
        ):
            raise EnvError("invalid_setting", "clean setting must have unit factors and no faults")


def clean_setting() -> OperatingSetting:
    return OperatingSetting(label=CLEAN_LABEL)


def stressed_setting() -> OperatingSetting:
    """Default stressed setting; constants are synthetic calibration."""

    return OperatingSetting(
        label=STRESSED_LABEL,
        env_latency_multiplier=3.0,
        tail_inflation=4.0,
        verifier_arrival_rate_boost=2.0,
        fault_injection_prob=0.02,
    )


def setting_for_label(label: str) -> OperatingSetting:
    if label == CLEAN_LABEL:
        return clean_setting()
    if label == STRESSED_LABEL:
        return stressed_setting()
    raise EnvError("invalid_setting", f"unknown setting label {label!r}")


@record
class TerminalOutcome(Record):
    """The evaluator's terminal verdict on an episode."""

    status: str
    evaluator_id: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("success", "failure", "error"):
            raise EnvError("invalid_outcome", f"unknown terminal status {self.status!r}")


@dataclass(slots=True)
class EnvState:
    """Mutable per-episode environment state, confined to one execution."""

    family: str
    task_id: str
    goal: int
    budget: int | None = None
    step_count: int = 0
    solved_progress: int = 0
    terminal: TerminalOutcome | None = None
    sim_clock_ms: float = 0.0
    base_service_ms: float = 0.0


@record
class StepOutcome:
    """Timing, progress, fault flag and any terminal outcome of one environment step."""

    timing: TimingFields
    progressed: bool
    fault: bool
    terminal: TerminalOutcome | None


def init_env(
    manifest: TaskManifest,
    setting: OperatingSetting,
    seed: int,
    budget: int | None = None,
) -> EnvState:
    """Deterministic initial state; goal and base latency come from family
    params with family defaults."""

    if manifest.family not in FAMILY_DEFAULT_GOAL:
        raise EnvError("unsupported_family", f"unknown family {manifest.family!r}")
    goal = int(manifest.family_params.get("goal", FAMILY_DEFAULT_GOAL[manifest.family]))
    base = float(
        manifest.family_params.get("base_service_ms", FAMILY_BASE_SERVICE_MS[manifest.family])
    )
    del seed, setting  # initial state is independent of both; steps consume them
    return EnvState(
        family=manifest.family,
        task_id=manifest.task_id,
        goal=goal,
        budget=budget,
        base_service_ms=base,
    )


def draw_service_ms(
    rng: random.Random, base_ms: float, setting: OperatingSetting, cv: float = SERVICE_CV
) -> float:
    """Latency draw scaled by the setting, tail-inflated on the top decile."""

    value = draw_lognormal(rng, base_ms, cv) * setting.env_latency_multiplier
    if setting.tail_inflation > 1.0 and rng.random() > TAIL_DECILE:
        value *= setting.tail_inflation
    return value


def env_step(
    state: EnvState, action: Action, setting: OperatingSetting, rng: random.Random
) -> StepOutcome:
    """Advance one environment step; terminal rules live here.

    Valid actions advance progress with the action's advance probability;
    terminal success when progress reaches the goal, terminal failure when the
    step count reaches the budget. Stepping a terminal state is an error.
    """

    if state.terminal is not None:
        raise EnvError("stepped_after_terminal", f"episode {state.task_id} already terminal")

    base = state.base_service_ms or FAMILY_BASE_SERVICE_MS[state.family]
    service_ms = draw_service_ms(rng, base, setting)
    fault = rng.random() < setting.fault_injection_prob
    state.step_count += 1
    state.sim_clock_ms += service_ms

    progressed = False
    if not fault and action.advance_prob > 0.0 and rng.random() < action.advance_prob:
        state.solved_progress = min(state.goal, state.solved_progress + 1)
        progressed = True

    terminal: TerminalOutcome | None = None
    evaluator_id = f"evaluator:{state.family}"
    if state.solved_progress >= state.goal:
        terminal = TerminalOutcome(status="success", evaluator_id=evaluator_id)
    elif state.budget is not None and state.step_count >= state.budget:
        terminal = TerminalOutcome(status="failure", evaluator_id=evaluator_id, detail="budget_exhausted")
    if terminal is not None and not fault:
        state.terminal = terminal
    if fault:
        terminal = None  # faulted steps resolve via retry, never terminate

    timing = TimingFields(queue_wait_ms=0.0, service_time_ms=service_ms)
    return StepOutcome(timing=timing, progressed=progressed, fault=fault, terminal=terminal)


# ---------------------------------------------------------------------------
# Verifier queue
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Ticket:
    """One verifier job: its submit, start-of-service and completion times."""

    ticket_id: int
    submit_time_ms: float
    service_demand_ms: float
    start_service_ms: float
    completion_ms: float

    @property
    def queue_wait_ms(self) -> float:
        return self.start_service_ms - self.submit_time_ms


@dataclass(slots=True)
class VerifierQueue:
    """FIFO multi-server queue; wait is start-of-service minus submit time.

    Mutation is serialized by the caller (single logical writer per queue);
    snapshot reads are safe.
    """

    servers: int = 1
    busy_until: list[float] = field(default_factory=list)
    tickets: dict[int, Ticket] = field(default_factory=dict)
    _next_id: int = 0
    _last_submit_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise EnvError("invalid_queue", "servers must be >= 1")
        if not self.busy_until:
            self.busy_until = [0.0] * self.servers

    def submit(self, now_ms: float, demand_ms: float) -> int:
        """Enqueue one verification ticket FIFO; returns its id."""

        if demand_ms <= 0:
            raise EnvError("invalid_queue", "service demand must be > 0")
        if now_ms < self._last_submit_ms:
            raise EnvError("invalid_queue", "submissions must be time-ordered")
        self._last_submit_ms = now_ms
        server = min(range(self.servers), key=lambda i: self.busy_until[i])
        start = max(now_ms, self.busy_until[server])
        completion = start + demand_ms
        self.busy_until[server] = completion
        ticket = Ticket(
            ticket_id=self._next_id,
            submit_time_ms=now_ms,
            service_demand_ms=demand_ms,
            start_service_ms=start,
            completion_ms=completion,
        )
        self.tickets[ticket.ticket_id] = ticket
        self._next_id += 1
        return ticket.ticket_id

    def ticket(self, ticket_id: int) -> Ticket:
        if ticket_id not in self.tickets:
            raise EnvError("unknown_ticket", f"no ticket {ticket_id}")
        return self.tickets[ticket_id]

    def depth_at(self, now_ms: float) -> int:
        """Tickets submitted but not yet in service at ``now_ms``."""

        return sum(
            1
            for t in self.tickets.values()
            if t.submit_time_ms <= now_ms < t.start_service_ms
        )

    def counts_at(self, now_ms: float) -> tuple[int, int, int]:
        """(submitted, served, pending) at an instant; conservation holds."""

        submitted = sum(1 for t in self.tickets.values() if t.submit_time_ms <= now_ms)
        served = sum(1 for t in self.tickets.values() if t.completion_ms <= now_ms)
        return submitted, served, submitted - served


def verifier_outcome(
    patch_quality: str,
    rng: random.Random | None = None,
    generated_pass_prob: float = 0.5,
    evaluator_id: str = "verifier:code:1",
) -> TerminalOutcome:
    """The verdict on a verified patch: gold passes, noop fails, generated is seeded."""

    if patch_quality == "gold":
        status = "success"
        detail = "gold_control"
    elif patch_quality == "noop":
        status = "failure"
        detail = "noop_control"
    elif patch_quality == "generated":
        if rng is None:
            raise EnvError("invalid_queue", "generated patches need a seeded rng")
        status = "success" if rng.random() < generated_pass_prob else "failure"
        detail = "generated_patch"
    else:
        raise EnvError("invalid_queue", f"unknown patch quality {patch_quality!r}")
    return TerminalOutcome(status=status, evaluator_id=evaluator_id, detail=detail)


# ---------------------------------------------------------------------------
# Concurrency-scaling measurement (simulated lanes)
# ---------------------------------------------------------------------------

VERIFY_BASE_MS: Final[dict[str, float]] = {"micro": 5.0, "web": 300.0, "code": 350.0}


def simulate_family_throughput(
    family: str,
    concurrency: int,
    episodes: int,
    seed: int,
) -> float:
    """Episodes per second for independent episodes over simulated lanes.

    Each episode lasts its family's default goal of clean-setting step
    draws plus one verification draw. No verifier queue is modelled:
    episodes are dealt round-robin to ``concurrency`` lanes, each lane's
    durations are summed, and throughput is episodes divided by the longest
    lane's sum. Lanes share nothing: when one level divides the next (the
    report uses 1, 4 and 8) and ``episodes`` is at least the larger level,
    each wider lane sums a strict subset of a narrower lane's episodes. Throughput then rises by construction, and the
    ``throughput_scaling`` claim built on it cannot fail.
    """

    if family not in FAMILY_BASE_SERVICE_MS:
        raise EnvError("unsupported_family", f"unknown family {family!r}")
    if concurrency < 1 or episodes < 1:
        raise EnvError("invalid_queue", "concurrency and episodes must be >= 1")
    setting = clean_setting()
    steps = FAMILY_DEFAULT_GOAL[family]
    rng = random.Random(seed)
    durations: list[float] = []
    for _ in range(episodes):
        body = float_sum(
            draw_service_ms(rng, FAMILY_BASE_SERVICE_MS[family], setting) for _ in range(steps)
        )
        verify = draw_lognormal(rng, VERIFY_BASE_MS[family], SERVICE_CV)
        durations.append(body + verify)
    lane_end = [0.0] * concurrency
    for index, duration in enumerate(durations):
        lane = index % concurrency
        lane_end[lane] += duration
    makespan_ms = max(lane_end)
    return episodes / (makespan_ms / 1000.0)


__all__ = [
    "CLEAN_LABEL",
    "EnvError",
    "EnvState",
    "FAMILY_BASE_SERVICE_MS",
    "FAMILY_DEFAULT_GOAL",
    "OperatingSetting",
    "STRESSED_LABEL",
    "StepOutcome",
    "TerminalOutcome",
    "Ticket",
    "VERIFY_BASE_MS",
    "VerifierQueue",
    "clean_setting",
    "draw_service_ms",
    "env_step",
    "init_env",
    "setting_for_label",
    "simulate_family_throughput",
    "stressed_setting",
    "verifier_outcome",
]
