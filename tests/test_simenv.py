from __future__ import annotations

import random
import statistics

import pytest

from gatebench.drivers import Action, NOOP_ACTION
from gatebench.schema import PATCH_QUALITIES
from gatebench.simenv import (
    EnvError,
    OperatingSetting,
    VerifierQueue,
    clean_setting,
    draw_service_ms,
    env_step,
    init_env,
    simulate_family_throughput,
    stressed_setting,
    verifier_outcome,
)

ORACLE = Action(kind="oracle", advance_prob=1.0)


# ---------------------------------------------------------------------------
# init_env / env_step
# ---------------------------------------------------------------------------


def test_init_env_defaults(micro_manifest):
    state = init_env(micro_manifest)
    assert state.goal == 3
    assert state.step_count == 0
    assert state.solved_progress == 0


def test_init_env_deterministic(micro_manifest):
    first = init_env(micro_manifest, budget=5)
    second = init_env(micro_manifest, budget=5)
    assert first == second


def test_init_env_goal_override(demo_store, demo_root):
    from gatebench.manifest import resolve_manifest

    manifest = resolve_manifest("micro-002", demo_root, demo_store)
    state = init_env(manifest)
    assert state.goal == 4


def test_oracle_reaches_goal_in_three_steps(micro_manifest):
    state = init_env(micro_manifest, budget=10)
    rng = random.Random(0)
    steps = 0
    while state.terminal is None:
        env_step(state, ORACLE, clean_setting(), rng)
        steps += 1
    assert steps == 3
    assert state.terminal.status == "success"


def test_noop_fails_at_budget(micro_manifest):
    state = init_env(micro_manifest, budget=5)
    rng = random.Random(0)
    while state.terminal is None:
        env_step(state, NOOP_ACTION, clean_setting(), rng)
    assert state.step_count == 5
    assert state.terminal.status == "failure"


def test_step_after_terminal_raises(micro_manifest):
    state = init_env(micro_manifest, budget=1)
    rng = random.Random(0)
    env_step(state, NOOP_ACTION, clean_setting(), rng)
    with pytest.raises(EnvError) as err:
        env_step(state, NOOP_ACTION, clean_setting(), rng)
    assert err.value.code == "stepped_after_terminal"


def test_clock_monotone_and_trajectory_bit_identical(web_manifest):
    def trajectory():
        state = init_env(web_manifest, budget=50)
        rng = random.Random(123)
        points = []
        while state.terminal is None:
            outcome = env_step(state, Action(kind="a", advance_prob=0.5), stressed_setting(), rng)
            points.append((state.sim_clock_ms, state.solved_progress, outcome.timing.service_time_ms))
        return points

    first = trajectory()
    second = trajectory()
    assert first == second
    clocks = [point[0] for point in first]
    assert clocks == sorted(clocks)


def test_latency_multiplier_scales_mean_within_five_percent():
    # DERIVED oracle: mean ratio of draws under multiplier 3 vs clean over
    # 10k samples should sit at 3 (no tail inflation in this setting pair).
    scaled = OperatingSetting(
        label="medium_live_stressed", env_latency_multiplier=3.0, fault_injection_prob=0.001
    )
    rng_clean = random.Random(7)
    rng_scaled = random.Random(7)
    clean_draws = [draw_service_ms(rng_clean, 75.0, clean_setting()) for _ in range(10_000)]
    scaled_draws = [draw_service_ms(rng_scaled, 75.0, scaled) for _ in range(10_000)]
    ratio = statistics.fmean(scaled_draws) / statistics.fmean(clean_draws)
    assert abs(ratio - 3.0) <= 0.15


def test_tail_inflation_hits_top_decile_only():
    setting = OperatingSetting(
        label="medium_live_stressed",
        env_latency_multiplier=1.0,
        tail_inflation=4.0,
        fault_injection_prob=0.001,
    )
    rng = random.Random(11)
    draws = [draw_service_ms(rng, 75.0, setting) for _ in range(20_000)]
    # Expected mean: 0.9 + 0.1 * 4 = 1.3x the base mean.
    assert abs(statistics.fmean(draws) / 75.0 - 1.3) <= 0.1


def test_clean_setting_must_be_unperturbed():
    with pytest.raises(EnvError):
        OperatingSetting(label="clean", env_latency_multiplier=2.0)


# ---------------------------------------------------------------------------
# Verifier queue
# ---------------------------------------------------------------------------


def test_empty_queue_no_wait():
    queue = VerifierQueue(servers=1)
    assert queue.submit(now_ms=10.0, demand_ms=50.0).queue_wait_ms == 0.0


def test_fifo_second_ticket_waits_exactly_demand():
    queue = VerifierQueue(servers=1)
    queue.submit(0.0, 40.0)
    assert queue.submit(0.0, 40.0).queue_wait_ms == 40.0


def test_queue_conservation_at_any_instant():
    # No ticket is served before it is submitted or completes before it is
    # served, so at any instant the tickets served never outnumber those
    # submitted.
    queue = VerifierQueue(servers=2)
    rng = random.Random(5)
    now = 0.0
    for _ in range(200):
        now += rng.expovariate(1.0)
        queue.submit(now, rng.expovariate(0.5) + 0.01)
    assert len(queue.tickets) == 200
    for ticket in queue.tickets.values():
        assert ticket.submit_time_ms <= ticket.start_service_ms <= ticket.completion_ms


def test_mm1_queue_wait_matches_closed_form():
    # DERIVED closed-form oracle: M/M/1 with lambda = 0.8, mu = 1.0 gives
    # mean queue wait rho / (mu - lambda) = 4.0 time units.
    rng = random.Random(2024)
    queue = VerifierQueue(servers=1)
    lam, mu = 0.8, 1.0
    now = 0.0
    tickets = []
    for _ in range(200_000):
        now += rng.expovariate(lam)
        tickets.append(queue.submit(now, rng.expovariate(mu)))
    waits = [ticket.queue_wait_ms for ticket in tickets]
    expected = (lam / mu) / (mu - lam)
    assert abs(statistics.fmean(waits) - expected) / expected <= 0.15


def test_gold_noop_generated_outcomes():
    queue = VerifierQueue(servers=1)
    gold = queue.submit(0.0, 10.0)
    noop = queue.submit(0.0, 10.0)
    assert verifier_outcome("gold").status == "success"
    assert gold.completion_ms - gold.submit_time_ms == pytest.approx(10.0)
    assert verifier_outcome("noop").status == "failure"
    assert noop.queue_wait_ms == pytest.approx(10.0)


@pytest.mark.parametrize("quality, rng, message", [
    ("platinum", random.Random(0), "unknown patch quality 'platinum'"),
    (["gold"], random.Random(0), "unknown patch quality ['gold']"),
    ("generated", None, "generated patches need a seeded rng"),
])
def test_unknown_patch_quality_is_invalid_patch_quality(quality, rng, message):
    with pytest.raises(EnvError) as err:
        verifier_outcome(quality, rng)
    assert (err.value.code, err.value.message) == ("invalid_patch_quality", message)


def test_every_patch_quality_a_log_may_record_has_a_verdict():
    for quality in PATCH_QUALITIES:
        assert verifier_outcome(quality, random.Random(0)).status in ("success", "failure")


def test_generated_with_zero_pass_prob_always_fails():
    rng = random.Random(0)
    for _ in range(100):
        outcome = verifier_outcome("generated", rng=rng, generated_pass_prob=0.0)
        assert outcome.status == "failure"


def test_generated_with_certain_pass_prob_always_succeeds():
    rng = random.Random(0)
    for _ in range(50):
        outcome = verifier_outcome("generated", rng=rng, generated_pass_prob=1.0)
        assert outcome.status == "success"


# ---------------------------------------------------------------------------
# Concurrency scaling
# ---------------------------------------------------------------------------


def test_code_throughput_strictly_increases_one_four_eight():
    eps = [
        simulate_family_throughput("code", concurrency, episodes=40, seed=7)
        for concurrency in (1, 4, 8)
    ]
    assert eps[0] < eps[1] < eps[2]


def test_throughput_deterministic():
    first = simulate_family_throughput("web", 4, episodes=24, seed=3)
    second = simulate_family_throughput("web", 4, episodes=24, seed=3)
    assert first == second
