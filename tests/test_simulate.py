"""Monte Carlo engine: scripted single games, reproducibility, degenerate
cases, and statistical agreement with the exact probabilities."""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from montyhall import oracle, simulate
from montyhall.analytic import GameParams, GameVariant, _host_opens, win_marginal
from montyhall.oracle import CarDistribution, enumerate_trajectories
from montyhall.simulate import (
    SimulationConfig,
    SimulationResult,
    _count_wins,
    run_batch,
    substream,
    sweep,
    switch_probability_grid,
    trace_trial,
)

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

F = Fraction


class ScriptedRNG:
    """Feeds predetermined raw draws to trace_trial."""

    def __init__(self, ints=(), floats=()):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, low, high):
        value = self._ints.pop(0)
        assert low <= value < high, f"scripted draw {value} outside [{low}, {high})"
        return value

    def random(self):
        return self._floats.pop(0)


def test_grid_default_has_21_points():
    grid = switch_probability_grid()
    assert len(grid) == 21
    assert grid[0] == 0 and grid[-1] == 1
    assert grid[7] == F(7, 20)


def test_grid_coarse_and_invalid_steps():
    assert switch_probability_grid(F(1, 2)) == [F(0), F(1, 2), F(1)]
    assert switch_probability_grid(F(1, 3)) == [F(0), F(1, 3), F(2, 3), F(1)]
    for bad in (F(2, 5), F(0), F(3, 2), F(-1, 4)):
        with pytest.raises(ValueError):
            switch_probability_grid(bad)


def test_forced_goat_pick_switching_wins_leave_two():
    # pick door 2, host opens goat door 3, forced switch to the one closed door
    trace = trace_trial(LEAVE_TWO, 3, 1.0, ScriptedRNG(ints=[2, 0, 0], floats=[0.9]))
    assert trace.host_opens == frozenset({3})
    assert trace.won


def test_forced_car_pick_never_switching_wins():
    # pick the car; the host shuffles goats [2, 3, 4] and opens the first k:
    # {2, 4} in leave-two (swap 3 and 4), {3} in open-one
    for variant, ints, opened in (
        (LEAVE_TWO, [1, 0, 2], {2, 4}),
        (OPEN_ONE, [1, 1], {3}),
    ):
        trace = trace_trial(variant, 4, 0.0, ScriptedRNG(ints=ints, floats=[0.7]))
        assert trace.host_opens == frozenset(opened)
        assert trace.won


def test_forced_open_one_final_choice():
    # pick 2, host opens 3, switcher chooses among {1, 4, 5}: slot 0 is the car
    for slot, final, won in ((0, 1, True), (1, 4, False), (2, 5, False)):
        trace = trace_trial(
            OPEN_ONE, 5, 1.0, ScriptedRNG(ints=[2, 0, slot], floats=[0.5])
        )
        assert trace.pick == 2
        assert trace.host_opens == frozenset({3})
        assert trace.switched
        assert trace.final == final
        assert trace.won is won


def test_trace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 2, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 3, 1.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 3.5, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial("leave-two", 3, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 2**63, 0.5, ScriptedRNG())


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_trace_respects_game_rules(variant):
    rng = np.random.default_rng(5)
    for _ in range(2000):
        trace = trace_trial(variant, 6, 0.4, rng)
        assert 1 <= trace.pick <= 6
        assert trace.pick not in trace.host_opens
        assert 1 not in trace.host_opens  # car door stays closed
        assert len(trace.host_opens) == (4 if variant is LEAVE_TWO else 1)
        if trace.switched:
            assert trace.final != trace.pick and trace.final not in trace.host_opens
        else:
            assert trace.final == trace.pick
        assert trace.won == (trace.final == 1)


def _assert_traces_match_oracle(variant, n, seed, samples=60000):
    """Every trajectory frequency of ``trace_trial`` at p = 1/2 matches the
    oracle's exact weight, with the car fixed behind door 1."""
    rng = np.random.default_rng(seed)
    counts = Counter(trace_trial(variant, n, 0.5, rng)[:4] for _ in range(samples))
    car_at_1 = CarDistribution.from_weights([1] + [0] * (n - 1))
    exact = {
        (t.pick, t.host_opens, t.switched, t.final): t.weight
        for t in enumerate_trajectories(variant, GameParams(n, F(1, 2)), car_at_1)
    }
    assert set(counts) == set(exact)
    for key, weight in exact.items():
        w = float(weight)
        tolerance = 4.0 * math.sqrt(w * (1.0 - w) / samples) + 1.0 / samples
        assert abs(counts[key] / samples - w) <= tolerance


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_trial_distribution_matches_oracle_at_three_doors(variant):
    # Algorithms for the two host strategies coincide at n=3.
    _assert_traces_match_oracle(variant, 3, 20260809)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trial_distribution_matches_oracle_at_five_doors(monkeypatch, k):
    # k = 1 is open-one and k = 3 leave-two; no variant opens k = 2 doors of
    # five, so that case patches the variant-to-k mapping in both layers.
    variant = OPEN_ONE if k == 1 else LEAVE_TWO
    if k != _host_opens(variant, 5):
        for module in (simulate, oracle):
            monkeypatch.setattr(module, "_host_opens", lambda variant, n: k)
    _assert_traces_match_oracle(variant, 5, 20261018 + k)


def test_batch_reproducible_and_worker_independent():
    config = SimulationConfig(
        LEAVE_TWO, 3, 0.35, 50000, master_seed=99, chunk_size=4096
    )
    reference = run_batch(config)
    assert run_batch(config) == reference
    assert run_batch(config, workers=4) == reference
    assert run_batch(config, workers=7) == reference


def test_batch_depends_on_seed_and_stream():
    config = SimulationConfig(OPEN_ONE, 5, 0.5, 40000, master_seed=1)
    other_seed = SimulationConfig(OPEN_ONE, 5, 0.5, 40000, master_seed=2)
    assert run_batch(config).wins != run_batch(other_seed).wins
    assert run_batch(config, stream=3).wins != run_batch(config).wins


def _v2_generator(master_seed, stream, chunk):
    """Chunk ``chunk`` of stream ``stream`` as stream v2 lays it out, built
    without ``substream``."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    philox = np.random.Philox(key=key, counter=[0, 0, stream, chunk])
    return np.random.Generator(philox)


def _pick_hits(config, stream=0):
    """Recount initial picks of door 1 straight from the v2 layout."""
    full, rest = divmod(config.trials, config.chunk_size)
    sizes = [config.chunk_size] * full + ([rest] if rest else [])
    dtype = np.min_scalar_type(config.n)
    hits = 0
    for index, size in enumerate(sizes):
        rng = _v2_generator(config.master_seed, stream, index)
        picks = rng.integers(1, config.n + 1, size=size, dtype=dtype)
        hits += int(np.count_nonzero(picks == 1))
    return hits


def test_substream_matches_v2_layout_after_reuse():
    # The thread's generator is reset on every call, so a call for another
    # (seed, stream, chunk) in between leaves no trace in the draws.
    a, b = (5, 3, 7), (6, 0, 2)
    first = substream(*a).random(8)
    substream(*b).random(3)
    again = substream(*a).random(8)
    expected = _v2_generator(*a).random(8)
    assert np.array_equal(first, expected)
    assert np.array_equal(again, expected)


def _kernel_win_probability(n, k, p):
    """``_count_wins`` over one game per (pick, slot) cell, the two columns
    the kernel draws uniformly, as an exact probability at switch rate p."""
    picks, slots = np.meshgrid(
        np.arange(1, n + 1), np.arange(n - 1 - k), indexing="ij"
    )
    hit = picks.ravel() == 1
    slot0 = slots.ravel() == 0
    cells = hit.size
    stay = _count_wins(hit, np.zeros(cells, dtype=bool), slot0)
    switch = _count_wins(hit, np.ones(cells, dtype=bool), slot0)
    return F(stay, cells) * (1 - p) + F(switch, cells) * p


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 31))
def test_win_count_is_exact_over_every_cell(variant, n):
    for p in (F(0), F(1, 3), F(1)):
        assert _kernel_win_probability(n, _host_opens(variant, n), p) == (
            win_marginal(variant, GameParams(n, p))
        )


@pytest.mark.parametrize("n", range(3, 31))
def test_win_count_is_exact_for_every_host_door_count(n):
    for k in range(1, n - 1):
        for p in (F(0), F(1, 3), F(1)):
            assert _kernel_win_probability(n, k, p) == (
                F(1, n) * (1 - p) + F(n - 1, n * (n - 1 - k)) * p
            )


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_never_switching_wins_exactly_the_lucky_picks(variant):
    config = SimulationConfig(variant, 4, 0.0, 30000, master_seed=7, chunk_size=999)
    assert run_batch(config).wins == _pick_hits(config)


def test_always_switching_leave_two_wins_exactly_the_unlucky_picks():
    config = SimulationConfig(LEAVE_TWO, 6, 1.0, 30000, master_seed=8, chunk_size=4096)
    assert run_batch(config).wins == config.trials - _pick_hits(config)


@pytest.mark.parametrize(
    "variant, n, p, target",
    [
        (LEAVE_TWO, 3, 0.0, 1 / 3),
        (LEAVE_TWO, 3, 1.0, 2 / 3),
    ],
)
def test_reference_runs_three_doors(variant, n, p, target):
    config = SimulationConfig(variant, n, p, 100000, master_seed=42)
    assert abs(run_batch(config).empirical - target) < 0.01


def test_reference_run_open_one_fifteen_doors():
    config = SimulationConfig(OPEN_ONE, 15, 1.0, 250000, master_seed=7)
    target = 1 / 15 + 1 / 195
    assert abs(run_batch(config).empirical - target) < 0.01


def test_chebyshev_count_keeps_error_small_across_seeds():
    # At the planned trial count the miss rate must stay within the failure
    # budget: allow at most 1 miss per grid point over a 20-seed panel.
    for p_exact in (F(0), F(1, 2), F(1)):
        exact = float(win_marginal(LEAVE_TWO, GameParams(3, p_exact)))
        misses = 0
        for seed in range(20):
            config = SimulationConfig(
                LEAVE_TWO, 3, float(p_exact), 250000, master_seed=seed, chunk_size=65536
            )
            if abs(run_batch(config).empirical - exact) >= 0.01:
                misses += 1
        assert misses <= 1


@pytest.mark.parametrize(
    "variant, n, p_exact",
    [
        (LEAVE_TWO, 3, F(1, 4)),
        (OPEN_ONE, 8, F(3, 4)),
    ],
)
def test_planning_at_analytic_probability_keeps_error_in_band(variant, n, p_exact):
    # plan the trial count at the true win probability, then simulate with it
    from montyhall.planner import PlanMethod, PlanRequest, sample_size

    exact = float(win_marginal(variant, GameParams(n, p_exact)))
    trials = sample_size(PlanRequest(exact, 0.01, 0.01, PlanMethod.CHEBYSHEV)).l0
    misses = 0
    for seed in range(20):
        config = SimulationConfig(
            variant, n, float(p_exact), trials, master_seed=seed, chunk_size=65536
        )
        if abs(run_batch(config).empirical - exact) >= 0.01:
            misses += 1
    assert misses <= 1


def test_result_fields_and_validation():
    result = SimulationResult(2000, 700)
    assert result.empirical == 0.35
    assert result.std_error == pytest.approx(math.sqrt(0.35 * 0.65 / 2000))
    with pytest.raises(ValueError):
        SimulationResult(10, 11)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 2, 0.5, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 1.5, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3.5, 0.5, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 0)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 1e5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 100, chunk_size=0)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 100, master_seed=-1)
    with pytest.raises(ValueError):
        run_batch(SimulationConfig(LEAVE_TWO, 3, 0.5, 100), workers=0)
    with pytest.raises(ValueError):
        SimulationConfig("leave-two", 3, 0.5, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 100, chunk_size=2.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 100, master_seed=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, True)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0.5, 2**63)
    with pytest.raises(ValueError):
        run_batch(SimulationConfig(LEAVE_TWO, 3, 0.5, 100), workers=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 2**63, 0.5, 100)


def test_thread_count_is_capped_by_chunks_and_cpus(monkeypatch):
    import montyhall.simulate as simulate

    started = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    two_chunks = SimulationConfig(OPEN_ONE, 5, 0.5, 200, master_seed=4, chunk_size=100)
    ten_chunks = SimulationConfig(OPEN_ONE, 5, 0.5, 1000, master_seed=4, chunk_size=100)
    for config in (two_chunks, ten_chunks):
        assert run_batch(config, workers=8) == run_batch(config)
    # workers=1 runs inline; the chunk count, then the CPU count, caps the rest
    assert started == [2, 3]


def test_threads_pull_each_chunk_exactly_once(monkeypatch):
    # More threads than cores and a short switch interval: a lost or repeated
    # pull of the shared chunk iterator would show in the recorded indices.
    import montyhall.simulate as simulate

    config = SimulationConfig(
        OPEN_ONE, 5, 0.5, 200 * 64 + 17, master_seed=3, chunk_size=64
    )
    reference = run_batch(config)
    pulled = []
    real_substream = simulate.substream

    def recording_substream(master_seed, stream, chunk):
        pulled.append(chunk)
        return real_substream(master_seed, stream, chunk)

    monkeypatch.setattr(simulate, "substream", recording_substream)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_batch(config, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(pulled) == list(range(201))
    assert threaded == reference


def test_sweep_rows_and_reference_tracking():
    result = sweep(LEAVE_TWO, 3, F(1, 20), trials=20000, master_seed=1)
    assert len(result) == 21
    ps = [row.p for row in result]
    assert ps == sorted(ps) and len(set(ps)) == 21
    inside = 0
    for row in result:
        assert row.analytic == win_marginal(LEAVE_TWO, GameParams(3, row.p))
        if abs(row.result.empirical - row.analytic) <= row.clt_halfwidth:
            inside += 1
    assert inside >= 20  # delta = 0.01 per row, one excursion allowed


def test_sweep_coarse_grid():
    result = sweep(LEAVE_TWO, 3, F(1, 2), trials=1000, master_seed=1)
    assert [row.p for row in result] == [F(0), F(1, 2), F(1)]


def test_sweep_within_chebyshev_epsilon_everywhere():
    result = sweep(
        OPEN_ONE, 4, F(1, 20), trials=250000, master_seed=3, chunk_size=65536
    )
    for row in result:
        assert abs(row.result.empirical - float(row.analytic)) < 0.01


def test_sweep_is_reproducible_across_workers():
    kwargs = dict(grid_step=F(1, 5), trials=30000, master_seed=11, chunk_size=4096)
    base = sweep(OPEN_ONE, 5, **kwargs)
    again = sweep(OPEN_ONE, 5, **kwargs)
    threaded = sweep(OPEN_ONE, 5, workers=5, **kwargs)
    assert [r.result.wins for r in base] == [r.result.wins for r in again]
    assert [r.result.wins for r in base] == [r.result.wins for r in threaded]
