"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from montyhall.analytic import (
    GameVariant,
    partition_probabilities,
    switch_probability_grid,
    win_given_stay,
    win_given_switch,
    win_marginal,
)
from montyhall.cli import main
from montyhall.oracle import (
    CarDistribution,
    exact_initial_correct,
    exact_win_probability,
    random_car_distribution,
)
from montyhall.planner import PlanMethod, sample_size
from montyhall.simulate import SimulationConfig, sweep

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

F = Fraction

GRID = switch_probability_grid()  # the 21-point default grid


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_01_oracle_analytic_exact_equality():
    with criterion("oracle-analytic exact equality (504 checks, <5s)"):
        start = time.perf_counter()
        checks = 0
        # n up to 14 gives the full 504-point matrix (2 variants x 12 door
        # counts x 21 grid values) and covers the 3..12 range as a subset
        for variant, n in product((LEAVE_TWO, OPEN_ONE), range(3, 15)):
            uniform = CarDistribution.uniform(n)
            for p in GRID:
                assert exact_win_probability(variant, p, uniform) == win_marginal(
                    variant, n, p
                )
                checks += 1
        elapsed = time.perf_counter() - start
        assert checks == 504
        assert elapsed < 5.0, f"equality sweep took {elapsed:.2f}s"


def test_02_classic_solution():
    with criterion("classic three-door conditionals"):
        assert win_given_switch(LEAVE_TWO, 3) == F(2, 3)
        assert win_given_stay(LEAVE_TWO, 3) == F(1, 3)


def test_03_half_switch_gives_even_odds():
    with criterion("P(win) = 1/2 at three doors with p = 1/2"):
        assert win_marginal(LEAVE_TWO, 3, F(1, 2)) == F(1, 2)


def test_04_variants_coincide_at_three_doors():
    with criterion("variant coincidence at n = 3 across the grid"):
        assert win_given_switch(LEAVE_TWO, 3) == win_given_switch(OPEN_ONE, 3)
        assert win_given_stay(LEAVE_TWO, 3) == win_given_stay(OPEN_ONE, 3)
        for p in GRID:
            assert win_marginal(LEAVE_TWO, 3, p) == win_marginal(OPEN_ONE, 3, p)
            assert partition_probabilities(LEAVE_TWO, 3, p) == (
                partition_probabilities(OPEN_ONE, 3, p)
            )


def test_05_critical_door_count_for_open_one():
    with criterion("open-one switch probability crosses 1/3 at n = 4"):
        assert win_given_switch(OPEN_ONE, 4) == F(3, 8)
        assert win_given_switch(OPEN_ONE, 4) > F(1, 3)
        for n in range(5, 51):
            assert win_given_switch(OPEN_ONE, n) < F(1, 3)


def test_06_arbitrary_placement_keeps_initial_pick_uniform():
    with criterion("P(initial pick correct) = 1/n for random placements"):
        rng = np.random.default_rng(20260809)
        for n in range(3, 9):
            for _ in range(50):
                cars = random_car_distribution(n, rng)
                assert exact_initial_correct(cars) == F(1, n)


def test_07_partition_completeness():
    with criterion("partition cells sum to one on 200 random triples"):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            variant = LEAVE_TWO if rng.integers(0, 2) else OPEN_ONE
            n = int(rng.integers(3, 31))
            denominator = int(rng.integers(1, 101))
            p = F(int(rng.integers(0, denominator + 1)), denominator)
            part = partition_probabilities(variant, n, p)
            assert sum(part.cells.values()) == 1


def test_08_planner_numbers():
    with criterion("planned trial counts and quantile"):
        cheb = sample_size(0.5, 0.01, 0.01, PlanMethod.CHEBYSHEV)
        assert cheb.l0 == 250000
        clt = sample_size(0.5, 0.01, 0.01, PlanMethod.CLT)
        assert abs(clt.l0 - 16588) <= 1
        assert abs(clt.z_x - 2.5758293) <= 1e-6


@pytest.mark.parametrize(
    "variant, door_counts",
    [
        (LEAVE_TWO, (3, 5, 10)),
        (OPEN_ONE, (4, 5, 8, 15)),
    ],
    ids=["leave-two", "open-one"],
)
def test_09_empirical_sweeps_track_exact_values(variant, door_counts):
    label = f"empirical sweeps track exact values ({variant.value}, <60s)"
    with criterion(label):
        trials = sample_size(0.5, 0.01, 0.01, PlanMethod.CHEBYSHEV).l0
        start = time.perf_counter()
        cells = 0
        misses = 0
        for doors in door_counts:
            for seed in range(20):
                config = SimulationConfig(
                    variant, doors, trials, master_seed=seed, chunk_size=65536
                )
                result = sweep(config, F(1, 20))
                for row in result:
                    cells += 1
                    if abs(row.result.empirical - float(row.analytic)) >= 0.01:
                        misses += 1
        elapsed = time.perf_counter() - start
        assert misses <= 0.01 * cells, f"{misses} of {cells} cells out of band"
        assert elapsed < 60.0, f"sweeps took {elapsed:.1f}s"


@pytest.mark.parametrize(
    "variant, doors",
    [(OPEN_ONE, 15), (LEAVE_TWO, 10)],
    ids=["open-one", "leave-two"],
)
def test_09b_pooled_z_over_the_sweep_panel(variant, doors):
    # test_09 bounds each cell's error; a small bias passes every cell but
    # not the pooled z of the 420 cells (105M games) at these fixed seeds.
    # tests/test_gates.py shows a switch bias crossing this bound.
    with criterion(f"pooled |z| <= 5 over 420 sweep cells ({variant.value})"):
        z = pooled_sweep_z(variant, doors)
        assert abs(z) <= 5.0, f"pooled z = {z:.2f}"


def pooled_sweep_z(variant, doors):
    """test_09b's statistic: the pooled z of the wins over the 420 cells of
    20 seeded 250,000-trial sweeps of one (variant, doors) game."""
    excess = F(0)
    variance = F(0)
    cells = 0
    for seed in range(20):
        config = SimulationConfig(variant, doors, 250000, master_seed=seed, chunk_size=65536)
        for row in sweep(config, F(1, 20)):
            trials, pi = row.result.trials, row.analytic
            excess += row.result.wins - trials * pi
            variance += trials * pi * (1 - pi)
            cells += 1
    assert cells == 420
    return float(excess) / float(variance) ** 0.5


def test_10_sweep_csv_determinism(tmp_path):
    with criterion("byte-identical CSV across runs and worker counts"):
        flags = [
            "sweep", "--variant", "leave-two", "--doors", "3",
            "--trials", "50000", "--chunk-size", "4096", "--seed", "123", "--out",
        ]
        paths = [tmp_path / name for name in ("one.csv", "two.csv", "three.csv")]
        assert main(flags + [str(paths[0])]) == 0
        assert main(flags + [str(paths[1])]) == 0
        assert main(flags + [str(paths[2]), "--workers", "4"]) == 0
        first, second, third = (path.read_bytes() for path in paths)
        assert first == second == third
