"""Enumeration oracle: examples, structural invariants, and exact agreement
with the closed forms."""

from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from montyhall import oracle
from montyhall.analytic import (
    GameParams,
    GameVariant,
    partition_probabilities,
    win_marginal,
)
from montyhall.oracle import (
    CarDistribution,
    enumerate_trajectories,
    exact_initial_correct,
    exact_partition,
    exact_win_probability,
    random_car_distribution,
)

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

F = Fraction

SKEWED_3 = CarDistribution((F(9, 10), F(1, 20), F(1, 20)))
DEGENERATE_3 = CarDistribution((F(1), F(0), F(0)))


def fractions_tuple(*nums_dens):
    return tuple(F(a, b) for a, b in nums_dens)


def test_uniform_half_switch_probability():
    params = GameParams(3, F(1, 2))
    assert exact_win_probability(LEAVE_TWO, params, CarDistribution.uniform(3)) == F(1, 2)


def test_degenerate_placement_always_switch():
    # picking door 1 (w.p. 1/3) then switching loses; any other pick wins
    params = GameParams(3, F(1))
    assert exact_win_probability(LEAVE_TWO, params, DEGENERATE_3) == F(2, 3)


@pytest.mark.parametrize(
    "cars",
    [
        CarDistribution.uniform(4),
        CarDistribution(fractions_tuple((1, 2), (1, 4), (1, 8), (1, 8))),
        CarDistribution(fractions_tuple((0, 1), (0, 1), (1, 1), (0, 1))),
    ],
)
def test_never_switching_wins_one_in_n_for_any_placement(cars):
    params = GameParams(4, F(0))
    assert exact_win_probability(OPEN_ONE, params, cars) == F(1, 4)


def test_partition_matches_analytic_cell_by_cell():
    params = GameParams(3, F(1, 2))
    assert exact_partition(LEAVE_TWO, params, CarDistribution.uniform(3)) == (
        partition_probabilities(LEAVE_TWO, params)
    )


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("cars", [CarDistribution.uniform(5), None])
def test_always_switching_kills_stay_cells(variant, cars):
    cars = cars or CarDistribution(fractions_tuple((1, 3), (1, 3), (1, 3), (0, 1), (0, 1)))
    part = exact_partition(variant, GameParams(5, F(1)), cars)
    for cell, value in part.cells.items():
        if not cell[1]:  # stayed
            assert value == 0


def test_open_one_switch_win_cell_five_doors():
    part = exact_partition(OPEN_ONE, GameParams(5, F(1)), CarDistribution.uniform(5))
    assert part[(False, True, True)] == F(4, 15)


@pytest.mark.parametrize(
    "n, cars, expected",
    [
        (3, CarDistribution.uniform(3), F(1, 3)),
        (3, SKEWED_3, F(1, 3)),
        (7, CarDistribution(tuple([F(1)] + [F(0)] * 6)), F(1, 7)),
    ],
)
def test_initial_pick_probability(n, cars, expected):
    assert exact_initial_correct(GameParams(n, F(1, 2)), cars) == expected


def test_oracle_confirms_open_one_marginal_derivation():
    params = GameParams(4, F(1))
    enumerated = exact_win_probability(OPEN_ONE, params, CarDistribution.uniform(4))
    assert enumerated == win_marginal(OPEN_ONE, params) == F(3, 8)


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("p", [F(0), F(1, 20), F(1, 2), F(1)])
@pytest.mark.parametrize("cars", [CarDistribution.uniform(5), None])
def test_trajectory_weights_sum_to_one(variant, p, cars):
    cars = cars or CarDistribution(fractions_tuple((1, 2), (1, 6), (1, 6), (1, 6), (0, 1)))
    total = sum(
        t.weight for t in enumerate_trajectories(variant, GameParams(5, p), cars)
    )
    assert total == 1


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_trajectory_invariants(variant, n):
    params = GameParams(n, F(1, 3))
    opened_count = n - 2 if variant is LEAVE_TWO else 1
    for t in enumerate_trajectories(variant, params, CarDistribution.uniform(n)):
        assert t.car not in t.host_opens
        assert t.pick not in t.host_opens
        assert len(t.host_opens) == opened_count
        if t.switched:
            assert t.final != t.pick and t.final not in t.host_opens
        else:
            assert t.final == t.pick
        assert 0 < t.weight <= 1


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_host_branching_factor(variant, n):
    trajectories = sorted(
        enumerate_trajectories(variant, GameParams(n, F(1, 2)), CarDistribution.uniform(n)),
        key=lambda t: (t.car, t.pick),
    )
    for (car, pick), group in groupby(trajectories, key=lambda t: (t.car, t.pick)):
        actions = {t.host_opens for t in group}
        if pick == car:
            assert len(actions) == n - 1
        elif variant is LEAVE_TWO:
            assert len(actions) == 1
        else:
            assert len(actions) == n - 2


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("p", [F(0), F(1, 20), F(1, 2), F(19, 20), F(1)])
def test_uniform_enumeration_matches_closed_forms(variant, n, p):
    params = GameParams(n, p)
    uniform = CarDistribution.uniform(n)
    assert exact_win_probability(variant, params, uniform) == win_marginal(
        variant, params
    )
    assert exact_partition(variant, params, uniform) == partition_probabilities(
        variant, params
    )


@given(
    weights=st.lists(st.integers(0, 30), min_size=3, max_size=8).filter(
        lambda ws: sum(ws) > 0
    ),
    p=st.fractions(min_value=0, max_value=1, max_denominator=20),
)
def test_initial_pick_is_uniform_for_any_placement(weights, p):
    cars = CarDistribution.from_weights(weights)
    n = len(cars)
    assert exact_initial_correct(GameParams(n, p), cars) == F(1, n)


@given(
    weights=st.lists(st.integers(0, 30), min_size=3, max_size=7).filter(
        lambda ws: sum(ws) > 0
    ),
    variant=st.sampled_from([LEAVE_TWO, OPEN_ONE]),
)
def test_never_switching_is_placement_free(weights, variant):
    cars = CarDistribution.from_weights(weights)
    n = len(cars)
    assert exact_win_probability(variant, GameParams(n, F(0)), cars) == F(1, n)


def test_input_validation():
    with pytest.raises(ValueError):
        exact_win_probability(LEAVE_TWO, GameParams(4, F(1, 2)), CarDistribution.uniform(3))
    with pytest.raises(ValueError):
        exact_win_probability("leave-two", GameParams(5, F(1)), CarDistribution.uniform(5))
    with pytest.raises(ValueError):
        CarDistribution((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        CarDistribution((F(3, 2), F(-1, 4), F(-1, 4)))
    with pytest.raises(ValueError):
        CarDistribution((F(1),))
    with pytest.raises(ValueError):
        CarDistribution.from_weights([0, 0, 0])
    with pytest.raises(ValueError):
        CarDistribution((float("inf"), 0, 0))
    with pytest.raises(ValueError):
        CarDistribution((None, 0, 0))
    with pytest.raises(ValueError):
        CarDistribution.from_weights([float("inf"), 1, 1])


def test_random_car_distribution_is_valid_and_reproducible():
    first = random_car_distribution(6, np.random.default_rng(11))
    second = random_car_distribution(6, np.random.default_rng(11))
    assert first == second
    assert len(first) == 6
    assert sum(first.alpha) == 1


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("p", [F(0), F(1, 20), F(1, 2), F(1)])
@pytest.mark.parametrize("uniform", [True, False])
def test_partition_is_the_per_cell_sum_of_trajectory_weights(variant, n, p, uniform):
    if uniform:
        cars = CarDistribution.uniform(n)
    else:
        cars = CarDistribution.from_weights([0] + list(range(1, n)))
    params = GameParams(n, p)
    sums = dict.fromkeys(exact_partition(variant, params, cars).cells, F(0))
    for t in enumerate_trajectories(variant, params, cars):
        sums[t.pick == t.car, t.switched, t.final == t.car] += t.weight
    assert exact_partition(variant, params, cars).cells == sums


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("p", [F(0), F(1)])
def test_certain_switch_decisions_yield_only_positive_weights(variant, p):
    trajectories = list(
        enumerate_trajectories(variant, GameParams(4, p), CarDistribution.uniform(4))
    )
    assert trajectories
    assert all(t.weight > 0 and t.switched == (p == 1) for t in trajectories)


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_cached_tree_serves_every_switch_probability(variant):
    cars = CarDistribution.from_weights([3, 1, 0, 2, 5])
    third, half = GameParams(5, F(1, 3)), GameParams(5, F(1, 2))
    first = exact_partition(variant, third, cars)
    exact_partition(variant, half, cars)
    again = exact_partition(variant, third, cars)
    oracle._conditional_cells.cache_clear()
    fresh = exact_partition(variant, third, cars)
    assert first == again == fresh
    assert exact_partition(variant, half, cars) == partition_probabilities(
        variant, half
    )


def test_cached_tree_is_read_only():
    cells = oracle._conditional_cells(1, CarDistribution.uniform(3))
    with pytest.raises(TypeError):
        cells[True, True, True] = F(1)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("uniform", [True, False])
def test_every_host_door_count_matches_the_chain_rule(n, uniform):
    # The walk for a host who opens k doors, each k in 1..n-2, against the
    # chain rule P(pick) * P(win | pick, switch) given the switch decision:
    # a switcher from a goat finds the car among n - 1 - k closed doors.
    if uniform:
        cars = CarDistribution.uniform(n)
    else:
        cars = CarDistribution.from_weights([0] + list(range(1, n)))
    for k in range(1, n - 1):
        from_goat = F(1, n - 1 - k)
        wrong = F(n - 1, n)
        assert dict(oracle._conditional_cells(k, cars)) == {
            (True, True, True): F(0),
            (True, True, False): F(1, n),
            (True, False, True): F(1, n),
            (True, False, False): F(0),
            (False, True, True): wrong * from_goat,
            (False, True, False): wrong * (1 - from_goat),
            (False, False, True): F(0),
            (False, False, False): wrong,
        }
