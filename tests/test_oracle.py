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
    verify_closed_forms,
)

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

F = Fraction

SKEWED_3 = CarDistribution((F(9, 10), F(1, 20), F(1, 20)))
DEGENERATE_3 = CarDistribution((F(1), F(0), F(0)))


def fractions_tuple(*nums_dens):
    return tuple(F(a, b) for a, b in nums_dens)


def test_uniform_half_switch_probability():
    assert exact_win_probability(LEAVE_TWO, F(1, 2), CarDistribution.uniform(3)) == F(1, 2)


def test_degenerate_placement_always_switch():
    # picking door 1 (w.p. 1/3) then switching loses; any other pick wins
    assert exact_win_probability(LEAVE_TWO, F(1), DEGENERATE_3) == F(2, 3)


@pytest.mark.parametrize(
    "cars",
    [
        CarDistribution.uniform(4),
        CarDistribution(fractions_tuple((1, 2), (1, 4), (1, 8), (1, 8))),
        CarDistribution(fractions_tuple((0, 1), (0, 1), (1, 1), (0, 1))),
    ],
)
def test_never_switching_wins_one_in_n_for_any_placement(cars):
    assert exact_win_probability(OPEN_ONE, F(0), cars) == F(1, 4)


def test_partition_matches_analytic_cell_by_cell():
    assert exact_partition(LEAVE_TWO, F(1, 2), CarDistribution.uniform(3)) == (
        partition_probabilities(LEAVE_TWO, 3, F(1, 2))
    )


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("cars", [CarDistribution.uniform(5), None])
def test_always_switching_kills_stay_cells(variant, cars):
    cars = cars or CarDistribution(fractions_tuple((1, 3), (1, 3), (1, 3), (0, 1), (0, 1)))
    part = exact_partition(variant, F(1), cars)
    for cell, value in part.cells.items():
        if not cell[1]:  # stayed
            assert value == 0


def test_open_one_switch_win_cell_five_doors():
    part = exact_partition(OPEN_ONE, F(1), CarDistribution.uniform(5))
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
    assert exact_initial_correct(cars) == expected


def test_oracle_confirms_open_one_marginal_derivation():
    enumerated = exact_win_probability(OPEN_ONE, F(1), CarDistribution.uniform(4))
    assert enumerated == win_marginal(OPEN_ONE, 4, F(1)) == F(3, 8)


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("p", [F(0), F(1, 20), F(1, 2), F(1)])
@pytest.mark.parametrize("cars", [CarDistribution.uniform(5), None])
def test_trajectory_weights_sum_to_one(variant, p, cars):
    cars = cars or CarDistribution(fractions_tuple((1, 2), (1, 6), (1, 6), (1, 6), (0, 1)))
    total = sum(
        t.weight for t in enumerate_trajectories(variant, p, cars)
    )
    assert total == 1


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_trajectory_invariants(variant, n):
    opened_count = n - 2 if variant is LEAVE_TWO else 1
    for t in enumerate_trajectories(variant, F(1, 3), CarDistribution.uniform(n)):
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
        enumerate_trajectories(variant, F(1, 2), CarDistribution.uniform(n)),
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
    uniform = CarDistribution.uniform(n)
    assert exact_win_probability(variant, p, uniform) == win_marginal(variant, n, p)
    assert exact_partition(variant, p, uniform) == partition_probabilities(variant, n, p)


@given(
    weights=st.lists(st.integers(0, 30), min_size=3, max_size=8).filter(
        lambda ws: sum(ws) > 0
    ),
)
def test_initial_pick_is_uniform_for_any_placement(weights):
    cars = CarDistribution.from_weights(weights)
    n = len(cars)
    assert exact_initial_correct(cars) == F(1, n)


@given(
    weights=st.lists(st.integers(0, 30), min_size=3, max_size=7).filter(
        lambda ws: sum(ws) > 0
    ),
    variant=st.sampled_from([LEAVE_TWO, OPEN_ONE]),
)
def test_never_switching_is_placement_free(weights, variant):
    cars = CarDistribution.from_weights(weights)
    n = len(cars)
    assert exact_win_probability(variant, F(0), cars) == F(1, n)


def test_input_validation():
    with pytest.raises(ValueError):
        exact_win_probability("leave-two", F(1), CarDistribution.uniform(5))
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
    with pytest.raises(ValueError):
        CarDistribution.from_weights([-1, 2, 2])


def test_random_car_distribution_is_valid_and_reproducible():
    first = random_car_distribution(6, np.random.default_rng(11))
    second = random_car_distribution(6, np.random.default_rng(11))
    assert first == second
    assert len(first) == 6
    assert sum(first.alpha) == 1


@pytest.mark.parametrize("n", range(3, 11))
def test_random_car_distribution_equals_its_draws_normalized(n):
    for seed in range(25):
        rng, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        weights = [int(drawn.integers(0, 101)) for _ in range(n)]
        assert random_car_distribution(n, rng) == CarDistribution.from_weights(weights)
        assert rng.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("n", [2, 3.5, "4", True])
def test_random_car_distribution_checks_doors_before_drawing(n):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^doors must be >= 3 and an integer"):
        random_car_distribution(n, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("p", [F(0), F(1, 20), F(1, 2), F(1)])
@pytest.mark.parametrize("uniform", [True, False])
def test_partition_is_the_per_cell_sum_of_trajectory_weights(variant, n, p, uniform):
    if uniform:
        cars = CarDistribution.uniform(n)
    else:
        cars = CarDistribution.from_weights([0] + list(range(1, n)))
    sums = dict.fromkeys(exact_partition(variant, p, cars).cells, F(0))
    for t in enumerate_trajectories(variant, p, cars):
        sums[t.pick == t.car, t.switched, t.final == t.car] += t.weight
    assert exact_partition(variant, p, cars).cells == sums
    # The pick is uniform, so no car placement moves any cell.
    assert exact_partition(variant, p, cars) == partition_probabilities(variant, n, p)


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("p", [F(0), F(1)])
def test_certain_switch_decisions_yield_only_positive_weights(variant, p):
    trajectories = list(
        enumerate_trajectories(variant, p, CarDistribution.uniform(4))
    )
    assert trajectories
    assert all(t.weight > 0 and t.switched == (p == 1) for t in trajectories)


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


def _fraction_sum_cells(k, cars):
    """``_conditional_cells`` as it summed before: one ``Fraction`` per
    (cell, weight) pair of the walk."""
    cells = dict.fromkeys(oracle.CELL_ORDER, F(0))
    for car, pick, _, switched, final, (num, den) in oracle._raw_trajectories(k, cars):
        cells[pick == car, switched, final == car] += F(num, den)
    return cells


def test_integer_cell_sums_equal_the_fraction_sums_on_random_placements():
    rng = np.random.default_rng(20261019)
    for n in range(3, 9):
        for _ in range(5):
            cars = random_car_distribution(n, rng)
            for k in range(1, n - 1):
                assert oracle._conditional_cells(k, cars) == _fraction_sum_cells(k, cars)


def test_verify_closed_forms_reports_its_checks():
    # 2 variants x 3 door counts x 21 grid points x 2 checks; no failure.
    assert verify_closed_forms(5, 3, 0) == (252, [])
    assert verify_closed_forms(3, 0, 2**64 - 1) == (84, [])


@pytest.mark.parametrize(
    "args, name",
    [
        ((2, 3, 0), "doors-max"),
        ((5.0, 3, 0), "doors-max"),
        ((5, -1, 0), "placement-checks"),
        ((5, 3, -1), "seed"),
        ((5, 3, 2**64), "seed"),
        # Checked in this order: the first bad argument is the one named.
        ((2, -1, -1), "doors-max"),
        ((5, -1, -1), "placement-checks"),
    ],
)
def test_verify_closed_forms_names_its_bad_input(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify_closed_forms(*args)
