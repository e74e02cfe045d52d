"""The library's input contract: each callable that ``montyhall`` exports,
given valid arguments but at most one hostile one, returns a result or
raises ``ValueError``; no other exception escapes.  A duck-typed ``rng`` is
outside the contract, so it is never replaced."""

import inspect
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import montyhall
from montyhall import (
    CarDistribution,
    GameVariant,
    PlanMethod,
    SimulationConfig,
    SimulationResult,
    partition_probabilities,
)
from test_cli_contract import HOSTILE

F = Fraction
OPEN_ONE = GameVariant.OPEN_ONE
CARS = CarDistribution((F(1, 2), F(1, 4), F(1, 4)))
CONFIG = SimulationConfig(OPEN_ONE, 5, 64, master_seed=7, chunk_size=16)


class _Rng:
    """Marks the ``rng`` slot: a fresh generator on each call, never replaced."""


#: Valid (args, kwargs) for each exported callable, and for the classmethods
#: that build a CarDistribution.
CALLS = {
    "GameVariant": (("open-one",), {}),
    "PartitionProbabilities": ((dict(partition_probabilities(OPEN_ONE, 5, F(1, 3)).cells),), {}),
    "as_probability": (("1/3", "switch probability"), {}),
    "switch_probability_grid": ((F(1, 4),), {}),
    "win_given_switch": ((OPEN_ONE, 5), {}),
    "win_given_stay": ((OPEN_ONE, 5), {}),
    "win_marginal": ((OPEN_ONE, 5, "1/3"), {}),
    "linear_coefficients": ((OPEN_ONE, 5), {}),
    "partition_probabilities": ((OPEN_ONE, 5, "1/3"), {}),
    "CarDistribution": (((F(1, 2), F(1, 4), F(1, 4)),), {}),
    "CarDistribution.uniform": ((4,), {}),
    "CarDistribution.from_weights": (([1, 2, 3],), {}),
    "Trajectory": ((1, 2, frozenset({3}), True, 1, F(1, 6)), {}),
    "enumerate_trajectories": ((OPEN_ONE, "1/3", CARS), {}),
    "exact_win_probability": ((OPEN_ONE, "1/3", CARS), {}),
    "exact_partition": ((OPEN_ONE, "1/3", CARS), {}),
    "exact_initial_correct": ((CARS,), {}),
    "random_car_distribution": ((4, _Rng), {}),
    "verify_closed_forms": ((4, 3, 7), {}),
    "PlanMethod": (("clt",), {}),
    "SampleSizePlan": ((100, 2.5), {}),
    "normal_quantile": ((0.975,), {}),
    "sample_size": ((0.5, 0.05, 0.01, PlanMethod.CLT), {}),
    "band_halfwidth": ((0.5, 100, 0.01, PlanMethod.CLT), {}),
    "SimulationConfig": ((OPEN_ONE, 5, 64, 7, 16), {}),
    "TrialTrace": ((1, frozenset({2}), False, 1, True), {}),
    "SimulationResult": ((10, 3), {}),
    "SweepRow": ((F(1, 2), SimulationResult(10, 3), F(1, 2), 0.1, 0.2), {}),
    "substream": ((7, 1, 2), {}),
    "trace_trial": ((OPEN_ONE, 5, "1/3", _Rng), {}),
    "run_batch": ((CONFIG, [F(1, 2), 0.25]), {"workers": 2}),
    "sweep": ((CONFIG, F(1, 2)), {"delta": 0.01, "workers": 2}),
}

#: The command line's hostile strings, the same values as numbers (without
#: 2**64, which is a valid door or check count that would run for ever),
#: wrong types, and numpy scalars.
HOSTILE_VALUES = (
    *HOSTILE,
    -1, 0, 2.5, 1e-300, float("nan"), float("inf"),
    None, 1j, [], {}, object(), b"1", "",
    np.int64(5), np.float64(0.5), np.float32(0.5), np.bool_(True), np.float64("nan"),
)


def _callable(name):
    target = montyhall
    for part in name.split("."):
        target = getattr(target, part)
    return target


def test_the_table_covers_every_exported_callable():
    exported = {name for name in montyhall.__all__ if callable(getattr(montyhall, name))}
    assert exported <= set(CALLS)


@st.composite
def calls(draw):
    """A callable, its valid arguments, and at most one of them hostile."""
    name = draw(st.sampled_from(sorted(CALLS)))
    args, kwargs = CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    slots = [None, *(i for i, arg in enumerate(args) if arg is not _Rng), *kwargs]
    slot = draw(st.sampled_from(slots))
    if slot is not None:
        value = draw(st.sampled_from(HOSTILE_VALUES))
        if isinstance(slot, int):
            args[slot] = value
        else:
            kwargs[slot] = value
    return name, args, kwargs


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(call=calls())
def test_every_call_returns_or_raises_value_error(call):
    name, args, kwargs = call
    args = [np.random.default_rng(0) if arg is _Rng else arg for arg in args]
    try:
        result = _callable(name)(*args, **kwargs)
        if inspect.isgenerator(result):
            list(result)
    except ValueError:
        pass
