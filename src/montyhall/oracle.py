"""Exact brute-force enumeration of every Monty Hall game trajectory.

This module is the ground truth the closed forms in :mod:`montyhall.analytic`
are checked against.  It walks the full probability tree -- car placement x
initial pick x host action x switch decision x final pick -- with exact
rational branch weights, so equalities against the analytic formulas can be
asserted with zero tolerance.  Car placement may be any rational distribution,
not just uniform; the contestant's initial pick is always uniform.

Both variants are one tree, in which the host opens ``k`` goat doors other
than the pick (see :mod:`montyhall.analytic`).  Host ties are broken
uniformly: each admissible ``k``-subset of those goat doors gets the same
weight.  A switcher then takes one of the ``n - 1 - k`` other closed doors,
uniformly.

The switch decision is independent of the car, the pick and the host, so the
switch probability ``p`` only weights the two branches under each host action.
The walk therefore weights each trajectory given its switch decision, and one
walk per (``k``, car distribution) serves every ``p`` and both variants where
they share ``k`` (at ``n = 3``): the eight cell totals are cached, and ``p``
enters through the closed forms' own ``_weigh_switch``.  ``verify`` takes
each uniform tree once per (variant, ``n``) and weighs it at every ``p``.

For both variants the walk is O(n^4): car x pick x host subset x final pick,
where the subsets times the final picks are O(n^2) at ``k = 1`` and at
``k = n - 2`` alike.  That is fine for desk-scale n.  No randomness anywhere
in this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .analytic import (
    CELL_ORDER,
    Cell,
    GameParams,
    GameVariant,
    PartitionProbabilities,
    RationalLike,
    _as_rational,
    _host_opens,
    _require_doors,
    _weigh_switch,
    as_probability,
)

__all__ = [
    "CarDistribution",
    "Trajectory",
    "enumerate_trajectories",
    "exact_win_probability",
    "exact_partition",
    "exact_initial_correct",
    "random_car_distribution",
]


@dataclass(frozen=True)
class CarDistribution:
    """Exact probabilities ``alpha[i]`` that the car sits behind door ``i + 1``."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        alpha = tuple(as_probability(a, "car placement probability") for a in self.alpha)
        _require_doors(len(alpha))
        if sum(alpha) != 1:
            raise ValueError(f"car placement probabilities sum to {sum(alpha)}, not 1")
        object.__setattr__(self, "alpha", alpha)

    def __len__(self) -> int:
        return len(self.alpha)

    @classmethod
    def uniform(cls, n: int) -> "CarDistribution":
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_weights(cls, weights: Sequence[RationalLike]) -> "CarDistribution":
        """Normalize non-negative rational weights into a distribution."""
        ws = [_as_rational(w, "car weight") for w in weights]
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls(tuple(w / total for w in ws))


class Trajectory(NamedTuple):
    """One complete game history with its exact probability weight."""

    car: int
    pick: int
    host_opens: frozenset[int]
    switched: bool
    final: int
    weight: Fraction


def _check_inputs(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> int:
    """Check that ``cars`` fits the game; return the doors the host opens."""
    if len(cars) != params.n:
        raise ValueError(
            f"car distribution covers {len(cars)} doors, game has {params.n}"
        )
    return _host_opens(variant, params.n)


def _raw_trajectories(
    k: int, cars: CarDistribution
) -> Iterator[tuple[int, int, tuple[int, ...], bool, int, tuple[int, int]]]:
    """Yield (car, pick, opened, switched, final, weight) tuples for a host
    who opens ``k`` doors.

    ``opened`` is the host's ``k``-subset of the goat doors other than the
    pick, as a sorted tuple.  ``weight`` is the exact probability of the
    trajectory given its switch decision, as a ``(numerator, denominator)``
    pair of ints, cheap to build, hash and tally.  The stay and the
    switch branches each sum to 1, so one walk serves every switch
    probability ``p``: the caller multiplies by ``1 - p`` or ``p``.  Both
    branches are always yielded; cars of probability zero are skipped, so
    every weight is positive.
    """
    n = len(cars)
    doors = range(1, n + 1)
    for car in doors:
        num, den = cars.alpha[car - 1].as_integer_ratio()
        if num == 0:
            continue
        for pick in doors:
            goats = [y for y in doors if y != pick and y != car]
            hosts = list(combinations(goats, k))
            stay_w = num, den * n * len(hosts)
            switch_w = num, stay_w[1] * (n - 1 - k)
            for opened in hosts:
                yield car, pick, opened, False, pick, stay_w
                for final in doors:
                    if final != pick and final not in opened:
                        yield car, pick, opened, True, final, switch_w


@lru_cache(maxsize=16)
def _conditional_cells(k: int, cars: CarDistribution) -> Mapping[Cell, Fraction]:
    """Weight in each (correct, switched, won) cell given the switch decision,
    for a host who opens ``k`` doors.

    The stay cells sum to 1 and so do the switch cells.  Trajectories share
    only a handful of distinct weights, so the walk counts (cell, weight)
    pairs and multiplies out each distinct pair once.  The tree does not
    depend on ``p``, so it is walked once and cached; the mapping is
    read-only, so no caller can change a cached tree.
    """
    tally = Counter(
        (pick == car, switched, final == car, weight)
        for car, pick, _opened, switched, final, weight in _raw_trajectories(k, cars)
    )
    cells = dict.fromkeys(CELL_ORDER, Fraction(0))
    for (correct, switched, won, (num, den)), count in tally.items():
        cells[correct, switched, won] += Fraction(num * count, den)
    return MappingProxyType(cells)


def enumerate_trajectories(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> Iterator[Trajectory]:
    """Every game trajectory with positive weight; weights sum to exactly 1."""
    k = _check_inputs(variant, params, cars)
    # The chance of each trajectory's switch decision, looked up by its cell.
    decision = _weigh_switch(dict.fromkeys(CELL_ORDER, Fraction(1)), params.p)
    for car, pick, opened, switched, final, (num, den) in _raw_trajectories(k, cars):
        weight = Fraction(num, den) * decision[pick == car, switched, final == car]
        if weight:
            yield Trajectory(car, pick, frozenset(opened), switched, final, weight)


def exact_win_probability(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> Fraction:
    """Total weight of trajectories whose final door hides the car.

    For a uniform car distribution this equals the closed-form marginal win
    probability exactly, for every n and p.
    """
    return exact_partition(variant, params, cars).p_win


def exact_partition(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> PartitionProbabilities:
    """Total trajectory weight in each of the eight (correct, switched, won)
    cells: the cached tree given the switch decision, weighted by ``p`` or
    ``1 - p``.  The cells sum to 1 by construction of the probability tree."""
    tree = _conditional_cells(_check_inputs(variant, params, cars), cars)
    return PartitionProbabilities(_weigh_switch(tree, params.p))


def exact_initial_correct(params: GameParams, cars: CarDistribution) -> Fraction:
    """Probability that the uniform initial pick finds the car, by enumeration.

    Equals 1/n for every valid car distribution: the host strategy happens
    after the pick, so the cheaper leave-two-closed tree is enumerated.
    """
    cells = exact_partition(GameVariant.LEAVE_TWO_CLOSED, params, cars).cells
    return sum((v for (correct, _, _), v in cells.items() if correct), Fraction(0))


def random_car_distribution(n: int, rng) -> CarDistribution:
    """Draw a random rational car distribution on ``n`` doors.

    ``rng`` is a ``numpy.random.Generator`` (or anything with a compatible
    ``integers`` method).  Integer weights in [0, 100] are normalized exactly,
    so individual doors may get probability zero.
    """
    while True:
        weights = [int(rng.integers(0, 101)) for _ in range(n)]
        if sum(weights) > 0:
            return CarDistribution.from_weights(weights)
