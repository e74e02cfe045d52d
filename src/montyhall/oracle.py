"""Exact brute-force enumeration of every Monty Hall game trajectory.

This module is the ground truth the closed forms in :mod:`montyhall.analytic`
are checked against.  It walks the full probability tree -- car placement x
initial pick x host action x switch decision x final pick -- with exact
rational branch weights, so equalities against the analytic formulas can be
asserted with zero tolerance.  Car placement may be any rational distribution,
not just uniform; the contestant's initial pick is always uniform.

The host ties are broken uniformly: when the contestant's pick is the car,
every admissible host action gets weight 1/(n-1).

The switch decision is independent of the car, the pick and the host, so the
switch probability ``p`` only weights the two branches under each host action.
The walk therefore weights each trajectory given its switch decision, and one
walk per (variant, car distribution) serves every ``p``: the eight cell totals
are cached and multiplied by ``p`` or ``1 - p`` per cell.

Enumeration is O(n^3) states for the leave-two-closed strategy and O(n^4) for
open-one (the switcher's final pick adds a factor), fine for desk-scale n.
No randomness anywhere in this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .analytic import (
    CELL_ORDER,
    Cell,
    GameParams,
    GameVariant,
    PartitionProbabilities,
    RationalLike,
    _require_doors,
    _require_member,
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
        alpha = tuple(Fraction(a) for a in self.alpha)
        _require_doors(len(alpha))
        if any(a < 0 for a in alpha):
            raise ValueError("car placement probabilities must be non-negative")
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
        ws = [Fraction(w) for w in weights]
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
) -> None:
    _require_member(GameVariant, variant)
    if len(cars) != params.n:
        raise ValueError(
            f"car distribution covers {len(cars)} doors, game has {params.n}"
        )


def _raw_trajectories(
    variant: GameVariant, n: int, cars: CarDistribution
) -> Iterator[tuple[int, int, int, bool, int, tuple[int, int]]]:
    """Yield (car, pick, host_door, switched, final, weight) tuples.

    ``host_door`` encodes the host action compactly: the single door left
    closed besides the pick (leave-two-closed) or the single door opened
    (open-one).  ``weight`` is the exact probability of the trajectory given
    its switch decision, as a reduced ``(numerator, denominator)`` pair of
    ints, cheap to hash and tally.  The stay and the switch branches each
    sum to 1, so one walk serves every switch probability ``p``: the caller
    multiplies by ``1 - p`` or ``p``.  Both branches are always yielded;
    cars of probability zero are skipped, so every weight is positive.
    """
    doors = range(1, n + 1)
    for car in doors:
        alpha = cars.alpha[car - 1]
        if alpha == 0:
            continue
        for pick in doors:
            if variant is GameVariant.LEAVE_TWO_CLOSED:
                # Host opens all but one other door; the car door must stay
                # closed, so the host only has a choice when pick == car.
                if pick == car:
                    hosts = [y for y in doors if y != pick]
                else:
                    hosts = [car]
                w = (alpha / (n * len(hosts))).as_integer_ratio()
                for y in hosts:
                    yield car, pick, y, False, pick, w
                    yield car, pick, y, True, y, w
            else:
                # Host opens one goat door other than the pick; a switcher
                # then picks uniformly among the n - 2 other closed doors.
                hosts = [y for y in doors if y != pick and y != car]
                w0 = alpha / (n * len(hosts))
                stay_w = w0.as_integer_ratio()
                switch_w = (w0 / (n - 2)).as_integer_ratio()
                for y in hosts:
                    yield car, pick, y, False, pick, stay_w
                    for final in doors:
                        if final != pick and final != y:
                            yield car, pick, y, True, final, switch_w


@lru_cache(maxsize=16)
def _conditional_cells(
    variant: GameVariant, cars: CarDistribution
) -> Mapping[Cell, Fraction]:
    """Weight in each (correct, switched, won) cell given the switch decision.

    The stay cells sum to 1 and so do the switch cells.  Trajectories share
    only a handful of distinct weights, so the walk counts (cell, weight)
    pairs and multiplies out each distinct pair once.  The tree does not
    depend on ``p``, so it is walked once and cached; the mapping is
    read-only, so no caller can change a cached tree.
    """
    tally = Counter(
        (pick == car, switched, final == car, weight)
        for car, pick, _host, switched, final, weight in _raw_trajectories(
            variant, len(cars), cars
        )
    )
    cells = dict.fromkeys(CELL_ORDER, Fraction(0))
    for (correct, switched, won, (num, den)), count in tally.items():
        cells[correct, switched, won] += Fraction(num * count, den)
    return MappingProxyType(cells)


def _cells(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> dict[Cell, Fraction]:
    """Total trajectory weight in each (correct, switched, won) cell."""
    _check_inputs(variant, params, cars)
    p = params.p
    q = 1 - p
    return {
        cell: mass * (p if cell[1] else q)
        for cell, mass in _conditional_cells(variant, cars).items()
    }


def enumerate_trajectories(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> Iterator[Trajectory]:
    """Every game trajectory with positive weight; weights sum to exactly 1."""
    _check_inputs(variant, params, cars)
    n, p = params.n, params.p
    q = 1 - p
    all_doors = frozenset(range(1, n + 1))
    for car, pick, host_door, switched, final, (num, den) in _raw_trajectories(
        variant, n, cars
    ):
        weight = Fraction(num, den) * (p if switched else q)
        if not weight:
            continue
        if variant is GameVariant.LEAVE_TWO_CLOSED:
            opens = all_doors - {pick, host_door}
        else:
            opens = frozenset((host_door,))
        yield Trajectory(car, pick, opens, switched, final, weight)


def exact_win_probability(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> Fraction:
    """Total weight of trajectories whose final door hides the car.

    For a uniform car distribution this equals the closed-form marginal win
    probability exactly, for every n and p.
    """
    cells = _cells(variant, params, cars)
    return sum((v for (_, _, won), v in cells.items() if won), Fraction(0))


def exact_partition(
    variant: GameVariant, params: GameParams, cars: CarDistribution
) -> PartitionProbabilities:
    """Accumulate trajectory weights into the eight (correct, switched, won)
    cells.  The cells sum to 1 by construction of the probability tree."""
    return PartitionProbabilities(_cells(variant, params, cars))


def exact_initial_correct(params: GameParams, cars: CarDistribution) -> Fraction:
    """Probability that the uniform initial pick finds the car, by enumeration.

    Equals 1/n for every valid car distribution: the host strategy happens
    after the pick, so the cheaper leave-two-closed tree is enumerated.
    """
    cells = _cells(GameVariant.LEAVE_TWO_CLOSED, params, cars)
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
