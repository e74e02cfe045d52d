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
The one walker, ``_raw_trajectories``, walks a one-car tree: the car behind
one door, every pick, host subset and final door, each trajectory weighted
given the car and its switch decision.  A tree on any car placement is the
placement-weighted sum of the ``n`` one-car trees, so each (``k``, ``n``)
is walked once per car door and serves every placement and every ``p``,
which enters through the closed forms' own ``_weigh_switch``.  Nothing is
kept between calls.  :func:`verify_closed_forms`, which ``montyhall verify``
prints, reads each variant's uniform tree and its random placements as
integer sums of the same one-car trees.

A one-car tree visits pick x host subset x candidate final door.  The
leave-two host (``k = n - 2``) leaves at most ``n - 1`` subsets, so its tree
is O(n^2) per car door; the open-one host (``k = 1``, ``n - 2`` subsets) is
O(n^3) per car door.  That is fine for desk-scale n.  Only car placements
are random: :func:`verify_closed_forms` draws them from
``default_rng(seed)``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import analytic
from .analytic import (
    CELL_ORDER,
    Cell,
    GameVariant,
    PartitionProbabilities,
    RationalLike,
    _as_rational,
    _cells_given_switch,
    _host_opens,
    _require_doors,
    _require_int,
    _require_member,
    _require_seed,
    _weigh_switch,
    as_probability,
    switch_probability_grid,
)

__all__ = [
    "CarDistribution",
    "Trajectory",
    "enumerate_trajectories",
    "exact_win_probability",
    "exact_partition",
    "exact_initial_correct",
    "random_car_distribution",
    "verify_closed_forms",
]


@dataclass(frozen=True)
class CarDistribution:
    """Exact probabilities ``alpha[i]`` that the car sits behind door ``i + 1``."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require_member(Iterable, self.alpha)
        alpha = tuple(as_probability(a, "car placement probability") for a in self.alpha)
        _require_doors(len(alpha))
        if sum(alpha) != 1:
            raise ValueError(f"car placement probabilities sum to {sum(alpha)}, not 1")
        object.__setattr__(self, "alpha", alpha)

    def __len__(self) -> int:
        return len(self.alpha)

    @classmethod
    def uniform(cls, n: int) -> "CarDistribution":
        _require_doors(n)
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_weights(cls, weights: Sequence[RationalLike]) -> "CarDistribution":
        """Normalize non-negative rational weights into a distribution."""
        _require_member(Iterable, weights)
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


def _raw_trajectories(
    k: int, n: int, car: int
) -> Iterator[tuple[int, tuple[int, ...], bool, int, int]]:
    """Yield (pick, opened, switched, final, den) tuples of the ``n``-door
    game with the car behind door ``car``, for a host who opens ``k`` doors.

    ``opened`` is the host's ``k``-subset of the goat doors other than the
    pick, as a sorted tuple.  ``1 / den`` is the exact probability of the
    trajectory given the car and the switch decision.  The stay and the
    switch branches each sum to 1, so one walk serves every car placement
    and every switch probability ``p``: the caller multiplies by the car
    door's probability and by ``1 - p`` or ``p``.
    """
    doors = range(1, n + 1)
    for pick in doors:
        goats = [y for y in doors if y != pick and y != car]
        hosts = list(combinations(goats, k))
        stay_den = n * len(hosts)
        switch_den = stay_den * (n - 1 - k)
        for opened in hosts:
            yield pick, opened, False, pick, stay_den
            for final in doors:
                if final != pick and final not in opened:
                    yield pick, opened, True, final, switch_den


def _one_car_rows(
    k: int, n: int, cars: Iterable[int] | None = None
) -> tuple[int, dict[Cell, list[int]]]:
    """The one-car trees of a host who opens ``k`` doors, with the car
    behind each door of ``cars`` (default: door 1, ..., door ``n``): a common
    denominator and, per cell in ``CELL_ORDER``, the trees' numerators over
    it, in the order of ``cars``.

    Trajectories share only a handful of distinct weights, so each walk
    counts (cell, den) pairs and the cells are added in integers.
    """
    tallies = [
        Counter(
            ((pick == car, switched, final == car), den)
            for pick, _opened, switched, final, den in _raw_trajectories(k, n, car)
        )
        for car in (range(1, n + 1) if cars is None else cars)
    ]
    common = math.lcm(*(den for tally in tallies for _, den in tally))
    rows = {cell: [0] * len(tallies) for cell in CELL_ORDER}
    for door, tally in enumerate(tallies):
        for (cell, den), count in tally.items():
            rows[cell][door] += count * (common // den)
    return common, rows


def _conditional_cells(k: int, cars: CarDistribution) -> dict[Cell, Fraction]:
    """Weight in each (correct, switched, won) cell given the switch decision,
    for a host who opens ``k`` doors.

    The stay cells sum to 1 and so do the switch cells.  Each is the
    ``cars.alpha``-weighted sum of the one-car trees' cells, taken in
    integers: ``alpha`` over its common denominator weighs the trees of the
    doors that may hide the car, the only ones walked.  Each call walks the
    trees anew; the result is free of ``p``, so a caller may keep it.
    """
    scale = math.lcm(*(alpha.denominator for alpha in cars.alpha))
    weights = {car: int(alpha * scale) for car, alpha in enumerate(cars.alpha, 1) if alpha}
    common, rows = _one_car_rows(k, len(cars), weights)
    den = scale * common
    return {
        cell: Fraction(sum(map(operator.mul, weights.values(), row)), den)
        for cell, row in rows.items()
    }


def enumerate_trajectories(
    variant: GameVariant, p: RationalLike, cars: CarDistribution
) -> Iterator[Trajectory]:
    """Every game trajectory with positive weight; weights sum to exactly 1.
    The game has ``len(cars)`` doors."""
    p = as_probability(p)
    _require_member(CarDistribution, cars)
    n = len(cars)
    k = _host_opens(variant, n)
    for car, alpha in enumerate(cars.alpha, 1):
        for pick, opened, switched, final, den in _raw_trajectories(k, n, car):
            weight = alpha / den * (p if switched else 1 - p)
            if weight:
                yield Trajectory(car, pick, frozenset(opened), switched, final, weight)


def exact_win_probability(
    variant: GameVariant, p: RationalLike, cars: CarDistribution
) -> Fraction:
    """Total weight of trajectories whose final door hides the car.

    For a uniform car distribution this equals the closed-form marginal win
    probability exactly, for every n and p.  Each call walks the tree.
    """
    return exact_partition(variant, p, cars).p_win


def exact_partition(
    variant: GameVariant, p: RationalLike, cars: CarDistribution
) -> PartitionProbabilities:
    """Total trajectory weight in each of the eight (correct, switched, won)
    cells of the ``len(cars)``-door game: the tree given the switch decision,
    walked on each call and weighted by ``p`` or ``1 - p``.  The cells sum to
    1 by construction."""
    p = as_probability(p)
    _require_member(CarDistribution, cars)
    tree = _conditional_cells(_host_opens(variant, len(cars)), cars)
    return PartitionProbabilities(_weigh_switch(tree, p))


def exact_initial_correct(cars: CarDistribution) -> Fraction:
    """Probability that the uniform initial pick finds the car, by enumeration.

    Equals 1/n for every valid car distribution: the host strategy happens
    after the pick, so each call walks the cheaper leave-two-closed tree.
    Its stay branch holds every pick with weight 1, free of ``p``.
    """
    _require_member(CarDistribution, cars)
    cells = _conditional_cells(_host_opens(GameVariant.LEAVE_TWO_CLOSED, len(cars)), cars)
    return cells[True, False, True] + cells[True, False, False]


def _car_weights(n: int, rng) -> list[int]:
    """``n`` integer weights in [0, 100] drawn in one call, redrawn while
    they sum to zero."""
    while True:
        weights = rng.integers(0, 101, size=n).tolist()
        if sum(weights):
            return weights


def random_car_distribution(n: int, rng) -> CarDistribution:
    """Draw a random rational car distribution on ``n`` doors.

    ``rng`` is a ``numpy.random.Generator`` (or anything with a compatible
    ``integers(low, high, size=n)`` method).  Integer weights in [0, 100],
    drawn in one call, are normalized exactly, so individual doors may get
    probability zero.
    """
    _require_doors(n)
    return CarDistribution.from_weights(_car_weights(n, rng))


def _meets_table(
    weights: Sequence[int], common: int, rows: dict[Cell, list[int]], table: dict[Cell, Fraction]
) -> bool:
    """Whether the tree on integer car weights w equals ``table``: with T_c
    the one-car trees, numerators over ``common`` in ``rows``, it is
    sum_c w_c * T_c / sum_c w_c, so in every cell sum_c w_c * T_c must equal
    sum_c w_c * table, cross-multiplied in integers."""
    total = sum(weights) * common
    return all(
        sum(map(operator.mul, weights, rows[cell])) * want.denominator == total * want.numerator
        for cell, want in table.items()
    )


def verify_closed_forms(
    doors_max: int, placement_checks: int, seed: int
) -> tuple[int, list[str]]:
    """The analytic check count and the failure lines of ``montyhall verify``.

    For ``n`` from 3 to ``doors_max``, each variant's one-car trees are
    walked once.  Their sum, the uniform tree, meets the closed forms at
    every point of the default grid: P(win) and the eight cells, two
    checks.  The tree and the table are free of ``p``, so they are weighed
    at each ``p`` only when they differ.  Then ``placement_checks`` trees
    on car placements drawn from ``default_rng(seed)``, alternating
    leave-two and open-one, meet the p-free table, each as a weighted sum
    of the same one-car trees.  ``Fraction``s are built only for a failure
    line or for trees that differ from their table.  Nothing is kept from
    one call to the next.
    """
    _require_int("doors-max", doors_max, 3)
    _require_int("placement-checks", placement_checks, 0)
    _require_seed(seed)
    grid = switch_probability_grid()
    variants = (GameVariant.LEAVE_TWO_CLOSED, GameVariant.OPEN_ONE)
    failures: list[str] = []

    analytic_checks = 0
    trees = {}
    for variant in variants:
        for n in range(3, doors_max + 1):
            common, rows = _one_car_rows(_host_opens(variant, n), n)
            table = _cells_given_switch(variant, n)
            trees[variant, n] = common, rows, table
            # The uniform tree is sum_c T_c / n: the placement with all weights 1.
            den = n * common
            tree = None
            if not _meets_table([1] * n, common, rows, table):
                tree = {cell: Fraction(sum(row), den) for cell, row in rows.items()}
            # P(win) at p = a/b is (stay * (b - a) + move * a) / b; over
            # den * b, its numerator is stay_num * (b - a) + move_num * a.
            stay_num = sum(rows[True, False, True]) + sum(rows[False, False, True])
            move_num = sum(rows[True, True, True]) + sum(rows[False, True, True])
            for p in grid:
                a, b = p.numerator, p.denominator
                got = stay_num * (b - a) + move_num * a
                # Looked up at call time, so a patched or traced closed form is checked.
                want = analytic.win_marginal(variant, n, p)
                analytic_checks += 2
                if got * want.denominator != want.numerator * den * b:
                    failures.append(
                        f"win probability mismatch at ({variant.value}, n={n}, "
                        f"p={p}): enumeration {Fraction(got, den * b)} vs closed form {want}"
                    )
                # Unequal p-free trees can still agree at p = 0 or 1.
                if tree is not None and _weigh_switch(tree, p) != _weigh_switch(table, p):
                    failures.append(
                        f"partition mismatch at ({variant.value}, n={n}, p={p})"
                    )

    # The pick is uniform, so no car placement moves any cell of the partition.
    # Both trees are p-free, so they agree at p = 1/2 iff they agree at every p.
    # Imported here, so that importing the oracle never loads numpy.
    from numpy.random import default_rng

    rng = default_rng(seed)
    for index in range(placement_checks):
        n = 3 + index % (doors_max - 2)
        variant = variants[index // (doors_max - 2) % 2]
        weights = _car_weights(n, rng)
        if not _meets_table(weights, *trees[variant, n]):
            cars = CarDistribution.from_weights(weights)
            failures.append(
                f"placement partition mismatch at ({variant.value}, n={n}, "
                f"p=1/2), cars={cars.alpha}"
            )
    return analytic_checks, failures
