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
The walk weights each trajectory given its switch decision, so one walk per
(``k``, car distribution) serves every ``p``, which enters through the closed
forms' own ``_weigh_switch``.  Nothing is kept between calls.
:func:`verify_closed_forms`, which ``montyhall verify`` prints, walks one
uniform tree per (variant, ``n``) and compares it with the closed-form table
once, free of ``p``; at each ``p`` it checks the tree's P(win) against the
closed form, cross-multiplied in integers, and builds a ``Fraction`` only for
a failure line.  It compares each randomly placed leave-two tree with the
table too.  The walk weighs each car door's subtree by that door's
probability, so a placed tree is the placement-weighted sum of the ``n``
one-car trees, each with all car mass on one door: a call walks those once
per door count and checks every placement as an integer sum over one common
denominator.

The walk visits car x pick x host subset x candidate final door.  The
leave-two host (``k = n - 2``) has at most ``n - 1`` subsets, so that walk
is O(n^3); only the open-one host (``k = 1``, ``n - 2`` subsets) is O(n^4).
That is fine for desk-scale n.  Only car placements are random:
:func:`verify_closed_forms` draws them from ``default_rng(seed)``.
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

import numpy as np

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


def _conditional_cells(k: int, cars: CarDistribution) -> dict[Cell, Fraction]:
    """Weight in each (correct, switched, won) cell given the switch decision,
    for a host who opens ``k`` doors.

    The stay cells sum to 1 and so do the switch cells.  Trajectories share
    only a handful of distinct weights, so the walk counts (cell, weight)
    pairs and adds each cell's numerators over one common denominator in
    integers.  Each call walks the tree anew; the result is free of ``p``,
    so a caller may keep it.
    """
    tally = Counter(
        (pick == car, switched, final == car, weight)
        for car, pick, _opened, switched, final, weight in _raw_trajectories(k, cars)
    )
    common = math.lcm(*(den for *_, (_, den) in tally))
    numerators = dict.fromkeys(CELL_ORDER, 0)
    for (correct, switched, won, (num, den)), count in tally.items():
        numerators[correct, switched, won] += num * count * (common // den)
    return {cell: Fraction(num, common) for cell, num in numerators.items()}


def enumerate_trajectories(
    variant: GameVariant, p: RationalLike, cars: CarDistribution
) -> Iterator[Trajectory]:
    """Every game trajectory with positive weight; weights sum to exactly 1.
    The game has ``len(cars)`` doors."""
    p = as_probability(p)
    _require_member(CarDistribution, cars)
    k = _host_opens(variant, len(cars))
    # The chance of each trajectory's switch decision, looked up by its cell.
    decision = _weigh_switch(dict.fromkeys(CELL_ORDER, Fraction(1)), p)
    for car, pick, opened, switched, final, (num, den) in _raw_trajectories(k, cars):
        weight = Fraction(num, den) * decision[pick == car, switched, final == car]
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
    weights = _car_weights(n, rng)
    total = sum(weights)
    return CarDistribution(tuple(Fraction(w, total) for w in weights))


def _one_car_numerators(n: int, table: dict[Cell, Fraction]) -> list[list[int]]:
    """Per cell, the numerators of the leave-two ``n``-door trees with the car
    behind door 1, ..., door ``n``, then of ``table``, all over one common
    denominator.  Each of the ``n`` walks covers one car door's subtree."""
    k = _host_opens(GameVariant.LEAVE_TWO_CLOSED, n)
    trees = [
        _conditional_cells(k, CarDistribution(tuple(Fraction(int(c == door)) for c in range(n))))
        for door in range(n)
    ]
    trees.append(table)
    common = math.lcm(*(value.denominator for tree in trees for value in tree.values()))
    return [
        [tree[cell].numerator * (common // tree[cell].denominator) for tree in trees]
        for cell in CELL_ORDER
    ]


def verify_closed_forms(
    doors_max: int, placement_checks: int, seed: int
) -> tuple[int, list[str]]:
    """The analytic check count and the failure lines of ``montyhall verify``.

    For ``n`` from 3 to ``doors_max``, each variant's walked tree meets the
    closed forms at every point of the default grid: P(win) and the eight
    cells, two checks.  Both trees are free of ``p``, so they are weighed
    at each ``p`` only when they differ.  Then ``placement_checks`` leave-two
    trees, on car placements drawn from ``default_rng(seed)``, meet the
    p-free table.  Each placed tree is the weighted sum of the one-car trees,
    walked once per door count the placements use; a ``CarDistribution`` is
    built only for a failure line.  Nothing is kept from one call to the next.
    """
    _require_int("doors-max", doors_max, 3)
    _require_int("placement-checks", placement_checks, 0)
    _require_seed(seed)
    grid = switch_probability_grid()
    failures: list[str] = []

    analytic_checks = 0
    tables = {}
    for variant in (GameVariant.LEAVE_TWO_CLOSED, GameVariant.OPEN_ONE):
        for n in range(3, doors_max + 1):
            tree = _conditional_cells(_host_opens(variant, n), CarDistribution.uniform(n))
            table = tables[variant, n] = _cells_given_switch(variant, n)
            same = tree == table
            stay = tree[True, False, True] + tree[False, False, True]
            move = tree[True, True, True] + tree[False, True, True]
            # P(win) at p = a/b is (stay * (b - a) + move * a) / b; its
            # numerator is stay_num * (b - a) + move_num * a over den * b.
            stay_num = stay.numerator * move.denominator
            move_num = move.numerator * stay.denominator
            den = stay.denominator * move.denominator
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
                if not same and _weigh_switch(tree, p) != _weigh_switch(table, p):
                    failures.append(
                        f"partition mismatch at ({variant.value}, n={n}, p={p})"
                    )

    # The pick is uniform, so no car placement moves any cell of the partition.
    # Both trees are p-free, so they agree at p = 1/2 iff they agree at every p.
    # With T_c the tree with the car behind door c, the tree on weights w is
    # sum_c w_c * T_c / sum_c w_c: it meets the table iff, in every cell,
    # sum_c w_c * T_c == sum_c w_c * table.
    variant = GameVariant.LEAVE_TWO_CLOSED
    rng = np.random.default_rng(seed)
    one_car: dict[int, list[list[int]]] = {}
    for index in range(placement_checks):
        n = 3 + index % (doors_max - 2)
        weights = _car_weights(n, rng)
        if n not in one_car:
            one_car[n] = _one_car_numerators(n, tables[variant, n])
        total = sum(weights)
        if any(
            sum(map(operator.mul, weights, per_door)) != total * want
            for *per_door, want in one_car[n]
        ):
            cars = CarDistribution.from_weights(weights)
            failures.append(
                f"placement partition mismatch at ({variant.value}, n={n}, "
                f"p=1/2), cars={cars.alpha}"
            )
    return analytic_checks, failures
