"""Closed-form win probabilities for generalized Monty Hall games.

A game has ``n >= 3`` doors and one car.  The contestant first picks a door
uniformly at random; the host then opens ``k`` goat doors other than the
pick, chosen uniformly among the admissible ones; and the contestant switches
with probability ``p`` (independently of whether the pick was correct),
taking one of the ``n - 1 - k`` other closed doors uniformly.  A switcher who
had a goat therefore wins with chance ``1/(n - 1 - k)``.  The two host
strategies are the two ends of ``k``:

* ``LEAVE_TWO_CLOSED`` -- ``k = n - 2``: the host leaves one other door
  closed, so a switching contestant faces a single alternative door.
* ``OPEN_ONE`` -- ``k = 1``: the host opens exactly one goat door, and a
  switching contestant picks among the ``n - 2`` other closed doors.

At ``n = 3`` the two strategies are the same game.  Given the switch
decision, each of the eight (pick correct, switched, won) cells is free of
``p``, which enters in one place, ``_weigh_switch``, shared with the oracle.

Everything in this module is exact: probabilities are ``fractions.Fraction``
values and all identities (the eight-cell partition summing to one, the law of
total probability, affinity of the win probability in ``p``) hold as exact
rational equalities.  Convert to ``float`` only at the output boundary.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Union

__all__ = [
    "GameVariant",
    "PartitionProbabilities",
    "CELL_ORDER",
    "GRID_STEP_DEFAULT",
    "as_probability",
    "switch_probability_grid",
    "win_given_switch",
    "win_given_stay",
    "win_marginal",
    "partition_probabilities",
]

RationalLike = Union[Fraction, int, str]

#: Partition cell key: (initially_correct, switched, won).
Cell = tuple[bool, bool, bool]

#: Canonical ordering of the eight partition cells, correct-pick cells first.
CELL_ORDER: tuple[Cell, ...] = tuple(
    (e, c, w) for e in (True, False) for c in (True, False) for w in (True, False)
)


class GameVariant(Enum):
    """Host behaviour after the contestant's initial pick: how many goat
    doors ``k`` the host opens, ``n - 2`` (leave two closed) or ``1``."""

    LEAVE_TWO_CLOSED = "leave-two"
    OPEN_ONE = "open-one"


def _require_int(name: str, value: int, low: int, high: float = math.inf) -> None:
    """An ``int``, not a ``bool``, in ``[low, high)``."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise ValueError(f"{name} must be {bound} and an integer, got {value!r}")


#: The real numbers a validator accepts: ints, binary floats and Fractions.
_REAL = (int, float, Fraction)


def _require_unit(name: str, value: float, *, open_interval: bool = False) -> None:
    """A real number in ``[0, 1]``, or in ``(0, 1)`` when ``open_interval``."""
    real = isinstance(value, _REAL)
    if not (real and (0 < value < 1 if open_interval else 0 <= value <= 1)):
        bounds = "(0, 1)" if open_interval else "[0, 1]"
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")


def _require_member(kind: type, value: object) -> None:
    """An instance of ``kind``: an ``Enum`` member, or a value object."""
    if not isinstance(value, kind):
        raise ValueError(f"expected a {kind.__name__}, got {value!r}")


def _require_doors(n: int) -> None:
    _require_int("doors", n, 3)


def _require_seed(seed: int) -> None:
    _require_int("seed", seed, 0, 2**64)


def _host_opens(variant: GameVariant, n: int) -> int:
    """The number ``k`` of goat doors the host opens in an ``n``-door game."""
    _require_member(GameVariant, variant)
    return n - 2 if variant is GameVariant.LEAVE_TWO_CLOSED else 1


def _as_rational(value: RationalLike, name: str) -> Fraction:
    """``Fraction(value)``, with every way it can fail ending as ``ValueError``."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValueError(f"not a rational {name}: {value!r}") from exc


def as_probability(value: RationalLike, name: str = "probability") -> Fraction:
    """Parse ``value`` into an exact probability; ``name`` labels errors.

    Decimal strings are read exactly ("0.05" becomes 1/20, not the nearest
    binary float); "1/3"-style fraction strings are accepted as-is, and a
    float becomes the exact rational it stores.  A ``Fraction`` is exact
    already and comes back as it is.
    """
    if type(value) is Fraction and 0 <= value.numerator <= value.denominator:
        return value
    p = _as_rational(value, name)
    _require_unit(name, p)
    return p


#: Default grid step: 21 switch probabilities 0.00, 0.05, ..., 1.00.
GRID_STEP_DEFAULT = Fraction(1, 20)

_MAX_GRID_INTERVALS = 10**6


def switch_probability_grid(step: RationalLike = GRID_STEP_DEFAULT) -> list[Fraction]:
    """Exact grid {k * step : 0 <= k <= 1/step} for a step 1/k, k <= 10**6."""
    step = as_probability(step)
    if step.numerator != 1 or step.denominator > _MAX_GRID_INTERVALS:
        raise ValueError(f"grid step must be 1/k, k <= {_MAX_GRID_INTERVALS}: {step}")
    return [Fraction(k, step.denominator) for k in range(step.denominator + 1)]


@dataclass(frozen=True)
class PartitionProbabilities:
    """The eight exact probabilities of the events "initial pick correct"
    x "switched" x "won", keyed by a (bool, bool, bool) triple.

    The cells are mutually exclusive and cover the sample space, so they must
    sum to exactly one; the constructor enforces this.
    """

    cells: Mapping[Cell, Fraction]

    def __post_init__(self) -> None:
        _require_member(Mapping, self.cells)
        if set(self.cells) != set(CELL_ORDER):
            raise ValueError("partition needs exactly the eight (e, c, w) cells")
        for key, value in self.cells.items():
            _require_unit(f"cell {key}", value)
        if sum(self.cells.values()) != 1:
            raise ValueError(f"partition cells sum to {sum(self.cells.values())}, not 1")
        ordered = {cell: Fraction(self.cells[cell]) for cell in CELL_ORDER}
        object.__setattr__(self, "cells", MappingProxyType(ordered))

    def __getitem__(self, key: Cell) -> Fraction:
        return self.cells[key]

    @property
    def p_win(self) -> Fraction:
        return sum((v for (_, _, w), v in self.cells.items() if w), Fraction(0))


def win_given_switch(variant: GameVariant, n: int) -> Fraction:
    """Probability of winning conditional on switching: ``(n-1)/(n(n-1-k))``.

    That is ``(n-1)/n`` when the host leaves two doors closed and
    ``(n-1)/(n(n-2))`` when the host opens a single door.  Independent of
    ``p``: the switch decision is independent of the pick, so ``p`` cancels
    in the conditional.
    """
    _require_doors(n)
    return Fraction(n - 1, n * (n - 1 - _host_opens(variant, n)))


def win_given_stay(variant: GameVariant, n: int) -> Fraction:
    """Probability of winning conditional on keeping the initial door: 1/n."""
    _require_doors(n)
    _require_member(GameVariant, variant)
    return Fraction(1, n)  # staying wins iff the uniform initial pick was correct


def win_marginal(variant: GameVariant, n: int, p: RationalLike) -> Fraction:
    """Marginal probability of winning at (n, p), by total probability:
    ``p * P(win | switch) + (1 - p) * P(win | stay)``.  For ``p = a/b`` and
    ``c = n - 1 - k`` closed doors a switcher can take, that is one fraction,
    ``((b - a) * c + a * (n - 1)) / (b * n * c)``."""
    _require_doors(n)
    p = as_probability(p)
    closed = n - 1 - _host_opens(variant, n)
    a, b = p.numerator, p.denominator
    return Fraction((b - a) * closed + a * (n - 1), b * n * closed)


def _cells_given_switch(variant: GameVariant, n: int) -> dict[Cell, Fraction]:
    """The eight cells given the switch decision, free of ``p``: P(pick
    correct) * P(win | pick, switch).  A stayer wins only from the car and a
    switcher only from a goat, so the two win cells are the conditional win
    probabilities.  The stay cells sum to 1 and so do the switch cells."""
    right, found = win_given_stay(variant, n), win_given_switch(variant, n)
    wrong = 1 - right
    return {
        (True, True, True): Fraction(0),
        (True, True, False): right,
        (True, False, True): right,
        (True, False, False): Fraction(0),
        (False, True, True): found,
        (False, True, False): wrong - found,
        (False, False, True): Fraction(0),
        (False, False, False): wrong,
    }


def _weigh_switch(cells: Mapping[Cell, Fraction], p: Fraction) -> dict[Cell, Fraction]:
    """Cells given the switch decision, each weighted by the chance of that
    decision: ``p`` for a switch cell, ``1 - p`` for a stay cell.  This is
    the one place where ``p`` enters a partition."""
    stay = 1 - p
    return {cell: mass * (p if cell[1] else stay) for cell, mass in cells.items()}


def partition_probabilities(
    variant: GameVariant, n: int, p: RationalLike
) -> PartitionProbabilities:
    """All eight cell probabilities at (n, p): the cells given the switch
    decision, weighted by the chance of that decision."""
    _require_doors(n)
    p = as_probability(p)
    return PartitionProbabilities(_weigh_switch(_cells_given_switch(variant, n), p))
