"""Output checks computed apart from the package under test.

Every reference value here comes from a closed form written out in this
file: the win probabilities, the confidence half-widths, the planned trial
count, the number of `verify` checks and the number of oracle trajectories.
Nothing compares against a saved copy of earlier output, so the checks keep
holding when the random stream or the rendering code changes, as long as the
outputs stay correct.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from statistics import NormalDist

#: Largest |z| a single sweep row may show.  Rows run at 4,096 trials with a
#: win probability as low as 1/15, where the binomial right tail is heavier
#: than the normal one; at 8 the chance of a false alarm stays below 1e-11
#: per row, so a whole benchmark campaign of a few million rows never sees one.
ROW_Z_BOUND = 8.0
#: Largest |z| of all rows of one run pooled together; exactly normal under a
#: correct kernel, and far more sensitive to a small bias than any one row.
POOLED_Z_BOUND = 6.0
#: Relative tolerance on the rendered half-widths: 12 significant digits of
#: rendering plus the last bits of two independent normal quantiles.
HALFWIDTH_RTOL = 1e-10

CSV_HEADER = "p,empirical,analytic,clt_halfwidth,chebyshev_halfwidth"
_SIG12 = Context(prec=12, rounding=ROUND_HALF_EVEN)
_VERIFY_LINE = re.compile(
    r"^(\d+) analytic checks passed, (\d+) placement checks passed$"
)


def win_probability(variant: str, n: int, p: Fraction) -> Fraction:
    """Marginal win probability of the switch-with-probability-p player."""
    if variant == "leave-two":
        return (1 - p) / n + p * (n - 1) / n
    return (1 - p) / n + p * (n - 1) / (n * (n - 2))


def planned_trials(epsilon: str, delta: str) -> int:
    """Chebyshev trial count at worst-case variance: ceil(1/4 / (delta eps^2))."""
    return math.ceil(Fraction(1, 4) / (Fraction(delta) * Fraction(epsilon) ** 2))


def trajectory_count(variant: str, n: int, p: Fraction, car_doors: int) -> int:
    """Positive-weight trajectories of one game tree with ``car_doors`` doors
    that may hide the car and a uniform initial pick.

    Leave-two: per car door there are n-1 host choices when the pick is the
    car and one when it is not.  Open-one: n-1 goat doors when the pick is the
    car, n-2 otherwise, and a switcher then picks among n-2 closed doors.  A
    stay branch exists when p < 1, a switch branch when p > 0.
    """
    stay, switch = int(p != 1), int(p != 0)
    if variant == "leave-two":
        per_car = 2 * (n - 1) * (stay + switch)
    else:
        per_car = (n - 1) ** 2 * (stay + switch * (n - 2))
    return car_doors * per_car


def verify_analytic_checks(doors_max: int, grid_points: int) -> int:
    """Checks `verify` makes: win and partition, per variant, n and grid point."""
    return 2 * (doors_max - 2) * grid_points * 2


def verify_trajectories(doors_max: int, grid: list[Fraction]) -> int:
    """Trajectories the closed-form comparison of `verify` enumerates: the
    win-probability walk and the partition walk each cover the whole tree at
    uniform car placement."""
    return sum(
        2 * trajectory_count(variant, n, p, n)
        for variant in ("leave-two", "open-one")
        for n in range(3, doors_max + 1)
        for p in grid
    )


def check_verify(
    text: str, doors_max: int, grid_points: int, placement_checks: int
) -> list[str]:
    lines = text.strip().splitlines()
    match = _VERIFY_LINE.match(lines[-1]) if lines else None
    if match is None:
        return [f"verify printed no summary line: {text[-200:]!r}"]
    want = (verify_analytic_checks(doors_max, grid_points), placement_checks)
    got = (int(match.group(1)), int(match.group(2)))
    if got != want:
        return [f"verify reported {got} checks, expected {want}"]
    return []


class SweepTally:
    """Pooled binomial z over every sweep row checked in one run."""

    def __init__(self) -> None:
        self.excess = 0.0  # sum of wins - l*pi
        self.variance = 0.0  # sum of l*pi*(1-pi)
        self.rows = 0

    def add(self, wins: int, trials: int, pi: float) -> float:
        """Record one row; return its own z."""
        excess = wins - trials * pi
        variance = trials * pi * (1.0 - pi)
        self.excess += excess
        self.variance += variance
        self.rows += 1
        return excess / math.sqrt(variance)

    def pooled_z(self) -> float:
        return self.excess / math.sqrt(self.variance) if self.rows else 0.0


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_sweep(
    text: str,
    *,
    variant: str,
    doors: int,
    seed: int,
    trials: int,
    grid_step: Fraction,
    delta: str,
    chunk_size: int | None,
    tally: SweepTally,
) -> list[str]:
    """Check one sweep CSV row by row; return the problems found."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    expected_meta = {
        "seed": str(seed),
        "variant": variant,
        "doors": str(doors),
        "trials": str(trials),
        "delta": str(float(delta)),
    }
    if chunk_size is not None:
        expected_meta["chunk_size"] = str(chunk_size)
    problems = [
        f"metadata {key}={meta.get(key)!r}, expected {value!r}"
        for key, value in expected_meta.items()
        if meta.get(key) != value
    ]
    if Fraction(meta.get("grid_step", "0")) != grid_step:
        problems.append(f"metadata grid_step={meta.get('grid_step')!r}")
    if not lines or lines[0] != CSV_HEADER:
        return problems + [f"header {lines[:1]!r}"]
    rows = lines[1:]
    points = int(1 / grid_step) + 1
    if len(rows) != points:
        return problems + [f"{len(rows)} rows, expected {points}"]

    delta_f = float(delta)
    z_quantile = NormalDist().inv_cdf(1.0 - delta_f / 2.0)
    for k, row in enumerate(rows):
        p_text, emp_text, analytic_text, clt_text, cheb_text = row.split(",")
        p = k * grid_step
        if Fraction(p_text) != p:
            problems.append(f"row {k}: p={p_text}, expected {p}")
            continue
        exact = win_probability(variant, doors, p)
        want = _SIG12.divide(Decimal(exact.numerator), Decimal(exact.denominator))
        if Decimal(analytic_text) != want:
            problems.append(f"row {k}: analytic={analytic_text}, expected {want}")
        empirical = Fraction(emp_text)
        wins = round(empirical * trials)
        if abs(empirical - Fraction(wins, trials)) > Fraction(1, 10**11) * empirical:
            problems.append(f"row {k}: empirical={emp_text} is not wins/{trials}")
        pi = float(exact)
        z = tally.add(wins, trials, pi)
        if abs(z) > ROW_Z_BOUND:
            problems.append(f"row {k}: empirical={emp_text} is {z:.2f} sd off {pi}")
        variance = pi * (1.0 - pi)
        clt = z_quantile * math.sqrt(variance / trials)
        if not _close(float(clt_text), clt, HALFWIDTH_RTOL):
            problems.append(f"row {k}: clt_halfwidth={clt_text}, expected {clt!r}")
        cheb = math.sqrt(variance / (delta_f * trials))
        if not _close(float(cheb_text), cheb, HALFWIDTH_RTOL):
            problems.append(f"row {k}: chebyshev_halfwidth={cheb_text}, expected {cheb!r}")
    return problems
