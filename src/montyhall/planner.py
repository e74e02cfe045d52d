"""Trial-count planning for Monte Carlo runs.

Given a target accuracy ``epsilon`` and failure probability ``delta``, compute
a number of Bernoulli trials ``l0`` meant to keep the empirical win frequency
within ``epsilon`` of the true probability with chance at least
``1 - delta``:

* CLT approximation: l0 = z^2 * p(1-p) / epsilon^2   with z the standard
                     normal quantile at 1 - delta/2,
* Chebyshev bound:   l0 = p(1-p) / (delta * epsilon^2).

Only the Chebyshev count guarantees that chance: Chebyshev's inequality holds
for every trial count.  The CLT count uses the normal limit of the binomial
law and can fall short of ``1 - delta``; at ``p = 1/2``, ``epsilon = 0.1``,
``delta = 0.01`` its 166 trials cover 0.98979 exactly.  The Chebyshev count
is distribution-free but much larger (about 15x at delta = 0.01).  Planning
at ``p_win = 1/2`` gives the worst case over the unknown win probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from statistics import NormalDist
from typing import Optional

from .analytic import _REAL, _require_int, _require_member, _require_unit

__all__ = [
    "PlanMethod",
    "SampleSizePlan",
    "sample_size",
    "band_halfwidth",
]


class PlanMethod(Enum):
    CLT = "clt"
    CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class SampleSizePlan:
    """Minimum trial count; ``z_x`` is set for the CLT method only."""

    l0: int
    z_x: Optional[float] = None


def _clt_quantile(delta: float) -> float:
    """The z with Phi(z) = 1 - delta/2, as -Phi^-1(delta/2): 1 - delta/2
    would drop digits of a small ``delta``, and a zero delta/2 has no z.
    The stdlib's ``inv_cdf`` implements Wichura's algorithm AS241 ("The
    Percentage Points of the Normal Distribution", Applied Statistics, 1988),
    accurate to about one part in 1e16."""
    if delta / 2.0 == 0:
        raise ValueError(f"delta must be at least 1e-323 for the CLT, got {delta}")
    return -NormalDist().inv_cdf(delta / 2.0)


def sample_size(
    p_win: float, epsilon: float, delta: float, method: PlanMethod
) -> SampleSizePlan:
    """Minimum trial count for the requested accuracy, rounded up.

    The ceiling is taken in exact rational arithmetic over the binary values
    of the float inputs, so boundary cases (0.25 / (0.01 * 0.01^2) = 250000)
    do not pick up a spurious extra trial from float rounding.
    """
    _require_member(PlanMethod, method)
    _require_unit("p_win", p_win)
    if not (isinstance(epsilon, _REAL) and 0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    _require_unit("delta", delta, open_interval=True)
    variance = Fraction(p_win) * (1 - Fraction(p_win))
    eps_sq = Fraction(epsilon) ** 2
    if method is PlanMethod.CLT:
        z = _clt_quantile(delta)
        l0 = max(1, math.ceil(Fraction(z) ** 2 * variance / eps_sq))
        return SampleSizePlan(l0=l0, z_x=z)
    l0 = max(1, math.ceil(variance / (Fraction(delta) * eps_sq)))
    return SampleSizePlan(l0=l0)


def band_halfwidth(p_win, l: int, delta: float, method: PlanMethod):
    """Half-width of the confidence band around the empirical frequency after
    ``l`` trials, at failure probability ``delta``.  ``p_win`` is a float, or
    a 1-D numpy array of them for one half-width each, by the same arithmetic.
    ``l`` is below 2**63, as a :class:`~montyhall.simulate.SimulationConfig`'s
    trials are.

    Inverse of :func:`sample_size`: plugging the planned ``l0`` back in gives
    a half-width of at most the planned epsilon (up to the integer ceiling).
    """
    _require_member(PlanMethod, method)
    import numpy as np  # here, so that sample_size alone never loads numpy

    sqrt = math.sqrt
    if isinstance(p_win, np.ndarray):
        if p_win.ndim != 1:
            raise ValueError(f"p_win must be a float or a 1-D array, got {p_win.ndim}-D")
        outside = ~((p_win >= 0) & (p_win <= 1))  # nan is outside too
        if outside.any():
            _require_unit("p_win", float(p_win[outside][0]))
        sqrt = np.sqrt
    else:
        _require_unit("p_win", p_win)
    _require_int("trial count", l, 1, 2**63)
    _require_unit("delta", delta, open_interval=True)
    variance = p_win * (1.0 - p_win)
    if method is PlanMethod.CLT:
        return _clt_quantile(delta) * sqrt(variance / l)
    # Divided in two steps: a subnormal delta * l would lose its digits.
    return sqrt(variance / l) / math.sqrt(delta)
