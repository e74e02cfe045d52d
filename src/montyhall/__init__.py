"""Exact, simulated, and planned win probabilities for generalized Monty Hall
games: closed forms over exact rationals, a brute-force enumeration oracle,
seeded Monte Carlo, and CLT/Chebyshev trial-count planning."""

from . import analytic, oracle, planner, simulate
from .analytic import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .planner import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *analytic.__all__,
    *oracle.__all__,
    *planner.__all__,
    *simulate.__all__,
    "__version__",
]
