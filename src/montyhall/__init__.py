"""Exact, simulated, and planned win probabilities for generalized Monty Hall
games: closed forms over exact rationals, a brute-force enumeration oracle,
seeded Monte Carlo, and CLT/Chebyshev trial-count planning.

The top-level namespace re-exports the four layers' public names.
``analytic`` and ``planner`` load with the package; ``oracle`` and
``simulate`` load on first use of them or of one of their names (PEP 562),
so ``import montyhall`` loads no numpy, which loads with ``simulate`` or
with the first numpy-backed call of ``oracle`` or ``planner``.
"""

import importlib

from . import analytic, planner
from .analytic import *  # noqa: F401,F403
from .planner import *  # noqa: F401,F403

__version__ = "0.1.0"

#: The ``__all__`` of each layer that loads on first use, in its order.
_LAZY = {
    "oracle": (
        "CarDistribution",
        "Trajectory",
        "enumerate_trajectories",
        "exact_win_probability",
        "exact_partition",
        "exact_initial_correct",
        "random_car_distribution",
        "verify_closed_forms",
    ),
    "simulate": (
        "RNG_ALGORITHM",
        "DEFAULT_CHUNK_SIZE",
        "SimulationConfig",
        "TrialTrace",
        "SimulationResult",
        "SweepRow",
        "substream",
        "trace_trial",
        "run_batch",
        "sweep",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}

__all__ = [
    *analytic.__all__,
    *_LAZY["oracle"],
    *planner.__all__,
    *_LAZY["simulate"],
    "__version__",
]


def __getattr__(name: str):
    layer = name if name in _LAZY else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a layer binds it here, so this runs once per layer name.
    module = importlib.import_module(f".{layer}", __name__)
    return module if name == layer else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAYER_OF})
