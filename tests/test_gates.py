"""The statistical gates' power, shown on mutants: each mutant injects a bias
through the narrowest seam that the kernel keeps, and the gate's own
statistic, on the gate's own panel and seeds, must cross its bound."""

import numpy as np

from montyhall import simulate
from montyhall.analytic import GameVariant
from montyhall.simulate import SimulationConfig, run_batch
from test_simulate import cell_gate_z

#: The share of losing wrong-pick switchers that the cell mutant reports as
#: stayers.  At the gate's seeds the smallest share it catches is 0.0018
#: (z = 5.16; 0.0017 reads 4.90); this one reads about 8.
CELL_BIAS = 0.003


def _relabel_losing_switchers(share):
    """``simulate._round`` with a bias that moves kept games between cells:
    each game that missed the car, switched and lost is reported as a stayer
    with chance ``share``.  Both cells lose, so every row keeps its wins."""
    real = simulate._round
    rng = np.random.default_rng(0)

    def biased(columns, lanes, work):
        won, kept = real(columns, lanes, work)
        hit, switched = work[0], work[1]
        moved = switched & ~hit & ~won & (rng.random(won.shape) < share)
        np.bitwise_xor(switched, moved, out=switched)
        return won, kept

    return biased


def test_the_cell_gate_catches_a_bias_that_keeps_every_win(monkeypatch):
    config = SimulationConfig(GameVariant.OPEN_ONE, 15, 250000, master_seed=100)
    clean = run_batch(config, [0.5])
    monkeypatch.setattr(simulate, "_round", _relabel_losing_switchers(CELL_BIAS))
    assert run_batch(config, [0.5]) == clean
    assert max(cell_gate_z(monkeypatch)) > 5.0
