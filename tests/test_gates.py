"""The statistical gates' power, shown on mutants: each mutant injects a bias
through the narrowest seam that the kernel keeps, and the gate's own
statistic, on the gate's own panel and seeds, must cross its bound."""

from fractions import Fraction

import numpy as np
import pytest

from montyhall import simulate
from montyhall.analytic import GameVariant
from montyhall.simulate import SimulationConfig, run_batch
from test_acceptance import pooled_sweep_z
from test_simulate import cell_gate_z

#: The share of losing wrong-pick switchers that the cell mutant reports as
#: stayers.  At the gate's seeds the smallest share it catches is 0.0017
#: (z = 5.02; 0.0016 reads 4.80); this one reads about 8.
CELL_BIAS = 0.003


def _relabel_losing_switchers(share):
    """``simulate._round`` with a bias that moves kept games between cells:
    each game that missed the car, switched and lost is reported as a stayer
    with chance ``share``.  Both cells lose, so every row keeps its wins."""
    real = simulate._round
    rng = np.random.default_rng(0)

    def biased(columns, lanes, work, games):
        counts = real(columns, lanes, work, games)
        hit, switched, _, _, won = work
        moved = switched & ~hit & ~won & (rng.random(won.shape) < share)
        np.bitwise_xor(switched, moved, out=switched)
        return counts

    return biased


def test_the_cell_gate_catches_a_bias_that_keeps_every_win(monkeypatch):
    config = SimulationConfig(GameVariant.OPEN_ONE, 15, 250000, master_seed=100)
    clean = run_batch(config, [0.5])
    monkeypatch.setattr(simulate, "_round", _relabel_losing_switchers(CELL_BIAS))
    assert run_batch(config, [0.5]) == clean
    assert max(cell_gate_z(monkeypatch)) > 5.0


def _switching_more(factor):
    """``simulate._column`` with a switch bias: each switch column plays
    ``min(p * factor, 1)`` in place of ``p``.  The car column does not pass
    through ``_column``, so it stays as it is."""
    real = simulate._column

    def biased(num, den):
        p = min(Fraction(num, den) * factor, 1)
        return real(p.numerator, p.denominator)

    return biased


#: The switch bias for each of test_09b's games.  A switch moves P(win) by
#: the slope P(win | switch) - P(win | stay): 4/5 on leave-two n = 10 but
#: 1/195 on open-one n = 15.  At the gate's seeds the smallest factor it
#: catches is about 1.00055 on leave-two (z = 5.20; 1.0005 reads 4.79) and
#: about 1.075 on open-one (z = 5.39; 1.07 reads 4.38).  The factors below
#: read z = 7.3 and 43.0.
@pytest.mark.parametrize(
    "variant, doors, factor",
    [
        (GameVariant.OPEN_ONE, 15, Fraction(11, 10)),
        (GameVariant.LEAVE_TWO_CLOSED, 10, Fraction(1005, 1000)),
    ],
    ids=["open-one", "leave-two"],
)
def test_the_pooled_z_gate_catches_a_switch_bias(monkeypatch, variant, doors, factor):
    monkeypatch.setattr(simulate, "_column", _switching_more(factor))
    assert abs(pooled_sweep_z(variant, doors)) > 5.0
