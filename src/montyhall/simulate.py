"""Seeded Monte Carlo simulation of the two Monty Hall game variants.

Both variants are one game in which the host opens ``k`` goat doors (see
:mod:`montyhall.analytic`); the batch kernel and :func:`trace_trial` only
read ``k``.

Reproducibility contract (stream v3)
------------------------------------
All randomness flows from numpy's counter-based Philox4x64-10 generator, in
the key = stream, counter = position scheme of Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3" (SC'11).  A run has one Philox key,
``SeedSequence(master_seed).generate_state(2, np.uint64)``, and chunk ``j``
of grid point ``i`` starts at counter ``(0, 0, i, j)`` (low word first), so
its draws are the raw 64-bit words of ``Philox(key=key, counter=[0, 0, i,
j])``: a pure function of ``(master_seed, i, j)``.  A chunk advances only
the low counter words, so chunks never overlap, and results are bit-for-bit
reproducible for a fixed configuration regardless of how many workers
execute the chunks.  Changing ``chunk_size`` changes the substream layout
and therefore the draws, so it is part of :class:`SimulationConfig`.
Stream v2 drew from the same counters through ``Generator.integers`` and
``Generator.random``, so v3 output differs from v2 output.

Fan-out
-------
:func:`run_batch` plays one row per switch probability, and :func:`sweep`
makes one :func:`run_batch` call for its whole grid.  The chunks of every
row form one pull queue in (grid index, chunk index) order, computed lazily
from the index.  The caller drains it together with the threads of one
``ThreadPoolExecutor``, started once per call (once per sweep, not once per
row), none at ``workers == 1``.  Each drain pulls the next chunk as it
finishes one and sums its chunks' wins by grid index; the caller adds those
sums row by row.  The key is derived once per call.  Each drain owns one
Philox bit generator, which it moves to a chunk's counter before drawing
it, and one workspace of boolean game columns, sized for one chunk, which
every chunk overwrites; each round of draws takes its raw words in one
``random_raw`` call, the only array a round allocates.  Drains share no
draw state, and since a chunk's draws are fixed by ``(master_seed, i, j)``,
the number of workers and the order in which they run never change a
result.  Once a chunk fails, or the caller is interrupted, no thread starts
another chunk.

Batch draw order
----------------
A win depends on three Bernoulli events per game: the pick hit the car
(``1/n``), the player switched (``p``), and a switcher took slot 0, the car's
place among the ``n - 1 - k`` other closed doors (``1/(n - 1 - k)``).
Within a chunk the kernel draws them as whole columns in that order, each
by one exact threshold rule on raw Philox words; a round's three columns
take consecutive words.  For a column of
probability ``num/den``:

* its width ``w`` is the narrowest of 16, 32 and 64 with
  ``den <= 2**(w - 8)``, else 64, so that the rejected tail is under 1/256
  of the words wherever it fits;
* it takes ``ceil(size * w / 64)`` raw words, each split into ``w``-bit
  lanes, least significant first, one lane per game;
* with ``per = 2**w // den``, a game succeeds when its lane is below
  ``num * per`` and is accepted when it is below ``den * per``;
* a column with one outcome (``den == 1``: leave-two's slot, and ``p`` of 0
  or 1) draws nothing.

A game rejected in any column is dropped, and the chunk's shortfall is drawn
again by the same rule, all three columns, from where the counter has
reached.  The accepted region is a product set, so the columns stay exact
and independent.  ``p`` is kept as an exact ``Fraction``; one whose
denominator exceeds 2**64 (among binary floats, only some below 2**-12) is
rounded up to a multiple of 2**-64.  Host bookkeeping that cannot change a
win -- which goat doors the host touches -- is collapsed out of the batch
kernel; :func:`trace_trial` plays single games with the full door-by-door
mechanics and is what trajectory-level tests should sample.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .analytic import (
    GameVariant,
    RationalLike,
    _host_opens,
    _require_int,
    _require_member,
    _require_seed,
    _require_unit,
    as_probability,
    win_marginal,
)
from .planner import PlanMethod, band_halfwidth

__all__ = [
    "RNG_ALGORITHM",
    "DEFAULT_CHUNK_SIZE",
    "GRID_STEP_DEFAULT",
    "SimulationConfig",
    "TrialTrace",
    "SimulationResult",
    "SweepRow",
    "switch_probability_grid",
    "substream",
    "trace_trial",
    "run_batch",
    "sweep",
]

#: The ``rng`` text of ``simulate`` and the sweep's ``# rng=`` line: the
#: generator, the numpy version and the stream v3 rule described above.  A
#: change to the stream bumps the version here.
RNG_ALGORITHM = (
    f"Philox4x64-10 (numpy.random.Philox); numpy {np.__version__}; stream=v3; "
    "key=SeedSequence(seed).generate_state(2, uint64); "
    "counter=(0, 0, grid_index, chunk_index); "
    "columns=hit,switch,slot0 as exact thresholds on 16/32/64-bit lanes "
    "of raw words, rejected games redrawn"
)

DEFAULT_CHUNK_SIZE = 65536

#: Default grid step: 21 switch probabilities 0.00, 0.05, ..., 1.00.
GRID_STEP_DEFAULT = Fraction(1, 20)

_MAX_GRID_INTERVALS = 10**6

_CAR_DOOR = 1  # car placement is fixed; arbitrary placement loses no generality


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines a batch run but the switch probabilities
    it plays: the game, the trials per row and the random stream."""

    variant: GameVariant
    n: int
    trials: int
    master_seed: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        _require_member(GameVariant, self.variant)
        _require_int("doors", self.n, 3, 2**63)
        _require_int("trials", self.trials, 1, 2**63)
        _require_int("chunk_size", self.chunk_size, 1)
        _require_seed(self.master_seed)


class TrialTrace(NamedTuple):
    """Full history of one simulated game (the car is behind door 1)."""

    pick: int
    host_opens: frozenset[int]
    switched: bool
    final: int
    won: bool


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate of a batch: trial and win counts."""

    trials: int
    wins: int

    def __post_init__(self) -> None:
        if not 0 <= self.wins <= self.trials:
            raise ValueError(f"wins {self.wins} outside [0, {self.trials}]")

    @property
    def empirical(self) -> float:
        return self.wins / self.trials

    @property
    def std_error(self) -> float:
        return math.sqrt(self.empirical * (1.0 - self.empirical) / self.trials)


class SweepRow(NamedTuple):
    """One grid point of a sweep: the exact switch probability and win
    probability, the simulated result, and the confidence half-widths."""

    p: Fraction
    result: SimulationResult
    analytic: Fraction
    clt_halfwidth: float
    chebyshev_halfwidth: float


def switch_probability_grid(step: RationalLike = GRID_STEP_DEFAULT) -> list[Fraction]:
    """Exact grid {k * step : 0 <= k <= 1/step} for a step 1/k, k <= 10**6."""
    step = as_probability(step)
    if step.numerator != 1 or step.denominator > _MAX_GRID_INTERVALS:
        raise ValueError(f"grid step must be 1/k, k <= {_MAX_GRID_INTERVALS}: {step}")
    return [k * step for k in range(step.denominator + 1)]


def _philox_key(master_seed: int) -> tuple[int, int]:
    words = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def _position(philox: np.random.Philox, key: tuple[int, int], stream: int, chunk: int) -> None:
    """Move ``philox`` to counter ``(0, 0, stream, chunk)`` under ``key``,
    with nothing buffered: the start of chunk ``chunk`` of stream ``stream``."""
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, stream, chunk), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }


def substream(master_seed: int, stream: int, chunk: int) -> np.random.Generator:
    """A new generator for chunk ``chunk`` of stream ``stream``, positioned
    at counter ``(0, 0, stream, chunk)`` under ``master_seed``'s key.

    Its draws are a pure function of the arguments: its raw words are the
    ones the batch kernel draws for that chunk.
    """
    philox = np.random.Philox(0)
    _position(philox, _philox_key(master_seed), stream, chunk)
    return np.random.Generator(philox)


def trace_trial(variant: GameVariant, n: int, p: RationalLike, rng) -> TrialTrace:
    """Play one game and return its full trajectory, in O(k) time for a
    host who opens ``k`` doors.  ``p`` is read exactly, as
    :func:`~montyhall.analytic.as_probability` reads it.

    ``rng`` needs ``integers(low, high)`` returning a uniform integer in
    ``[low, high)`` and ``random()`` returning a uniform float in ``[0, 1)``;
    a ``numpy.random.Generator`` fits.  The draws are the pick, one per door
    the host opens, the switch decision and, for a switcher, the slot.
    """
    _require_int("doors", n, 3, 2**63)
    p = as_probability(p, "switch probability")
    k = _host_opens(variant, n)
    pick = int(rng.integers(1, n + 1))
    # The host opens a uniform k-subset of the goat doors other than the
    # pick: the first k of a partial Fisher-Yates shuffle of the goat list
    # 2..n without the pick.  The list stays implicit; ``moved`` holds the
    # slots a swap has changed.
    goat_count = n - 1 - (pick != _CAR_DOOR)
    moved: dict[int, int] = {}

    def goat(slot: int) -> int:
        return moved.get(slot, slot + 2 + (_CAR_DOOR < pick <= slot + 2))

    opened = []
    for i in range(k):
        j = int(rng.integers(i, goat_count))
        opened.append(goat(j))
        moved[j] = goat(i)
    switched = rng.random() < p
    final = pick
    if switched:
        # Uniform choice among the n - 1 - k other closed doors, car first.
        closed = goat_count - k + (pick != _CAR_DOOR)
        slot = int(rng.integers(0, closed))
        if pick == _CAR_DOOR:
            final = goat(k + slot)
        else:
            final = _CAR_DOOR if slot == 0 else goat(k + slot - 1)
    return TrialTrace(pick, frozenset(opened), switched, final, final == _CAR_DOOR)


def _count_wins(
    hit: np.ndarray, switch: np.ndarray, slot0: np.ndarray, scratch: np.ndarray
) -> int:
    """Wins among games whose pick hit the car (``hit``) or not, that switched
    (``switch``) or stayed, and whose switcher took slot 0 (``slot0``).

    A stayer wins on a hit.  A switcher wins on a miss and slot 0: door 1 is
    the lowest-numbered closed door a switcher can reach, so slot 0 is the car.
    The inputs are left as they are; ``scratch`` is overwritten in place of
    two temporary arrays.
    """
    stay_wins = int(np.count_nonzero(np.greater(hit, switch, out=scratch)))
    to_car = np.bitwise_and(switch, slot0, out=scratch)
    return stay_wins + int(np.count_nonzero(np.greater(to_car, hit, out=to_car)))


#: Lane types of a column, by width: 16, 32 or 64 bits, little-endian.
_LANES = {width: np.dtype(f"<u{width // 8}") for width in (16, 32, 64)}


class _Column(NamedTuple):
    """One exact Bernoulli column: a game succeeds when its ``dtype`` lane is
    below ``success`` and is accepted when it is below ``accept`` (``None``:
    every lane).  A ``dtype`` of ``None`` marks a column with one outcome,
    ``success``, which draws nothing."""

    dtype: np.dtype | None
    success: int
    accept: int | None


def _column(num: int, den: int) -> _Column:
    """The stream v3 column for the reduced fraction ``num/den`` (see the
    module docstring)."""
    if den > 2**64:
        rounded = Fraction(-(-num * 2**64 // den), 2**64)  # up to k * 2**-64
        num, den = rounded.numerator, rounded.denominator
    if den == 1:
        return _Column(None, bool(num), None)
    width = 16 if den <= 2**8 else 32 if den <= 2**24 else 64
    per = 2**width // den
    accept = None if den * per == 2**width else den * per
    return _Column(_LANES[width], num * per, accept)


def _words(column: _Column, size: int) -> int:
    """The raw words ``column`` takes for ``size`` games."""
    return 0 if column.dtype is None else -(-size * column.dtype.itemsize // 8)


def _draw(column: _Column, words: np.ndarray, success: np.ndarray, accepted: np.ndarray) -> bool:
    """Write ``column``'s outcome for each game of ``success`` from the lanes
    of ``words``.  Return whether any game can be rejected; if so, write
    which were accepted into ``accepted``, else leave it as it is."""
    if column.dtype is None:
        success.fill(column.success)
        return False
    # Little-endian words split into lanes least significant first on any host.
    lanes = words.astype("<u8", copy=False).view(column.dtype)[: len(success)]
    np.less(lanes, column.success, out=success)
    if column.accept is None:
        return False
    np.less(lanes, column.accept, out=accepted)
    return True


def _chunk_wins(
    columns: tuple[_Column, ...], philox: np.random.Philox, size: int, work: np.ndarray
) -> int:
    """Wins of ``size`` games drawn from ``philox`` by the hit, switch and
    slot-0 ``columns``; games rejected in any column are drawn again until
    ``size`` are accepted.  ``work`` holds five boolean rows of at least
    ``size`` games, overwritten here: the three columns, the kept games and
    scratch."""
    wins = 0
    while size:
        counts = [_words(column, size) for column in columns]
        words = philox.random_raw(sum(counts))
        hit, switch, slot0, kept, scratch = (row[:size] for row in work)
        masked = False
        for column, success, count in zip(columns, (hit, switch, slot0), counts):
            if _draw(column, words[:count], success, scratch if masked else kept):
                if masked:
                    np.bitwise_and(kept, scratch, out=kept)
                masked = True
            words = words[count:]
        if masked:
            # A dropped game counts as a stayer who missed: never a win.
            np.bitwise_and(hit, kept, out=hit)
            np.bitwise_and(switch, kept, out=switch)
            size -= int(np.count_nonzero(kept))
        else:
            size = 0
        wins += _count_wins(hit, switch, slot0, scratch)
    return wins


def run_batch(
    config: SimulationConfig, ps: Sequence[RationalLike], *, workers: int = 1
) -> tuple[SimulationResult, ...]:
    """One result per switch probability in ``ps``: row ``i`` plays
    ``config``'s game at ``ps[i]`` on stream ``i`` (see "Fan-out" in the
    module docstring).

    ``max(1, min(workers, chunks of all rows, os.cpu_count()))`` drains pull
    from the queue: the caller and the threads of one pool, so ``workers=1``
    starts no thread; the queue takes no memory per chunk.  ``workers`` only
    controls execution, never the result.
    """
    switches = [as_probability(p, "switch probability") for p in ps]
    _require_int("workers", workers, 1)
    n, trials, size = config.n, config.trials, config.chunk_size
    hit, slot0 = _column(1, n), _column(1, n - 1 - _host_opens(config.variant, n))
    columns = [(hit, _column(p.numerator, p.denominator), slot0) for p in switches]
    chunks = -(-trials // size)
    key = _philox_key(config.master_seed)
    pulls = iter(range(len(columns) * chunks))
    lock = threading.Lock()
    stopped = threading.Event()

    def drain() -> list[int]:
        try:
            # Reused by every chunk this drain pulls; no other drain sees them.
            philox = np.random.Philox(0)
            work = np.empty((5, min(size, trials)), dtype=bool)
            wins = [0] * len(columns)
            while not stopped.is_set():
                with lock:
                    index = next(pulls, None)
                if index is None:
                    break
                row, chunk = divmod(index, chunks)
                _position(philox, key, row, chunk)
                wins[row] += _chunk_wins(
                    columns[row], philox, min(size, trials - chunk * size), work
                )
            return wins
        except BaseException:
            stopped.set()
            raise

    threads = max(1, min(workers, len(columns) * chunks, os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            # The caller is a drain too, so the pool starts threads - 1.
            futures = [pool.submit(drain) for _ in range(threads - 1)]
            drained = [drain(), *(future.result() for future in futures)]
        finally:
            stopped.set()  # on an interrupt, shutdown then waits for running chunks only
    return tuple(SimulationResult(trials, sum(row_wins)) for row_wins in zip(*drained))


def sweep(
    config: SimulationConfig,
    grid_step: RationalLike = GRID_STEP_DEFAULT,
    *,
    delta: float = 0.01,
    workers: int = 1,
) -> tuple[SweepRow, ...]:
    """One row per grid point, each batch on its own substream (the grid
    index), with the exact reference value and CLT/Chebyshev confidence
    half-widths.

    The whole grid is one :func:`run_batch` call, so the chunks of every row
    go through one pull queue, drained by the caller and one thread pool
    for the whole sweep; ``workers`` only controls execution, never the
    result.
    """
    grid = switch_probability_grid(grid_step)
    _require_unit("delta", delta, open_interval=True)
    rows = []
    for p, result in zip(grid, run_batch(config, grid, workers=workers)):
        exact = win_marginal(config.variant, config.n, p)
        p_win = float(exact)
        rows.append(
            SweepRow(
                p=p,
                result=result,
                analytic=exact,
                clt_halfwidth=band_halfwidth(p_win, config.trials, delta, PlanMethod.CLT),
                chebyshev_halfwidth=band_halfwidth(
                    p_win, config.trials, delta, PlanMethod.CHEBYSHEV
                ),
            )
        )
    return tuple(rows)
