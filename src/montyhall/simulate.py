"""Seeded Monte Carlo simulation of the two Monty Hall game variants.

Both variants are one game in which the host opens ``k`` goat doors (see
:mod:`montyhall.analytic`); the batch kernel and :func:`trace_trial` only
read ``k``.

Reproducibility contract (stream v6)
------------------------------------
All randomness flows from numpy's PCG64DXSM generator (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", 2014), laid out in the key = stream, counter =
position scheme of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
3" (SC'11).  A run has one base state, ``PCG64DXSM(SeedSequence(master_seed))``,
and word ``w`` of chunk ``j`` of row ``i`` is output
``i * 2**96 + j * 2**64 + w`` of that one sequence, reached with ``advance``:
a pure function of ``(master_seed, i, j, w)``.  Each chunk owns 2**64
words, so no two chunks share a word while rows and chunks per row stay
below 2**32: :class:`SimulationConfig` rejects 2**32 chunks or more, and a
grid has at most 10**6 + 1 rows.  Results are bit-for-bit reproducible for
a fixed configuration regardless of how many workers execute the chunks.
Changing ``chunk_size`` changes the layout and therefore the draws, so it is
part of :class:`SimulationConfig`.  Stream v5 drew the pick and the
switcher's slot as two columns, so v6 output differs from v5 output where
the slot has more than one door: open-one only.

Fan-out
-------
:func:`run_batch` plays one row per switch probability, and :func:`sweep`
makes one :func:`run_batch` call for its whole grid.  The chunks of every
row form one pull queue in (row, chunk index) order, computed lazily from
the index.  The caller drains it together with the threads of one
``ThreadPoolExecutor``, started once per call, none at ``workers == 1``.  A
drain pulls a block at a time: up to 16 consecutive chunks of at most
``DEFAULT_CHUNK_SIZE`` games in all, so a chunk of that size or more is a
block of one, and a block of small chunks may span rows.  A drain plays
every chunk of a block to its end before it pulls the next, and sums its
chunks' wins by grid index; the caller adds those sums row by row.  Each
drain starts from ``substream(master_seed, 0, 0)``'s bit generator, at the
base state's first word, and advances it from where it stands to the first
word of each read, into a workspace of its own.  Drains share no draw
state, and a chunk's draws are fixed by ``(master_seed, i, j)``, so the
number of workers, the blocks and their order never change a result.  Once
a block fails, or the caller is interrupted, no thread starts another block.

Batch draw order
----------------
A win depends on the paper's three events per game: the pick hit the car
(``1/n``), the player switched (``p = num/den``), and a wrong-pick switcher
reached the car, one of the ``m = n - 1 - k`` other closed doors (``1/m``).
The first and third share one car column of ``n * m`` classes, a pick times
a switcher's slot.  A chunk plays rounds until it has counted all its
games.  A round that still needs ``need`` games counts ``g = min(need,
DEFAULT_CHUNK_SIZE)`` of them: from the chunk's next word it draws the car
column, then the switch column, for ``g + g // 128 + 32`` games, each by
one exact threshold rule on raw 64-bit words.  For ``d`` classes (``n * m``
or ``den``):

* its width ``w`` is the narrowest of 16, 32 and 64 with
  ``d <= 2**(w - 8)``, else 64, so that the rejected tail is under 1/256 of
  the words wherever it fits;
* it takes ``ceil(games * w / 64)`` raw words, each split into ``w``-bit
  lanes, least significant first, one lane per game;
* with ``per = 2**w // d``, a lane is accepted below ``d * per``.  A game
  switched below ``num * per``; its pick hit below ``m * per``, and its
  pick or a switch reaches the car below ``(m + n - 1) * per``.  It wins on
  ``hit ^ (switched & reach)``;
* a switch column with one outcome (``p`` of 0 or 1) draws nothing.

A game rejected in either column is dropped, the first ``g`` games kept
count, and the rest are discarded.  The margin covers the rejected tail, so
a chunk nearly always ends in one round; a chunk left short plays its next
round from its next word.  The accepted region is a product set, and which
kept games count depends only on which were accepted, so the columns stay
exact and independent.  :class:`SimulationConfig` rejects ``n * m >
2**64``, so that the car column fits a 64-bit lane: open-one stops at
``n = 2**32 + 1``.  ``p`` is kept exact; a denominator above 2**64 (among
binary floats, only some below 2**-12) is rounded up to a multiple of
2**-64.  Host bookkeeping that cannot change a win -- which goat doors the
host touches -- is collapsed out of the batch kernel; :func:`trace_trial`
plays single games with the full door-by-door mechanics and is what
trajectory-level tests should sample.

The kernel groups a block's chunks by round size and switch lane type and
plays each group's round in one pass (see :func:`_block_wins`); none of it
changes which words a chunk reads, and a drain's game arrays hold one round
of a block at most: ``DEFAULT_CHUNK_SIZE`` games and their margins.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .analytic import (
    GRID_STEP_DEFAULT,
    GameVariant,
    RationalLike,
    _host_opens,
    _require_int,
    _require_member,
    _require_seed,
    _require_unit,
    as_probability,
    switch_probability_grid,
    win_marginal,
)
from .planner import PlanMethod, band_halfwidth

__all__ = [
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
]

DEFAULT_CHUNK_SIZE = 65536

#: The ``rng`` text of ``simulate`` and the sweep's ``# rng=`` line: the
#: generator, the numpy version and the stream v6 rule described above.  A
#: change to the stream bumps the version here.
RNG_ALGORITHM = (
    f"PCG64DXSM (numpy.random.PCG64DXSM); numpy {np.__version__}; stream=v6; "
    "base=PCG64DXSM(SeedSequence(seed)); "
    "word w of (grid_index, chunk_index)=output grid_index*2^96+chunk_index*2^64+w; "
    "columns=car,switch as exact thresholds on 16/32/64-bit lanes of raw words; "
    "car lane of den=n*m classes, m=n-1-k: hit<m*per, reach<(m+n-1)*per, "
    f"win=hit^(switch&reach); in rounds of g=min(need,{DEFAULT_CHUNK_SIZE}) games "
    "drawn for g+g//128+32 games, the first g kept counted"
)

#: Rows and chunks per row stay below this, so that chunks' words are disjoint.
_INDEX_LIMIT = 2**32

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
        m = self.n - 1 - _host_opens(self.variant, self.n)  # the switcher's closed doors
        if self.n * m > 2**64:  # the car column's classes must fit one 64-bit lane
            raise ValueError(f"doors * other closed doors must be <= 2**64, got {self.n} * {m}")
        chunks = -(-self.trials // min(self.chunk_size, self.trials))
        if chunks >= _INDEX_LIMIT:
            raise ValueError(f"trials / chunk_size must give < 2**32 chunks, got {chunks}")


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
        _require_int("trials", self.trials, 1)
        _require_int("wins", self.wins, 0, self.trials + 1)

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


def substream(master_seed: int, stream: int, chunk: int) -> np.random.Generator:
    """A new generator for chunk ``chunk`` of stream ``stream``, positioned
    at its first word under ``master_seed``'s base state.

    Its draws are a pure function of the arguments: its raw words are the
    ones the batch kernel draws for that chunk.
    """
    _require_seed(master_seed)
    _require_int("stream", stream, 0, _INDEX_LIMIT)
    _require_int("chunk", chunk, 0, _INDEX_LIMIT)
    bits = np.random.PCG64DXSM(np.random.SeedSequence(master_seed))
    bits.advance(stream * 2**96 + chunk * 2**64)
    return np.random.Generator(bits)


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


#: Lane types of a column, by width: 16, 32 or 64 bits, little-endian.
_LANES = {width: np.dtype(f"<u{width // 8}") for width in (16, 32, 64)}

#: A drain pulls up to this many consecutive chunks of the queue at once, of
#: at most ``DEFAULT_CHUNK_SIZE`` games in all; a larger chunk is a block of one.
_BLOCK_CHUNKS = 16


class _Column(NamedTuple):
    """One exact Bernoulli column: a game succeeds when its ``dtype`` lane is
    below ``success`` and is accepted when the lane is at most ``last``
    (``None``: every lane).  A ``dtype`` of ``None`` marks a column with one
    outcome, ``success``, which draws nothing.  A column that stands for
    several chunks (see :func:`_stack`) holds arrays of thresholds."""

    dtype: np.dtype | None
    success: int
    last: int | None


def _lane(den: int) -> tuple[np.dtype, int, int | None]:
    """A column of ``den <= 2**64`` classes: its lane type, the ``per`` lanes
    of a class, and its largest accepted lane (``None``: every lane)."""
    width = 16 if den <= 2**8 else 32 if den <= 2**24 else 64
    per = 2**width // den
    return _LANES[width], per, None if den * per == 2**width else den * per - 1


def _column(num: int, den: int) -> _Column:
    """The stream v6 switch column for the reduced fraction ``num/den`` (see
    the module docstring)."""
    if den > 2**64:
        rounded = Fraction(-(-num * 2**64 // den), 2**64)  # up to k * 2**-64
        num, den = rounded.numerator, rounded.denominator
    if den == 1:
        return _Column(None, bool(num), None)
    dtype, per, last = _lane(den)
    return _Column(dtype, num * per, last)


def _car(n: int, m: int) -> tuple[_Column, _Column]:
    """The stream v6 car column of ``n`` doors and ``m`` other closed doors,
    as hit and reach columns over one lane per game.  Reach leaves rejection
    to hit; with ``m == 1`` it is every accepted lane, so it reads none."""
    dtype, per, last = _lane(n * m)
    reach = _Column(None, True, None) if m == 1 else _Column(dtype, (m + n - 1) * per, None)
    return _Column(dtype, m * per, last), reach


def _words(column: _Column, size: int) -> int:
    """The raw words ``column`` takes for ``size`` games."""
    return 0 if column.dtype is None else -(-size * column.dtype.itemsize // 8)


def _drawn(games: int) -> int:
    """The games a round draws to count ``games``: a margin for rejected lanes."""
    return games + games // 128 + 32


def _lanes(words: np.ndarray, dtype: np.dtype, games: int) -> np.ndarray:
    """The first ``games`` lanes of type ``dtype`` along the last axis of the
    little-endian ``words``, least significant first."""
    return words.view(dtype)[..., :games]


def _stack(columns: Sequence[_Column], dtype) -> _Column:
    """One column for several chunks whose columns compare lanes of type
    ``dtype``: each chunk's thresholds fill its row of a ``(chunks, 1)``
    array.  A column that accepts every lane joins with a ``last`` of the
    largest lane.  Chunks of one row share its column as it is."""
    if all(column is columns[0] for column in columns):
        return columns[0]
    success = np.array([int(column.success) for column in columns], dtype=dtype or bool)
    last = None
    if any(column.last is not None for column in columns):
        full = 2 ** (8 * dtype.itemsize) - 1
        last = np.array([full if c.last is None else c.last for c in columns], dtype=dtype)
    return _Column(dtype, success[:, None], None if last is None else last[:, None])


def _draw(column: _Column, lanes: np.ndarray, success: np.ndarray, accepted: np.ndarray) -> bool:
    """Write whether each lane of ``lanes`` succeeds in ``column`` to
    ``success``.  Return whether any lane can be rejected; if so, write which
    were accepted into ``accepted``, else leave it as it is."""
    np.less(lanes, column.success, out=success)
    if column.last is None:
        return False
    np.less_equal(lanes, column.last, out=accepted)
    return True


def _win_mask(hit, switch, reach, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` which games win among games whose pick hit the car
    (``hit``), that switched (``switch``), and whose pick or switcher's slot
    reached it (``reach``, which holds every hit); each may be a constant
    that broadcasts.  A stayer wins on a hit, and a switcher on a reach that
    is not a hit: ``hit ^ (switch & reach)``."""
    np.bitwise_and(switch, reach, out=out)
    return np.bitwise_xor(out, hit, out=out)


def _round(columns, lanes, work, games: int) -> tuple[list[int], list[int]]:
    """One round of a group of chunks: ``lanes`` holds the ``(chunks, drawn)``
    lanes of the hit, switch and reach ``columns`` (the car lanes twice;
    ``None`` for a column with one outcome), and ``work`` five boolean arrays
    of that shape, overwritten here: the three outcomes, the games kept and
    the games won.  Each chunk keeps its first ``games`` accepted games; the
    lanes past its cut are cleared in the kept and won arrays.  Return each
    chunk's wins and kept games."""
    *outcomes, kept, won = work
    masked = False
    for column, lane, success in zip(columns, lanes, outcomes):
        if lane is None:
            # Spread out here: a boolean operation that broadcasts a
            # constant over a long axis runs an order of magnitude slower.
            np.copyto(success, column.success)
        elif _draw(column, lane, success, won if masked else kept):
            if masked:
                np.bitwise_and(kept, won, out=kept)
            masked = True
    if not masked:
        kept.fill(True)
    # Each chunk's cut: the kept games that its first ``games`` lanes lack
    # come from its margin, whose kept lanes past them are cleared.
    counted = []
    for row in kept:
        head = int(np.count_nonzero(row[:games]))
        extra = np.flatnonzero(row[games:])  # the margin's kept lanes
        if games - head < len(extra):
            row[games + extra[games - head] :] = False
        counted.append(min(games, head + len(extra)))
    _win_mask(*outcomes, won)
    np.bitwise_and(won, kept, out=won)
    return [int(np.count_nonzero(row)) for row in won], counted


class _Run(NamedTuple):
    """What every drain of one :func:`run_batch` call reads: the car
    column's hit and reach columns, and each row's switch column."""

    hit: _Column
    reach: _Column
    switches: list[_Column]


class _Workspace:
    """A drain's draw state and buffers, reused by every round it plays: the
    bit generator of ``substream(master_seed, 0, 0)`` and the output it
    reads next, five boolean game arrays for the largest round of a block,
    and the words of a group of several chunks."""

    def __init__(self, master_seed: int, games: int) -> None:
        self.bits = substream(master_seed, 0, 0).bit_generator
        self.at = 0
        self.games = np.empty((5, games), dtype=bool)
        self.words = np.empty(0, dtype=_LANES[64])

    def raw(self, row: int, chunk: int, word: int, count: int) -> np.ndarray:
        """Words ``word`` to ``word + count - 1`` of chunk ``chunk`` of row
        ``row``, as little-endian words: output ``row * 2**96 + chunk * 2**64
        + word`` of the base state on, reached from where the generator stands."""
        target = row * 2**96 + chunk * 2**64 + word
        self.bits.advance((target - self.at) % 2**128)
        self.at = target + count
        # Little-endian words split into lanes least significant first on any host.
        return self.bits.random_raw(count).astype(_LANES[64], copy=False)

    def shaped(self, *shape: int) -> np.ndarray:
        """The five game arrays, cut to ``shape``."""
        return self.games[:, : math.prod(shape)].reshape(5, *shape)


def _block_wins(
    run: _Run, work: _Workspace, block: Sequence[tuple[int, int, int, int]], wins: list[int]
) -> None:
    """Play each ``(row, chunk index, games needed, next word)`` chunk of
    ``block`` to its end and add its wins to ``wins`` by row (see "Batch
    draw order" in the module docstring).  The chunks left short form the
    next groups, until none is left."""
    hit, reach, switches = run
    while block:
        groups: dict[tuple, list[tuple[int, int, int, int]]] = {}
        for entry in block:
            row, _, need, _ = entry
            key = (min(need, DEFAULT_CHUNK_SIZE), switches[row].dtype)
            groups.setdefault(key, []).append(entry)
        block = []
        # Each group of chunks that share a round size and a switch lane
        # type plays its round as one (chunks, drawn) array per column.
        for (games, dtype), members in groups.items():
            switch = _stack([switches[row] for row, *_ in members], dtype)
            drawn = _drawn(games)
            car_words = _words(hit, drawn)
            stride = car_words + _words(switch, drawn)
            # One random_raw call per chunk: its car words, then its switch words.
            raws = [work.raw(row, chunk, word, stride) for row, chunk, _, word in members]
            if len(raws) == 1:
                grid = raws[0][None]  # a lone chunk is read as drawn, a group copied
            else:
                total = len(raws) * stride
                if len(work.words) < total:
                    work.words = np.empty(total, dtype=_LANES[64])
                grid = np.concatenate(raws, out=work.words[:total]).reshape(len(raws), stride)
            car = _lanes(grid[:, :car_words], hit.dtype, drawn)
            flips = _lanes(grid[:, car_words:], dtype, drawn) if dtype else None
            lanes = (car, flips, car if reach.dtype else None)
            played = _round((hit, switch, reach), lanes, work.shaped(len(members), drawn), games)
            for (row, chunk, need, word), won, kept in zip(members, *played):
                wins[row] += won
                if need > kept:
                    block.append((row, chunk, need - kept, word + stride))


def run_batch(
    config: SimulationConfig, ps: Sequence[RationalLike], *, workers: int = 1
) -> tuple[SimulationResult, ...]:
    """One result per switch probability in ``ps``: row ``i`` plays
    ``config``'s game at ``ps[i]`` on stream ``i`` (see "Fan-out" in the
    module docstring).

    ``max(1, min(workers, blocks of all rows, os.cpu_count()))`` drains pull
    from the queue: the caller and the threads of one pool, so ``workers=1``
    starts no thread; the queue takes no memory per chunk.  ``workers`` only
    controls execution, never the result.
    """
    _require_member(SimulationConfig, config)
    _require_member(Iterable, ps)
    switches = [as_probability(p, "switch probability") for p in ps]
    _require_int("workers", workers, 1)
    n, trials = config.n, config.trials
    size = min(config.chunk_size, trials)
    columns = [_column(p.numerator, p.denominator) for p in switches]
    run = _Run(*_car(n, n - 1 - _host_opens(config.variant, n)), columns)
    chunks = -(-trials // size)
    total = len(switches) * chunks
    per_block = max(1, min(_BLOCK_CHUNKS, DEFAULT_CHUNK_SIZE // size))
    capacity = per_block * _drawn(min(size, DEFAULT_CHUNK_SIZE))  # a block's largest round
    starts = iter(range(0, total, per_block))
    lock = threading.Lock()
    stopped = threading.Event()

    def drain() -> list[int]:
        try:
            # Reused by every block this drain pulls; no other drain sees it.
            work = _Workspace(config.master_seed, capacity)
            wins = [0] * len(switches)
            while not stopped.is_set():
                with lock:
                    start = next(starts, None)
                if start is None:
                    break
                block = []
                for index in range(start, min(start + per_block, total)):
                    row, chunk = divmod(index, chunks)
                    block.append((row, chunk, min(size, trials - chunk * size), 0))
                _block_wins(run, work, block, wins)
            return wins
        except BaseException:
            stopped.set()
            raise

    threads = max(1, min(workers, -(-total // per_block), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            # The caller is a drain too, so the pool starts threads - 1.
            futures = [pool.submit(drain) for _ in range(threads - 1)]
            drained = [drain(), *(future.result() for future in futures)]
        finally:
            stopped.set()  # on an interrupt, shutdown then waits for running blocks only
    return tuple(SimulationResult(trials, sum(row_wins)) for row_wins in zip(*drained))


def sweep(
    config: SimulationConfig,
    grid_step: RationalLike = GRID_STEP_DEFAULT,
    *,
    delta: float = 0.01,
    workers: int = 1,
) -> tuple[SweepRow, ...]:
    """One row per point of :func:`~montyhall.analytic.switch_probability_grid`,
    each batch on its own substream (the grid index), with the exact
    reference value and CLT/Chebyshev confidence half-widths.

    The whole grid is one :func:`run_batch` call: one pull queue and one
    thread pool for every row.  ``workers`` only controls execution, never
    the result.
    """
    grid = switch_probability_grid(grid_step)
    _require_unit("delta", delta, open_interval=True)
    results = run_batch(config, grid, workers=workers)
    # P(win) is affine in p, so one intercept a/b and slope c/d give every
    # row exactly: a/b + c/d * p over one denominator, reduced once.
    intercept = win_marginal(config.variant, config.n, 0)
    slope = win_marginal(config.variant, config.n, 1) - intercept
    a, b = intercept.numerator, intercept.denominator
    c, d = slope.numerator, slope.denominator
    exact = [
        Fraction(a * d * p.denominator + c * b * p.numerator, b * d * p.denominator) for p in grid
    ]
    p_win = np.array([float(value) for value in exact])
    bands = (
        band_halfwidth(p_win, config.trials, delta, method).tolist()
        for method in (PlanMethod.CLT, PlanMethod.CHEBYSHEV)
    )
    return tuple(map(SweepRow, grid, results, exact, *bands))
