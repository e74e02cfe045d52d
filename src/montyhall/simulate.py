"""Seeded Monte Carlo simulation of the two Monty Hall game variants.

Both variants are one game in which the host opens ``k`` goat doors (see
:mod:`montyhall.analytic`); the batch kernel and :func:`trace_trial` only
read ``k``.

Reproducibility contract (stream v4)
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
part of :class:`SimulationConfig`.  Stream v3 drew the same columns from Philox at
counter ``(0, 0, i, j)``, so v4 output differs from v3 output.

Fan-out
-------
:func:`run_batch` plays one row per switch probability, and :func:`sweep`
makes one :func:`run_batch` call for its whole grid.  The chunks of every
row form one pull queue in (row, chunk index) order, computed lazily
from the index.  The caller drains it together with the threads of one
``ThreadPoolExecutor``, started once per call (once per sweep, not once per
row), none at ``workers == 1``.  A drain pulls a block at a time: up to 16
consecutive chunks of at most ``DEFAULT_CHUNK_SIZE`` games in all, so a
chunk of that size or more is a block of one, and a block of small chunks
may span rows.  Each drain sums its chunks' wins by grid index; the caller
adds those sums row by row.  The base state is derived once per call.  Each
drain owns one PCG64DXSM bit generator, which it moves to a chunk's words
before drawing them, and one workspace that every block overwrites: boolean
game arrays for a block, and the raw words of a block of several chunks.  Drains
share no draw state, and since a chunk's draws are fixed by
``(master_seed, i, j)``, the number of workers, the blocks and the order in
which they run never change a result.  Once a block fails, or the caller is
interrupted, no thread starts another block.

Batch draw order
----------------
A win depends on three Bernoulli events per game: the pick hit the car
(``1/n``), the player switched (``p``), and a switcher took slot 0, the car's
place among the ``n - 1 - k`` other closed doors (``1/(n - 1 - k)``).
Within a chunk the kernel draws them as whole columns in that order, each
by one exact threshold rule on raw 64-bit words; a round's three columns
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
again by the same rule, all three columns, from the chunk's next word.  The
accepted region is a product set, so the columns stay exact and
independent.  ``p`` is kept as an exact ``Fraction``; one whose
denominator exceeds 2**64 (among binary floats, only some below 2**-12) is
rounded up to a multiple of 2**-64.  Host bookkeeping that cannot change a
win -- which goat doors the host touches -- is collapsed out of the batch
kernel; :func:`trace_trial` plays single games with the full door-by-door
mechanics and is what trajectory-level tests should sample.

The kernel plays a block as follows; none of it changes which words a
chunk reads.  Each chunk's first round and a few spare words come from one
``random_raw`` call.  Chunks of the block that share a size and a switch
lane type are compared as one ``(chunks, games)`` array per column, with the
switch thresholds as a per-chunk column, and counted per chunk.  A block of
one is read as drawn; a block of several is first copied into the
workspace.  The redraw rounds of all the block's short chunks then run
together, as one flat array of their games per column, each chunk's lanes
read from its spare words; a chunk whose spare runs out draws on from its
next word.
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

#: The ``rng`` text of ``simulate`` and the sweep's ``# rng=`` line: the
#: generator, the numpy version and the stream v4 rule described above.  A
#: change to the stream bumps the version here.
RNG_ALGORITHM = (
    f"PCG64DXSM (numpy.random.PCG64DXSM); numpy {np.__version__}; stream=v4; "
    "base=PCG64DXSM(SeedSequence(seed)); "
    "word w of (grid_index, chunk_index)=output grid_index*2^96+chunk_index*2^64+w; "
    "columns=hit,switch,slot0 as exact thresholds on 16/32/64-bit lanes "
    "of raw words, rejected games redrawn"
)

DEFAULT_CHUNK_SIZE = 65536

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


def _position(bits: np.random.PCG64DXSM, base: dict, stream: int, chunk: int, word=0) -> None:
    """Move ``bits`` to word ``word`` of chunk ``chunk`` of stream ``stream``:
    output ``stream * 2**96 + chunk * 2**64 + word`` of ``base``."""
    bits.state = base
    bits.advance(stream * 2**96 + chunk * 2**64 + word)


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
    _position(bits, bits.state, stream, chunk)
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

#: Words each chunk draws past its first round, for its redraws.
_SPARE_WORDS = 16


class _Column(NamedTuple):
    """One exact Bernoulli column: a game succeeds when its ``dtype`` lane is
    below ``success`` and is accepted when the lane is at most ``last``
    (``None``: every lane).  A ``dtype`` of ``None`` marks a column with one
    outcome, ``success``, which draws nothing.  A column that stands for
    several chunks (see :func:`_stack`) holds arrays of thresholds."""

    dtype: np.dtype | None
    success: int
    last: int | None


def _column(num: int, den: int) -> _Column:
    """The stream v4 column for the reduced fraction ``num/den`` (see the
    module docstring)."""
    if den > 2**64:
        rounded = Fraction(-(-num * 2**64 // den), 2**64)  # up to k * 2**-64
        num, den = rounded.numerator, rounded.denominator
    if den == 1:
        return _Column(None, bool(num), None)
    width = 16 if den <= 2**8 else 32 if den <= 2**24 else 64
    per = 2**width // den
    last = None if den * per == 2**width else den * per - 1
    return _Column(_LANES[width], num * per, last)


def _words(column: _Column, size: int) -> int:
    """The raw words ``column`` takes for ``size`` games."""
    return 0 if column.dtype is None else -(-size * column.dtype.itemsize // 8)


def _lanes(words: np.ndarray, dtype: np.dtype, games: int) -> np.ndarray:
    """The first ``games`` lanes of type ``dtype`` along the last axis of the
    little-endian ``words``, least significant first."""
    return words.view(dtype)[..., :games]


def _stack(columns: Sequence[_Column], dtype, sizes: Sequence[int] | None = None) -> _Column:
    """One column for several chunks whose columns compare lanes of type
    ``dtype``: each chunk's thresholds fill its row of a ``(chunks, 1)``
    array, or, given each chunk's game count in ``sizes``, its games' run of
    a flat array.  A column with one outcome joins as lanes of 0 under a
    threshold of 0 or 1, and a column that accepts every lane with a ``last``
    of the largest lane.  Chunks of one row share its column as it is."""
    if all(column is columns[0] for column in columns):
        return columns[0]
    success = np.array([int(column.success) for column in columns], dtype=dtype or bool)
    last = None
    if any(column.last is not None for column in columns):
        full = 2 ** (8 * dtype.itemsize) - 1
        last = np.array([full if c.last is None else c.last for c in columns], dtype=dtype)
    if sizes is None:
        return _Column(dtype, success[:, None], None if last is None else last[:, None])
    return _Column(
        dtype, np.repeat(success, sizes), None if last is None else np.repeat(last, sizes)
    )


def _draw(column: _Column, lanes: np.ndarray, success: np.ndarray, accepted: np.ndarray) -> bool:
    """Write whether each lane of ``lanes`` succeeds in ``column`` to
    ``success``.  Return whether any lane can be rejected; if so, write which
    were accepted into ``accepted``, else leave it as it is."""
    np.less(lanes, column.success, out=success)
    if column.last is None:
        return False
    np.less_equal(lanes, column.last, out=accepted)
    return True


def _win_mask(hit, switch, slot0, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` which games win among games whose pick hit the car
    (``hit``) or not, that switched (``switch``) or stayed, and whose
    switcher took slot 0 (``slot0``); each may be a constant that broadcasts.

    A stayer wins on a hit.  A switcher wins on a miss and slot 0: door 1 is
    the lowest-numbered closed door a switcher can reach, so slot 0 is the
    car.  Both at once: ``hit ^ (switch & (hit | slot0))``.
    """
    np.bitwise_or(hit, slot0, out=out)
    np.bitwise_and(out, switch, out=out)
    return np.bitwise_xor(out, hit, out=out)


def _round(columns, lanes, work) -> tuple[np.ndarray, np.ndarray | None]:
    """One round of games: ``lanes`` holds the lanes of each of the hit,
    switch and slot-0 ``columns``, shaped like the games (``None`` for a
    column with one outcome), and ``work`` five boolean arrays of that shape,
    overwritten here.  Return the games won and, if a lane can be rejected,
    the games kept; a dropped game never wins."""
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
    _win_mask(*outcomes, won)
    if not masked:
        return won, None
    return np.bitwise_and(won, kept, out=won), kept


class _Short:
    """A chunk short of games after a round: ``left`` games to draw again,
    from ``words``, the drawn words it has not taken, and then from its word
    ``drawn`` on."""

    __slots__ = ("index", "row", "chunk", "left", "words", "drawn")

    def __init__(self, index, row, chunk, left, words, drawn):
        self.index, self.row, self.chunk = index, row, chunk
        self.left, self.words, self.drawn = left, words, drawn

    def take(self, count: int, bits: np.random.PCG64DXSM, base: dict) -> np.ndarray:
        """The chunk's next ``count`` words."""
        if count > len(self.words):
            # The spare ran out: the rest come from the chunk's next words.
            more = count - len(self.words) + _SPARE_WORDS
            _position(bits, base, self.row, self.chunk, self.drawn)
            fresh = bits.random_raw(more).astype("<u8", copy=False)
            self.words = np.concatenate((self.words, fresh))
            self.drawn += more
        taken, self.words = self.words[:count], self.words[count:]
        return taken


class _Run(NamedTuple):
    """What every drain of one :func:`run_batch` call reads: the base state,
    the hit and slot-0 columns, and each row's switch column."""

    base: dict
    hit: _Column
    slot0: _Column
    switches: list[_Column]


class _Workspace:
    """A drain's buffers, reused by every block it plays: five boolean game
    arrays, and the words of a block of several chunks."""

    def __init__(self, games: int) -> None:
        self.games = np.empty((5, games), dtype=bool)
        self.words = np.empty(0, dtype=np.uint64)

    def shaped(self, *shape: int) -> list[np.ndarray]:
        """The five game arrays, cut to ``shape``."""
        return list(self.games[:, : math.prod(shape)].reshape(5, *shape))


def _block_wins(
    run: _Run, bits: np.random.PCG64DXSM, work: _Workspace, block: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """The wins and the raw words taken of each ``(row, chunk index, size)``
    chunk of ``block`` (see "Batch draw order" in the module docstring)."""
    hit, slot0, switches = run.hit, run.slot0, run.switches
    groups: dict[tuple, list[int]] = {}
    for index, (row, _, size) in enumerate(block):
        groups.setdefault((size, switches[row].dtype), []).append(index)
    # One random_raw call per chunk: its first round and its spare words.
    raws, plans = [], []
    for (size, dtype), members in groups.items():
        switch = _stack([switches[block[index][0]] for index in members], dtype)
        counts = (_words(hit, size), _words(switch, size), _words(slot0, size))
        stride = sum(counts) + _SPARE_WORDS
        for index in members:
            row, chunk, _ = block[index]
            _position(bits, run.base, row, chunk)
            raws.append(bits.random_raw(stride))
        plans.append((size, members, (hit, switch, slot0), counts, stride))
    if len(raws) == 1:
        words = raws[0]  # a block of one is read as drawn
    else:
        total = sum(map(len, raws))
        if len(work.words) < total:
            work.words = np.empty(total, dtype=np.uint64)
        words = np.concatenate(raws, out=work.words[:total])
    # Little-endian words split into lanes least significant first on any host.
    words = words.astype("<u8", copy=False)

    # The first round of each group of chunks that share a size and a
    # switch lane type, as one (chunks, games) array per column.
    wins, taken, short = [0] * len(block), [0] * len(block), []
    start = 0
    for size, members, columns, counts, stride in plans:
        grid = words[start : start + len(members) * stride].reshape(len(members), stride)
        start += len(members) * stride
        lanes, at = [], 0
        for column, count in zip(columns, counts):
            drawn = column.dtype is not None
            lanes.append(_lanes(grid[:, at : at + count], column.dtype, size) if drawn else None)
            at += count
        won, kept = _round(columns, lanes, work.shaped(len(members), size))
        for member, index in enumerate(members):
            wins[index] = int(np.count_nonzero(won[member]))
            taken[index] = at
            left = 0 if kept is None else size - int(np.count_nonzero(kept[member]))
            if left:
                row, chunk, _ = block[index]
                short.append(_Short(index, row, chunk, left, grid[member, at:], stride))

    # Redraws: the next round of every short chunk at once, each from its
    # own words, as one flat array of all their games per column.
    while short:
        lefts = [entry.left for entry in short]
        own = [switches[entry.row] for entry in short]
        switch = _stack(own, _LANES[64], lefts)
        hits, switched, slots = [], [], []
        for entry, column in zip(short, own):
            left = entry.left
            h, w, s = _words(hit, left), _words(column, left), _words(slot0, left)
            chunk_words = entry.take(h + w + s, bits, run.base)
            taken[entry.index] += h + w + s
            hits.append(_lanes(chunk_words[:h], hit.dtype, left))
            if column.dtype is not None:
                switched.append(_lanes(chunk_words[h : h + w], column.dtype, left))
            elif switch.dtype is not None:  # one outcome among drawn columns
                switched.append(np.zeros(left, dtype=np.uint8))
            if s:
                slots.append(_lanes(chunk_words[h + w :], slot0.dtype, left))
        columns = (hit, switch, slot0)
        lanes = [
            None if not part else part[0] if len(part) == 1 else np.concatenate(part)
            for part in (hits, switched, slots)
        ]
        won, kept = _round(columns, lanes, work.shaped(sum(lefts)))
        end = 0
        for entry in short:
            start, end = end, end + entry.left
            wins[entry.index] += int(np.count_nonzero(won[start:end]))
            if kept is None:
                entry.left = 0
            else:
                entry.left -= int(np.count_nonzero(kept[start:end]))
        short = [entry for entry in short if entry.left]
    return list(zip(wins, taken))


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
    switches = [as_probability(p, "switch probability") for p in ps]
    _require_int("workers", workers, 1)
    n, trials = config.n, config.trials
    size = min(config.chunk_size, trials)
    run = _Run(
        np.random.PCG64DXSM(np.random.SeedSequence(config.master_seed)).state,
        _column(1, n),
        _column(1, n - 1 - _host_opens(config.variant, n)),
        [_column(p.numerator, p.denominator) for p in switches],
    )
    chunks = -(-trials // size)
    total = len(switches) * chunks
    per_block = max(1, min(_BLOCK_CHUNKS, DEFAULT_CHUNK_SIZE // size))
    starts = iter(range(0, total, per_block))
    lock = threading.Lock()
    stopped = threading.Event()

    def drain() -> list[int]:
        try:
            # Reused by every block this drain pulls; no other drain sees them.
            bits = np.random.PCG64DXSM(0)
            work = _Workspace(per_block * size)
            wins = [0] * len(switches)
            while not stopped.is_set():
                with lock:
                    start = next(starts, None)
                if start is None:
                    break
                block = []
                for index in range(start, min(start + per_block, total)):
                    row, chunk = divmod(index, chunks)
                    block.append((row, chunk, min(size, trials - chunk * size)))
                played = _block_wins(run, bits, work, block)
                for (row, _, _), (chunk_wins, _) in zip(block, played):
                    wins[row] += chunk_wins
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

    The whole grid is one :func:`run_batch` call, so the chunks of every row
    go through one pull queue, drained by the caller and one thread pool
    for the whole sweep; ``workers`` only controls execution, never the
    result.
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
