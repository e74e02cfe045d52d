"""Monte Carlo engine: scripted single games, reproducibility, degenerate
cases, and statistical agreement with the exact probabilities."""

import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from montyhall import cli, oracle, simulate
from montyhall.analytic import (
    GameVariant,
    _host_opens,
    partition_probabilities,
    switch_probability_grid,
    win_marginal,
)
from montyhall.oracle import CarDistribution, enumerate_trajectories
from montyhall.simulate import (
    SimulationConfig,
    SimulationResult,
    _win_mask,
    run_batch,
    substream,
    sweep,
    trace_trial,
)

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

F = Fraction


class ScriptedRNG:
    """Feeds predetermined raw draws to trace_trial."""

    def __init__(self, ints=(), floats=()):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, low, high):
        value = self._ints.pop(0)
        assert low <= value < high, f"scripted draw {value} outside [{low}, {high})"
        return value

    def random(self):
        return self._floats.pop(0)


def test_grid_default_has_21_points():
    grid = switch_probability_grid()
    assert len(grid) == 21
    assert grid[0] == 0 and grid[-1] == 1
    assert grid[7] == F(7, 20)


def test_grid_coarse_and_invalid_steps():
    assert switch_probability_grid(F(1, 2)) == [F(0), F(1, 2), F(1)]
    assert switch_probability_grid(F(1, 3)) == [F(0), F(1, 3), F(2, 3), F(1)]
    for bad in (F(2, 5), F(0), F(3, 2), F(-1, 4)):
        with pytest.raises(ValueError):
            switch_probability_grid(bad)


def test_forced_goat_pick_switching_wins_leave_two():
    # pick door 2, host opens goat door 3, forced switch to the one closed door
    trace = trace_trial(LEAVE_TWO, 3, 1.0, ScriptedRNG(ints=[2, 0, 0], floats=[0.9]))
    assert trace.host_opens == frozenset({3})
    assert trace.won


def test_forced_car_pick_never_switching_wins():
    # pick the car; the host shuffles goats [2, 3, 4] and opens the first k:
    # {2, 4} in leave-two (swap 3 and 4), {3} in open-one
    for variant, ints, opened in (
        (LEAVE_TWO, [1, 0, 2], {2, 4}),
        (OPEN_ONE, [1, 1], {3}),
    ):
        trace = trace_trial(variant, 4, 0.0, ScriptedRNG(ints=ints, floats=[0.7]))
        assert trace.host_opens == frozenset(opened)
        assert trace.won


def test_forced_open_one_final_choice():
    # pick 2, host opens 3, switcher chooses among {1, 4, 5}: slot 0 is the car
    for slot, final, won in ((0, 1, True), (1, 4, False), (2, 5, False)):
        trace = trace_trial(
            OPEN_ONE, 5, 1.0, ScriptedRNG(ints=[2, 0, slot], floats=[0.5])
        )
        assert trace.pick == 2
        assert trace.host_opens == frozenset({3})
        assert trace.switched
        assert trace.final == final
        assert trace.won is won


def test_trace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 2, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 3, 1.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 3.5, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial("leave-two", 3, 0.5, ScriptedRNG())
    with pytest.raises(ValueError):
        trace_trial(LEAVE_TWO, 2**63, 0.5, ScriptedRNG())


def test_trace_reads_p_like_every_other_layer():
    def traces(p):
        rng = np.random.default_rng(8)
        return [trace_trial(OPEN_ONE, 5, p, rng) for _ in range(300)]

    assert traces("1/3") == traces(F(1, 3))
    with pytest.raises(ValueError):
        trace_trial(OPEN_ONE, 5, "3/2", ScriptedRNG())


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_trace_respects_game_rules(variant):
    rng = np.random.default_rng(5)
    for _ in range(2000):
        trace = trace_trial(variant, 6, 0.4, rng)
        assert 1 <= trace.pick <= 6
        assert trace.pick not in trace.host_opens
        assert 1 not in trace.host_opens  # car door stays closed
        assert len(trace.host_opens) == (4 if variant is LEAVE_TWO else 1)
        if trace.switched:
            assert trace.final != trace.pick and trace.final not in trace.host_opens
        else:
            assert trace.final == trace.pick
        assert trace.won == (trace.final == 1)


def _assert_traces_match_oracle(variant, n, seed, samples=60000):
    """Every trajectory frequency of ``trace_trial`` at p = 1/2 matches the
    oracle's exact weight, with the car fixed behind door 1."""
    rng = np.random.default_rng(seed)
    counts = Counter(trace_trial(variant, n, 0.5, rng)[:4] for _ in range(samples))
    car_at_1 = CarDistribution.from_weights([1] + [0] * (n - 1))
    exact = {
        (t.pick, t.host_opens, t.switched, t.final): t.weight
        for t in enumerate_trajectories(variant, F(1, 2), car_at_1)
    }
    assert set(counts) == set(exact)
    for key, weight in exact.items():
        w = float(weight)
        tolerance = 4.0 * math.sqrt(w * (1.0 - w) / samples) + 1.0 / samples
        assert abs(counts[key] / samples - w) <= tolerance


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_trial_distribution_matches_oracle_at_three_doors(variant):
    # Algorithms for the two host strategies coincide at n=3.
    _assert_traces_match_oracle(variant, 3, 20260809)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trial_distribution_matches_oracle_at_five_doors(monkeypatch, k):
    # k = 1 is open-one and k = 3 leave-two; no variant opens k = 2 doors of
    # five, so that case patches the variant-to-k mapping in both layers.
    variant = OPEN_ONE if k == 1 else LEAVE_TWO
    if k != _host_opens(variant, 5):
        for module in (simulate, oracle):
            monkeypatch.setattr(module, "_host_opens", lambda variant, n: k)
    _assert_traces_match_oracle(variant, 5, 20261018 + k)


def test_batch_reproducible_and_worker_independent():
    config = SimulationConfig(LEAVE_TWO, 3, 50000, master_seed=99, chunk_size=4096)
    reference = run_batch(config, [0.35])
    assert run_batch(config, [0.35]) == reference
    assert run_batch(config, [0.35], workers=4) == reference
    assert run_batch(config, [0.35], workers=7) == reference


def test_batch_depends_on_seed_and_stream():
    config = SimulationConfig(OPEN_ONE, 5, 40000, master_seed=1)
    other_seed = SimulationConfig(OPEN_ONE, 5, 40000, master_seed=2)
    assert run_batch(config, [0.5]) != run_batch(other_seed, [0.5])
    # Row i of a batch plays on stream i: same game, same p, other draws.
    rows = run_batch(config, [0.5] * 4)
    assert rows[:1] == run_batch(config, [0.5])
    assert rows[3] != rows[0]


def _v4_generator(master_seed, stream, chunk):
    """Chunk ``chunk`` of stream ``stream`` as stream v4 lays it out, built
    without the package: the outputs of one PCG64DXSM sequence, seeded from
    ``SeedSequence(master_seed)``, from output ``stream * 2**96 + chunk * 2**64`` on."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(master_seed))
    bits.advance(stream * 2**96 + chunk * 2**64)
    return np.random.Generator(bits)


def _v4_draw(rng, prob, size):
    """One stream v4 column of ``size`` games at ``prob``, written out apart
    from the package: (successes, accepted) as boolean arrays, and the raw
    words it took."""
    num, den = prob.numerator, prob.denominator
    if den == 1:
        return np.full(size, bool(num)), np.ones(size, dtype=bool), 0
    width = min((w for w in (16, 32, 64) if den <= 2 ** (w - 8)), default=64)
    words = math.ceil(size * width / 64)
    raw = rng.bit_generator.random_raw(words)
    lanes = np.frombuffer(raw.astype("<u8").tobytes(), dtype=f"<u{width // 8}")
    lanes = [int(lane) for lane in lanes[:size]]
    per = 2**width // den
    return (
        np.array([lane < num * per for lane in lanes], dtype=bool),
        np.array([lane < den * per for lane in lanes], dtype=bool),
        words,
    )


def _v4_chunks(config, p, stream=0):
    """Each chunk of ``config`` at switch probability ``p`` recounted from the
    v4 layout: the accepted games' (hit, switch, slot 0) columns, the size of
    every round of draws, and the raw words the chunk took."""
    k = _host_opens(config.variant, config.n)
    probs = (F(1, config.n), F(p), F(1, config.n - 1 - k))
    full, rest = divmod(config.trials, config.chunk_size)
    sizes = [config.chunk_size] * full + ([rest] if rest else [])
    for index, size in enumerate(sizes):
        rng = _v4_generator(config.master_seed, stream, index)
        kept = [[], [], []]
        rounds = []
        drawn = 0
        while size:
            rounds.append(size)
            draws = [_v4_draw(rng, prob, size) for prob in probs]
            accepted = draws[0][1] & draws[1][1] & draws[2][1]
            for column, (success, _, words) in zip(kept, draws):
                column.append(success[accepted])
                drawn += words
            size -= int(np.count_nonzero(accepted))
        yield [np.concatenate(column) for column in kept], rounds, drawn


def _pick_hits(config, p):
    """Recount initial picks of door 1 straight from the v4 layout, without
    the games a rejected word dropped."""
    return sum(int(hit.sum()) for (hit, _, _), _, _ in _v4_chunks(config, p))


def _v4_wins(config, p, stream=0):
    """Recount the wins straight from the v4 layout."""
    wins = 0
    for (hit, switch, slot0), _, _ in _v4_chunks(config, p, stream):
        wins += int(np.count_nonzero((hit & ~switch) | (~hit & switch & slot0)))
    return wins


def test_substream_matches_the_layout_after_reuse():
    # A call for another (seed, stream, chunk) in between leaves no trace in
    # the draws.
    a, b = (5, 3, 7), (6, 0, 2)
    first = substream(*a).random(8)
    substream(*b).random(3)
    again = substream(*a).random(8)
    expected = _v4_generator(*a).random(8)
    assert np.array_equal(first, expected)
    assert np.array_equal(again, expected)


def _kernel_win_probability(n, k, p):
    """``_win_mask`` over one game per (pick, slot) cell, the two columns
    the kernel draws uniformly, as an exact probability at switch rate p."""
    picks, slots = np.meshgrid(
        np.arange(1, n + 1), np.arange(n - 1 - k), indexing="ij"
    )
    hit = picks.ravel() == 1
    slot0 = slots.ravel() == 0
    cells = hit.size
    out = np.empty(cells, dtype=bool)
    stay = int(np.count_nonzero(_win_mask(hit, np.zeros(cells, dtype=bool), slot0, out)))
    switch = int(np.count_nonzero(_win_mask(hit, np.ones(cells, dtype=bool), slot0, out)))
    return F(stay, cells) * (1 - p) + F(switch, cells) * p


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 31))
def test_win_count_is_exact_over_every_cell(variant, n):
    for p in (F(0), F(1, 3), F(1)):
        assert _kernel_win_probability(n, _host_opens(variant, n), p) == (
            win_marginal(variant, n, p)
        )


@pytest.mark.parametrize("n", range(3, 31))
def test_win_count_is_exact_for_every_host_door_count(n):
    for k in range(1, n - 1):
        for p in (F(0), F(1, 3), F(1)):
            assert _kernel_win_probability(n, k, p) == (
                F(1, n) * (1 - p) + F(n - 1, n * (n - 1 - k)) * p
            )


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_never_switching_wins_exactly_the_lucky_picks(variant):
    config = SimulationConfig(variant, 4, 30000, master_seed=7, chunk_size=999)
    (result,) = run_batch(config, [0.0])
    assert result.wins == _pick_hits(config, 0.0)


def test_always_switching_leave_two_wins_exactly_the_unlucky_picks():
    config = SimulationConfig(LEAVE_TWO, 6, 30000, master_seed=8, chunk_size=4096)
    (result,) = run_batch(config, [1.0])
    assert result.wins == config.trials - _pick_hits(config, 1.0)


def _lanes_as_words(lanes, width):
    """Pack ``width``-bit lanes into 64-bit words, least significant first."""
    per_word = 64 // width
    padded = list(lanes) + [0] * (-len(lanes) % per_word)
    return np.array(padded, dtype=f"<u{width // 8}").view("<u8")


def test_bernoulli_column_is_exact_on_every_16_bit_word():
    # Every uint16 lane once: the accepted successes over the accepted lanes
    # must be num/den exactly, with under 1/256 of the lanes rejected.
    every_lane = np.arange(2**16, dtype="<u2").view("<u8")
    for den in range(1, 257):
        for num in range(den + 1):
            column = simulate._column(num, den)
            if den == 1:
                assert column.dtype is None and simulate._words(column, 2**16) == 0
                assert column.success is bool(num) and column.last is None
                continue
            assert column.dtype == np.dtype("<u2") and simulate._words(column, 2**16) == 2**14
            success = np.empty(2**16, dtype=bool)
            accepted = np.ones(2**16, dtype=bool)
            lanes = simulate._lanes(every_lane, column.dtype, 2**16)
            simulate._draw(column, lanes, success, accepted)
            kept = int(np.count_nonzero(accepted))
            assert 2**16 - kept < 2**16 // 256
            assert F(int(np.count_nonzero(success & accepted)), kept) == F(num, den)
            assert not np.any(success & ~accepted)


@pytest.mark.parametrize(
    "den, width",
    [
        (257, 32),
        (1000, 32),
        (2**24, 32),
        (2**24 + 1, 64),
        (3**30, 64),
        (2**56, 64),
        (2**56 + 1, 64),
        (2**63 - 1, 64),  # per = 2: two words in 2**64 rejected
        (2**63 + 1, 64),  # per = 1: about half the words rejected
        (2**64 - 1, 64),
    ],
)
def test_bernoulli_column_thresholds_on_wide_words(den, width):
    per = 2**width // den
    for num in sorted({1, den // 3, den - 1}):
        column = simulate._column(num, den)
        assert column.dtype == np.dtype(f"<u{width // 8}")
        accept = column.last + 1 if column.last is not None else 2**width
        assert F(column.success, accept) == F(num, den)
        assert accept == den * per and 2**width - accept < den
        lanes = [num * per - 1, num * per, den * per - 1]
        want_success = [True, False, False]
        want_accepted = [True, True, True]
        if den * per < 2**width:
            lanes.append(den * per)
            want_success.append(False)
            want_accepted.append(False)
        words = _lanes_as_words(lanes, width)
        assert simulate._words(column, len(lanes)) == len(words)
        success = np.empty(len(lanes), dtype=bool)
        accepted = np.empty(len(lanes), dtype=bool)
        in_words = simulate._lanes(words, column.dtype, len(lanes))
        masked = simulate._draw(column, in_words, success, accepted)
        assert success.tolist() == want_success
        if not masked:
            assert all(want_accepted)
        else:
            assert accepted.tolist() == want_accepted


@pytest.mark.parametrize(
    "prob",
    [F(1, 2**64 + 1), F(1, 3 * 2**64), F(2**-1074), F(5, 7 * 2**62), F(2**70 - 1, 2**70)],
)
def test_probability_beyond_2_to_64_rounds_up(prob):
    # A denominator above 2**64 becomes the next multiple of 2**-64 up.
    rounded = F(math.ceil(prob * 2**64), 2**64)
    assert 0 <= rounded - prob < F(1, 2**64)
    column = simulate._column(prob.numerator, prob.denominator)
    assert column == simulate._column(rounded.numerator, rounded.denominator)
    if column.dtype is None:
        assert rounded == 1 and column.success is True
    else:
        accept = column.last + 1 if column.last is not None else 2**64
        assert F(column.success, accept) == rounded


def test_batch_keeps_the_switch_probability_exact():
    config = SimulationConfig(OPEN_ONE, 5, 4096, master_seed=5)
    (binary,) = run_batch(config, [0.35])
    assert run_batch(config, [F(0.35)]) == (binary,)
    assert run_batch(config, [F(7, 20)]) == run_batch(config, ["7/20"]) != (binary,)
    for bad in (1.5, -0.25, float("inf"), float("nan"), "goat"):
        with pytest.raises(ValueError, match="switch probability"):
            run_batch(config, [0.5, bad])


def _record_chunks(monkeypatch):
    """Wrap ``_block_wins`` to log each chunk's (stream, chunk) and the raw
    words its rounds took, block by block in the order played."""
    drawn = []
    real = simulate._block_wins

    def recording(run, bits, work, block):
        played = real(run, bits, work, block)
        drawn.extend(((row, chunk), words) for (row, chunk, _), (_, words) in zip(block, played))
        return played

    monkeypatch.setattr(simulate, "_block_wins", recording)
    return drawn


def test_open_one_chunk_draws_three_16_bit_columns_and_its_redraws(monkeypatch, capsys):
    # A 65,536-game chunk at p = 7/20 takes 3 * 2**14 words, then 3 columns
    # of ceil(shortfall / 4) words per redraw round.  A 64-bit switch column
    # (p passed on as a float) would take 3 * 2**14 words more.  The sweep
    # draws p = 7/20 on stream 7, the simulate command on stream 0.
    config = SimulationConfig(OPEN_ONE, 15, 2**16, master_seed=12)
    drawn = _record_chunks(monkeypatch)
    sweep(config, F(1, 20))
    assert cli.main([
        "simulate", "--variant", "open-one", "--doors", "15", "--switch-prob",
        "7/20", "--trials", str(2**16), "--seed", "12",
    ]) == cli.EXIT_OK
    capsys.readouterr()
    drawn = dict(drawn)  # the simulate command's stream 0 replaces the sweep's
    for stream in (7, 0):
        ((_, rounds, words),) = _v4_chunks(config, F(7, 20), stream)
        assert rounds[0] == 2**16 and len(rounds) > 1
        assert words == sum(3 * -(-size // 4) for size in rounds) < 3 * 2**14 + 300
        assert drawn[stream, 0] == words


@pytest.mark.parametrize("p", [F(0), F(1)])
def test_certain_columns_draw_nothing(monkeypatch, p):
    # Leave-two's slot column and a switch column at p = 0 or 1 are certain:
    # the chunk takes the hit column's words alone.
    config = SimulationConfig(LEAVE_TWO, 10, 2**16, master_seed=13)
    ((_, rounds, words),) = _v4_chunks(config, p)
    assert words == sum(-(-size // 4) for size in rounds)
    drawn = _record_chunks(monkeypatch)
    run_batch(config, [p])
    assert drawn == [((0, 0), words)]


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
def test_rejection_path_end_to_end_at_the_largest_door_count(variant):
    # n = 2**63 - 1 takes 64-bit hit (and open-one slot) columns.  At p = 0
    # the wins are the recounted hits; at p = 1/(2**63 + 1) about half the
    # switch words are rejected, so most games are redrawn, some many times.
    n = 2**63 - 1
    for p in (F(0), F(1, 2**63 + 1)):
        config = SimulationConfig(variant, n, 5 * 997 + 13, master_seed=21, chunk_size=997)
        chunks = list(_v4_chunks(config, p))
        assert [len(hit) for (hit, _, _), _, _ in chunks] == [997] * 5 + [13]
        if p:
            assert sum(len(rounds) for _, rounds, _ in chunks) > 6 * 5
        results = [run_batch(config, [p], workers=workers)[0] for workers in (1, 2)]
        assert results[0] == results[1]
        assert results[0].trials == config.trials
        assert results[0].wins == _v4_wins(config, p)
        if not p:
            assert results[0].wins == _pick_hits(config, p)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "variant, n, step, trials, chunk_size",
    [
        (OPEN_ONE, 15, F(1, 1000), 2 * 64 + 5, 64),
        (LEAVE_TWO, 10, F(1, 4), 2 * 4096 + 5, 4096),
        (OPEN_ONE, 15, F(1, 4), 1000, 4096),
    ],
)
def test_reused_workspace_leaks_nothing_between_chunks(
    monkeypatch, variant, n, step, trials, chunk_size, workers
):
    # Each drain draws all its chunks into one workspace.  At step 1/1000 one
    # drain's rows mix 16-bit (p = 1/2), 32-bit (p = 1/1000) and certain
    # (p = 0, 1) switch columns; each row's last chunk is short, and with
    # fewer trials than the chunk size no chunk fills a whole chunk.
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    config = SimulationConfig(variant, n, trials, 17, chunk_size)
    rows = sweep(config, step, workers=workers)
    for stream, row in enumerate(rows):
        assert row.result.wins == _v4_wins(config, row.p, stream)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "variant, n, ps, trials, chunk_size",
    [
        # One block of ten chunks whose switch columns are certain (p = 0, 1),
        # 16-bit (1/2, 1/3) and 32-bit (1/1000); each row's second chunk is short.
        (OPEN_ONE, 15, [F(0), F(1, 2), F(1, 1000), F(1, 3), F(1)], 100, 64),
        # Twenty chunks a row: the second block holds row 0's last four
        # chunks and row 1's first twelve.
        (LEAVE_TWO, 10, [F(1, 5), F(2, 7), F(3, 8)], 20 * 64, 64),
        # Rows whose last chunk is short, in blocks of a few 4,096-game chunks.
        (OPEN_ONE, 7, [F(3, 10), F(1, 250)], 3 * 4096 + 17, 4096),
        # The 16-bit p = 1/241 lane rejects 225 lanes in 2**16, so the chunk's
        # redraws take about 170 words, more than a few spare ones.
        (OPEN_ONE, 15, [F(1, 241)], 2**16, 2**16),
    ],
)
def test_block_shapes_match_the_recount(monkeypatch, variant, n, ps, trials, chunk_size, workers):
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    config = SimulationConfig(variant, n, trials, 31, chunk_size)
    results = run_batch(config, ps, workers=workers)
    assert [result.wins for result in results] == [
        _v4_wins(config, p, stream) for stream, p in enumerate(ps)
    ]


def test_kept_games_fall_in_the_eight_cells_as_the_partition_says(monkeypatch):
    # test_09b pools P(win) alone, so a kernel bias that moves the cells but
    # keeps P(win) exact passes it.  Here each kept game of every round is
    # tallied by its (hit, switched, won) cell, and each cell's pooled z
    # over the panel must stay within 5; a cell that the partition leaves
    # empty must stay empty.
    real = simulate._round
    tally = np.zeros(8, dtype=np.int64)  # indexed by 4 * hit + 2 * switched + won

    def counting(columns, lanes, work):
        won, kept = real(columns, lanes, work)
        hit, switched = work[0], work[1]
        cell = (hit.astype(np.uint8) << 2) | (switched.astype(np.uint8) << 1) | won
        tally[:] += np.bincount((cell if kept is None else cell[kept]).ravel(), minlength=8)
        return won, kept

    monkeypatch.setattr(simulate, "_round", counting)
    excess, variance = np.zeros(8), np.zeros(8)
    for variant, n in ((OPEN_ONE, 15), (LEAVE_TWO, 10)):
        for seed in range(4):
            config = SimulationConfig(variant, n, 250000, master_seed=100 + seed)
            for p in switch_probability_grid(F(1, 4)):
                tally[:] = 0
                (result,) = run_batch(config, [p])
                assert tally.sum() == config.trials and tally[1::2].sum() == result.wins
                cells = partition_probabilities(variant, n, p)
                for index in range(8):
                    pi = float(cells[bool(index & 4), bool(index & 2), bool(index & 1)])
                    excess[index] += tally[index] - config.trials * pi
                    variance[index] += config.trials * pi * (1 - pi)
    for index in range(8):
        if variance[index] == 0:
            assert excess[index] == 0, index
        else:
            assert abs(excess[index]) / variance[index] ** 0.5 <= 5.0, index


def _list_trace_trial(variant, n, p, rng):
    """``trace_trial`` as it was with a materialised goat list, in O(n)."""
    k = _host_opens(variant, n)
    pick = int(rng.integers(1, n + 1))
    goats = [door for door in range(2, n + 1) if door != pick]
    for i in range(k):
        j = int(rng.integers(i, len(goats)))
        goats[i], goats[j] = goats[j], goats[i]
    switched = rng.random() < p
    final = pick
    if switched:
        closed = goats[k:] if pick == 1 else [1, *goats[k:]]
        final = closed[int(rng.integers(0, len(closed)))]
    return (pick, frozenset(goats[:k]), switched, final, final == 1)


class _LoggedRNG:
    """A numpy generator that logs every call made of it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, low, high):
        self.calls.append(("integers", low, high))
        return self._rng.integers(low, high)

    def random(self):
        self.calls.append(("random",))
        return self._rng.random()


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", range(3, 9))
def test_sparse_trace_matches_the_list_version(variant, n):
    # Same calls with the same arguments, so every trace is unchanged.
    for seed in range(3):
        sparse, listed = _LoggedRNG(seed), _LoggedRNG(seed)
        for _ in range(300):
            assert tuple(trace_trial(variant, n, 0.5, sparse)) == (
                _list_trace_trial(variant, n, 0.5, listed)
            )
        assert sparse.calls == listed.calls


def test_open_one_trace_does_not_list_the_doors():
    # Open-one touches O(1) doors, so the largest door count plays at once.
    n = 2**63 - 1
    rng = np.random.default_rng(4)
    for _ in range(200):
        trace = trace_trial(OPEN_ONE, n, 0.5, rng)
        (opened,) = trace.host_opens
        assert 2 <= opened <= n and opened != trace.pick
        if trace.switched:
            assert trace.final not in (opened, trace.pick)
        else:
            assert trace.final == trace.pick


@pytest.mark.parametrize(
    "variant, n, p, target",
    [
        (LEAVE_TWO, 3, 0.0, 1 / 3),
        (LEAVE_TWO, 3, 1.0, 2 / 3),
    ],
)
def test_reference_runs_three_doors(variant, n, p, target):
    config = SimulationConfig(variant, n, 100000, master_seed=42)
    assert abs(run_batch(config, [p])[0].empirical - target) < 0.01


def test_reference_run_open_one_fifteen_doors():
    config = SimulationConfig(OPEN_ONE, 15, 250000, master_seed=7)
    target = 1 / 15 + 1 / 195
    assert abs(run_batch(config, [1.0])[0].empirical - target) < 0.01


def test_chebyshev_count_keeps_error_small_across_seeds():
    # At the planned trial count the miss rate must stay within the failure
    # budget: allow at most 1 miss per grid point over a 20-seed panel.
    for p_exact in (F(0), F(1, 2), F(1)):
        exact = float(win_marginal(LEAVE_TWO, 3, p_exact))
        misses = 0
        for seed in range(20):
            config = SimulationConfig(LEAVE_TWO, 3, 250000, master_seed=seed, chunk_size=65536)
            if abs(run_batch(config, [float(p_exact)])[0].empirical - exact) >= 0.01:
                misses += 1
        assert misses <= 1


@pytest.mark.parametrize(
    "variant, n, p_exact",
    [
        (LEAVE_TWO, 3, F(1, 4)),
        (OPEN_ONE, 8, F(3, 4)),
    ],
)
def test_planning_at_analytic_probability_keeps_error_in_band(variant, n, p_exact):
    # plan the trial count at the true win probability, then simulate with it
    from montyhall.planner import PlanMethod, sample_size

    exact = float(win_marginal(variant, n, p_exact))
    trials = sample_size(exact, 0.01, 0.01, PlanMethod.CHEBYSHEV).l0
    misses = 0
    for seed in range(20):
        config = SimulationConfig(variant, n, trials, master_seed=seed, chunk_size=65536)
        if abs(run_batch(config, [float(p_exact)])[0].empirical - exact) >= 0.01:
            misses += 1
    assert misses <= 1


def test_result_fields_and_validation():
    result = SimulationResult(2000, 700)
    assert result.empirical == 0.35
    assert result.std_error == pytest.approx(math.sqrt(0.35 * 0.65 / 2000))
    with pytest.raises(ValueError):
        SimulationResult(10, 11)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True, "10"])
def test_result_rejects_a_trial_count_below_one_or_not_an_int(trials):
    with pytest.raises(ValueError, match=r"^trials must be >= 1 and an integer"):
        SimulationResult(trials, 0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((-1, 0, 0), "seed"),
        ((2**64, 0, 0), "seed"),
        ((0, -1, 0), "stream"),
        ((0, 2**64, 0), "stream"),
        ((0, 1.0, 0), "stream"),
        ((0, 0, -1), "chunk"),
        ((0, 0, 2**64), "chunk"),
        ((0, 0, True), "chunk"),
        # Stream v4's blocks are disjoint for streams and chunks below 2**32.
        ((0, 2**32, 0), "stream"),
        ((0, 0, 2**32), "chunk"),
    ],
)
def test_substream_names_its_bad_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be in \[0, \d+\) and an integer"):
        substream(*args)
    last = (2**64 - 1, 2**32 - 1, 2**32 - 1)
    assert np.array_equal(substream(*last).random(4), _v4_generator(*last).random(4))


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 2, 100)
    with pytest.raises(ValueError):
        run_batch(SimulationConfig(LEAVE_TWO, 3, 100), [1.5])
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3.5, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 0)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 1e5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 100, chunk_size=0)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 100, master_seed=-1)
    with pytest.raises(ValueError):
        run_batch(SimulationConfig(LEAVE_TWO, 3, 100), [0.5], workers=0)
    with pytest.raises(ValueError):
        SimulationConfig("leave-two", 3, 100)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 100, chunk_size=2.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 100, master_seed=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, True)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 3, 2**63)
    with pytest.raises(ValueError):
        run_batch(SimulationConfig(LEAVE_TWO, 3, 100), [0.5], workers=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(LEAVE_TWO, 2**63, 100)
    # Stream v4 gives each chunk of a row its own 2**64 words, fewer than 2**32 chunks a row.
    for trials, chunk_size in ((2**32, 1), (2**62, 2**30), (2**48, 2**16)):
        with pytest.raises(ValueError, match=r"^trials / chunk_size must give < 2\*\*32 chunks"):
            SimulationConfig(LEAVE_TWO, 3, trials, chunk_size=chunk_size)
    accepted = ((2**32 - 1, 1), (2**62, 2**30 + 1), (2**48 - 2**16, 2**16), (2**62, 2**63))
    for trials, chunk_size in accepted:
        assert SimulationConfig(LEAVE_TWO, 3, trials, chunk_size=chunk_size).trials == trials

    def no_chunk(*args):
        raise AssertionError("drew a chunk before the inputs were checked")

    monkeypatch.setattr(simulate, "_block_wins", no_chunk)
    for workers in (0, 1.5):
        with pytest.raises(ValueError):
            sweep(SimulationConfig(LEAVE_TWO, 3, 100), F(1, 2), workers=workers)


def test_thread_count_is_capped_by_chunks_and_cpus(monkeypatch):
    # A drain pulls blocks of up to 16 chunks, so the blocks cap the threads.
    import montyhall.simulate as simulate

    started = []
    real_pool = simulate.ThreadPoolExecutor
    real_block_wins = simulate._block_wins
    drawn = []  # (max_workers of the latest pool, drawn on the calling thread)

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    def recording_block_wins(*args):
        drawn.append((started[-1], threading.current_thread() is threading.main_thread()))
        return real_block_wins(*args)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(simulate, "_block_wins", recording_block_wins)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    two_blocks = SimulationConfig(OPEN_ONE, 5, 32 * 100, master_seed=4, chunk_size=100)
    ten_blocks = SimulationConfig(OPEN_ONE, 5, 160 * 100, master_seed=4, chunk_size=100)
    for config in (two_blocks, ten_blocks):
        assert run_batch(config, [0.5], workers=8) == run_batch(config, [0.5])
    # A sweep takes one pool for all its rows: 21 rows of two chunks make
    # blocks of 16, 16 and 10 chunks; 2 rows of nine make blocks of 16 and 2.
    for step, trials in ((F(1, 20), 200), (F(1), 900)):
        config = SimulationConfig(OPEN_ONE, 5, trials, master_seed=4, chunk_size=100)
        assert sweep(config, step, workers=8) == sweep(config, step)
    # One pool per call; the block count, then the CPU count, caps each.
    assert started == [2, 1, 3, 1, 3, 1, 2, 1]
    # The caller is a drain, so at workers=1 it draws every block itself.
    assert all(on_caller for cap, on_caller in drawn if cap == 1)
    assert sum(cap == 1 for cap, _ in drawn) == 2 + 10 + 3 + 2


def test_threads_pull_each_chunk_exactly_once(monkeypatch):
    # More threads than cores and a short switch interval: a lost or repeated
    # pull of the shared chunk queue would show in the recorded indices.
    import montyhall.simulate as simulate

    config = SimulationConfig(OPEN_ONE, 5, 200 * 64 + 17, master_seed=3, chunk_size=64)
    sweep_config = SimulationConfig(OPEN_ONE, 5, 40 * 64 + 5, master_seed=3, chunk_size=64)
    reference = run_batch(config, [0.5])
    reference_rows = sweep(sweep_config, F(1, 4))
    pulled = _record_chunks(monkeypatch)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_batch(config, [0.5], workers=8)
        batch_pulls = sorted(key for key, _ in pulled)
        pulled.clear()
        threaded_rows = sweep(sweep_config, F(1, 4), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert batch_pulls == [(0, chunk) for chunk in range(201)]
    assert threaded == reference
    assert sorted(key for key, _ in pulled) == [
        (stream, chunk) for stream in range(5) for chunk in range(41)
    ]
    assert threaded_rows == reference_rows


def _failing_block_wins(monkeypatch, calls, fail_at, wins=None):
    """Patch ``_block_wins`` to record each call's chunk count in ``calls``
    and raise on call ``fail_at``; other calls give each chunk ``wins`` or
    its real count."""
    real = simulate._block_wins

    def block_wins(run, bits, work, block):
        calls.append(len(block))
        if len(calls) == fail_at:
            raise RuntimeError("block failed")
        return real(run, bits, work, block) if wins is None else [(wins, 0)] * len(block)

    monkeypatch.setattr(simulate, "_block_wins", block_wins)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("threaded", ["run_batch", "sweep"])
def test_threads_stop_pulling_after_a_failed_chunk(monkeypatch, threaded, workers):
    # 2,000 chunks of 64 games: 125 blocks of 16.
    calls = []
    _failing_block_wins(monkeypatch, calls, fail_at=3)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="block failed"):
        if threaded == "run_batch":
            config = SimulationConfig(OPEN_ONE, 5, 2000 * 64, master_seed=1, chunk_size=64)
            run_batch(config, [0.5], workers=workers)
        else:
            sweep(SimulationConfig(OPEN_ONE, 5, 400 * 64, chunk_size=64), F(1, 4), workers=workers)
    # The failed block, plus at most two blocks the other thread, if any,
    # pulled before it saw the stop.
    assert 3 <= len(calls) <= 3 + 2 * (workers - 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_caller_stops_the_threads(monkeypatch, workers):
    calls = []
    drawn_at_interrupt = []
    real = simulate._block_wins

    def block_wins(*args):
        calls.append(None)
        if threading.current_thread() is threading.main_thread() and len(calls) >= 10:
            # The caller is interrupted while it draws a block, once some ran.
            drawn_at_interrupt.append(len(calls))
            raise KeyboardInterrupt
        # A millisecond per block keeps the other thread from drawing all
        # 125 blocks before the caller is interrupted.
        time.sleep(1e-3)
        return real(*args)

    monkeypatch.setattr(simulate, "_block_wins", block_wins)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    config = SimulationConfig(OPEN_ONE, 5, 2000 * 64, master_seed=1, chunk_size=64)
    with pytest.raises(KeyboardInterrupt):
        run_batch(config, [0.5], workers=workers)
    # The other thread, if any, finishes the block it had started; slack of
    # one more block covers a thread switch between the interrupt and the stop.
    assert 10 <= drawn_at_interrupt[0] <= len(calls) <= drawn_at_interrupt[0] + 2 * (workers - 1) < 125


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_queue_is_never_materialised(monkeypatch, workers):
    # 3 rows of 2**32 - 1 one-game chunks, pulled in blocks of 16: a list of
    # the chunks would not fit in memory.
    calls = []
    _failing_block_wins(monkeypatch, calls, fail_at=5, wins=0)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    raised = []

    def run():
        try:
            config = SimulationConfig(OPEN_ONE, 5, 2**32 - 1, chunk_size=1)
            sweep(config, F(1, 2), workers=workers)
        except BaseException as exc:
            raised.append(exc)

    def stray_block(*args):
        raise RuntimeError("stopped by the test")

    # A drain that missed the stop would pull 2**32 chunks: on a daemon
    # thread, that fails the test instead of hanging the suite.
    runner = threading.Thread(target=run, daemon=True)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        runner.start()
        runner.join(timeout=10)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        hung = runner.is_alive()
        if hung:
            # End the stray drain, so it neither grows `calls` nor slows later tests.
            monkeypatch.setattr(simulate, "_block_wins", stray_block)
            runner.join(timeout=10)
    finally:
        tracemalloc.stop()
    assert not hung, "sweep still running 10 s after the failed chunk"
    assert len(raised) == 1 and isinstance(raised[0], RuntimeError)
    assert str(raised[0]) == "block failed"
    assert elapsed < 5
    assert peak < 2**20
    assert 5 <= len(calls) <= 5 + workers


def test_sweep_rows_and_reference_tracking():
    result = sweep(SimulationConfig(LEAVE_TWO, 3, 20000, master_seed=1), F(1, 20))
    assert len(result) == 21
    ps = [row.p for row in result]
    assert ps == sorted(ps) and len(set(ps)) == 21
    inside = 0
    for row in result:
        assert row.analytic == win_marginal(LEAVE_TWO, 3, row.p)
        if abs(row.result.empirical - row.analytic) <= row.clt_halfwidth:
            inside += 1
    assert inside >= 20  # delta = 0.01 per row, one excursion allowed


def test_sweep_coarse_grid():
    result = sweep(SimulationConfig(LEAVE_TWO, 3, 1000, master_seed=1), F(1, 2))
    assert [row.p for row in result] == [F(0), F(1, 2), F(1)]


def test_sweep_within_chebyshev_epsilon_everywhere():
    result = sweep(SimulationConfig(OPEN_ONE, 4, 250000, master_seed=3, chunk_size=65536), F(1, 20))
    for row in result:
        assert abs(row.result.empirical - float(row.analytic)) < 0.01


def test_sweep_is_reproducible_across_workers():
    config = SimulationConfig(OPEN_ONE, 5, 30000, master_seed=11, chunk_size=4096)
    base = sweep(config, F(1, 5))
    again = sweep(config, F(1, 5))
    threaded = sweep(config, F(1, 5), workers=5)
    assert [r.result.wins for r in base] == [r.result.wins for r in again]
    assert [r.result.wins for r in base] == [r.result.wins for r in threaded]


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_batch_plays_nothing(workers):
    config = SimulationConfig(OPEN_ONE, 5, 100, chunk_size=10)
    assert run_batch(config, [], workers=workers) == ()


def test_batch_rows_are_the_sweep_results_at_any_worker_count(monkeypatch):
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    config = SimulationConfig(OPEN_ONE, 7, 3 * 512 + 9, master_seed=23, chunk_size=512)
    grid = switch_probability_grid(F(1, 8))
    reference = run_batch(config, grid)
    assert len(reference) == len(grid)
    for workers in (2, 8):
        assert run_batch(config, grid, workers=workers) == reference
    assert tuple(row.result for row in sweep(config, F(1, 8))) == reference


def test_sweep_makes_one_batch_call_with_the_config_first(monkeypatch):
    # The bench tracer wraps ``simulate.run_batch`` and reads ``args[0].trials``.
    config = SimulationConfig(LEAVE_TWO, 4, 1000, master_seed=6, chunk_size=256)
    expected = sweep(config, F(1, 4), workers=2)
    calls = []
    real = simulate.run_batch

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "run_batch", recording)
    assert sweep(config, F(1, 4), workers=2) == expected
    ((args, kwargs),) = calls
    assert args[0] is config
    assert args[1] == switch_probability_grid(F(1, 4))
    assert kwargs == {"workers": 2}
