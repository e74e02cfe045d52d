#!/usr/bin/env python3
"""Benchmark of the montyhall package through its command line.

Usage::

    python3 bench/run.py --workload sweep-planned --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

Each workload is one process acting as one closed-loop caller: it generates
the argv of its next `montyhall` call from ``--seed``, calls
``montyhall.cli.main(argv)`` in process, checks the output against values
computed in ``checks.py``, and repeats whole rounds of calls until
``--seconds`` have passed.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same calls run once untraced and once with every layer timed (``spans.py``),
and the JSON object holds the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from spans import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPSILON = "0.01"
DELTA = "0.01"
PAPER_STEP = Fraction(1, 20)
FINE_STEP = Fraction(1, 1000)
VERIFY_DOORS_MAX = 14
PIPELINE_DOORS_MAX = 7
VERIFY_PLACEMENT_CHECKS = 50
SETUP_REPEATS = 9
COVERAGE_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class Op:
    """One call of ``montyhall.cli.main`` and how to judge its output."""

    argv: list[str]
    games: int
    check: Callable[[str, checks.SweepTally], list[str]]


def sweep_op(variant, doors, seed, *, trials=None, step=PAPER_STEP, chunk=None, workers=None):
    argv = [
        "sweep", "--variant", variant, "--doors", str(doors), "--seed", str(seed),
        "--grid-step", str(step), "--epsilon", EPSILON, "--delta", DELTA,
    ]
    if trials is None:
        argv += ["--plan-trials", "chebyshev"]
        trials = checks.planned_trials(EPSILON, DELTA)
    else:
        argv += ["--trials", str(trials)]
    if chunk is not None:
        argv += ["--chunk-size", str(chunk)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    check = partial(
        checks.check_sweep, variant=variant, doors=doors, seed=seed, trials=trials,
        grid_step=step, delta=DELTA, chunk_size=chunk,
    )
    return Op(argv, trials * (int(1 / step) + 1), lambda text, tally: check(text, tally=tally))


def verify_op(seed, doors_max=VERIFY_DOORS_MAX):
    argv = [
        "verify", "--doors-max", str(doors_max),
        "--placement-checks", str(VERIFY_PLACEMENT_CHECKS), "--seed", str(seed),
    ]
    grid = [k * PAPER_STEP for k in range(int(1 / PAPER_STEP) + 1)]  # verify's grid
    return Op(
        argv,
        checks.verify_trajectories(doors_max, grid),
        lambda text, tally: checks.check_verify(
            text, doors_max, len(grid), VERIFY_PLACEMENT_CHECKS),
    )


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


# A round is the fixed list of calls a workload repeats; only seeds change.
ROUNDS: dict[str, Callable[[random.Random], list[Op]]] = {
    # The paper's pipeline: check the closed forms against the oracle, then
    # the figure's Chebyshev-planned sweeps (250,000 trials per row, default
    # chunk size, one worker).  The batch kernel has the largest share.
    "sweep-planned": lambda rng: [
        verify_op(_seed(rng), doors_max=PIPELINE_DOORS_MAX),
        sweep_op("open-one", 15, _seed(rng)),
        sweep_op("leave-two", 10, _seed(rng)),
    ],
    # 1,001 rows of one 4,096-trial chunk each: per-row costs dominate.
    "sweep-fine": lambda rng: [
        sweep_op(v, d, _seed(rng), trials=4096, step=FINE_STEP, chunk=4096)
        for v, d in (("open-one", 15), ("leave-two", 10))
    ],
    # The acceptance-sweep shape (chunk 65536, 250,000 trials per row),
    # fanned out to two threads, on the same games as sweep-planned.
    "sweep-threads": lambda rng: [
        sweep_op(v, d, _seed(rng), trials=250_000, chunk=65536, workers=2)
        for v, d in (("open-one", 15), ("leave-two", 10))
    ],
    # Exhaustive oracle-vs-closed-form checks; the oracle does the work.
    # Not in BENCHMARK.json: see the README.
    "verify": lambda rng: [verify_op(_seed(rng))],
}

# Untimed first call per workload, so lazy imports and caches are warm.
WARMUP: dict[str, Op] = {
    "sweep-planned": verify_op(0, doors_max=PIPELINE_DOORS_MAX),
    "sweep-fine": sweep_op("leave-two", 10, 0, trials=4096, step=FINE_STEP, chunk=4096),
    "sweep-threads": sweep_op("open-one", 15, 0, trials=250_000, chunk=65536, workers=2),
    "verify": verify_op(0, doors_max=6),
}


@dataclass
class Pass:
    """Totals of one pass over a workload."""

    rounds: list[list[Op]] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    games: int = 0
    attempted: int = 0
    failed: int = 0


def call(cli, op: Op, tally: checks.SweepTally) -> tuple[float, float, str, list[str]]:
    """Run one operation; return its wall and CPU seconds, output and problems."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = f"exit {cli.main(op.argv)}"
        except Exception as exc:  # a crash is one failed call, not a failed run
            outcome = f"raised {exc!r}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if outcome != "exit 0":
        return wall, cpu, "", [f"{outcome}: {err.getvalue().strip()[-300:]}"]
    return wall, cpu, out.getvalue(), op.check(out.getvalue(), tally)


def run_pass(cli, rounds, tally: checks.SweepTally, problems: list[str]) -> Pass:
    """Run whole rounds taken from ``rounds`` until it is exhausted."""
    result = Pass()
    for ops in rounds:
        for op in ops:
            wall, cpu, _, issues = call(cli, op, tally)
            result.wall += wall
            result.cpu += cpu
            result.games += op.games
            result.attempted += 1
            if issues:
                result.failed += 1
                problems.extend(f"{' '.join(op.argv)}: {issue}" for issue in issues[:3])
        result.rounds.append(ops)
    return result


def timed_rounds(make_round, rng: random.Random, seconds: float):
    """Yield fresh rounds until ``seconds`` have passed; always at least one."""
    deadline = time.perf_counter() + seconds
    while True:
        yield make_round(rng)
        if time.perf_counter() >= deadline:
            return


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    builds its parser; the first, untimed start compiles bytecode."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from montyhall.cli import build_parser; build_parser()"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def check_reproducible(cli, op: Op) -> list[str]:
    """CSV bytes must not depend on --workers."""
    at = op.argv.index("--workers") + 1
    single = Op(op.argv[:at] + ["1"] + op.argv[at + 1:], op.games, op.check)
    outputs = [call(cli, each, checks.SweepTally())[2] for each in (op, single)]
    if not outputs[0] or outputs[0] != outputs[1]:
        return [f"{' '.join(op.argv)}: CSV differs between --workers 2 and --workers 1"]
    return []


def traced(rounds, problems: list[str]) -> tuple[Pass, LayerTracer]:
    """Replay ``rounds`` with every layer's public entry points timed."""
    from montyhall import analytic, cli, oracle, planner, simulate

    tracer = LayerTracer()
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "write_sweep_csv", "cli.csv")
    tracer.wrap(simulate, "sweep", "simulate.sweep")
    tracer.wrap(simulate, "run_batch", "simulate.run_batch",
                ("simulate.trials", lambda args, kw: args[0].trials))
    tracer.wrap(simulate, "substream", "simulate.substream")
    tracer.wrap(simulate, "win_marginal", "analytic")
    tracer.wrap(analytic, "win_marginal", "analytic")
    tracer.wrap(analytic, "partition_probabilities", "analytic")
    tracer.wrap(simulate, "band_halfwidth", "planner")
    tracer.wrap(planner, "sample_size", "planner")

    def trajectories(variant_of):
        def count(args, kw):
            params, cars = args[-2], args[-1]
            doors = sum(1 for a in cars.alpha if a != 0)
            return checks.trajectory_count(variant_of(args), params.n, params.p, doors)
        return ("oracle.trajectories", count)

    labels = {variant: label for label, variant in cli.VARIANTS.items()}
    named = trajectories(lambda args: labels[args[0]])
    tracer.wrap(oracle, "exact_win_probability", "oracle.win", named)
    tracer.wrap(oracle, "exact_partition", "oracle.partition", named)
    tracer.wrap(oracle, "exact_initial_correct", "oracle.initial",
                trajectories(lambda args: "leave-two"))
    with tracer:
        # Replayed rows repeat the untraced ones, so they get their own tally.
        result = run_pass(cli, rounds, checks.SweepTally(), problems)
    return result, tracer


def layer_metrics(tracer: LayerTracer, traced_wall: float, untraced_wall: float) -> dict:
    s, total, calls = tracer.self_s, tracer.total_s, tracer.calls
    oracle_spans = ("oracle.win", "oracle.partition", "oracle.initial")
    metrics = {
        "cli.main_s": (s["cli.main"], "s"),
        "cli.csv_s": (s["cli.csv"], "s"),
        "simulate.sweep_s": (s["simulate.sweep"], "s"),
        "simulate.run_batch_s": (total["simulate.run_batch"], "s"),
        "simulate.run_batch_calls": (calls["simulate.run_batch"], "count"),
        "simulate.substream_s": (total["simulate.substream"], "s"),
        "simulate.substream_calls": (calls["simulate.substream"], "count"),
        # run_batch's own time, less the substreams its worker threads derived.
        "simulate.kernel_s": (
            s["simulate.run_batch"] - tracer.worker_s["simulate.substream"], "s"),
        "simulate.trials": (tracer.counts["simulate.trials"], "count"),
        "analytic.s": (s["analytic"], "s"),
        "analytic.calls": (calls["analytic"], "count"),
        "planner.s": (s["planner"], "s"),
        "planner.calls": (calls["planner"], "count"),
        "oracle.win_s": (s["oracle.win"], "s"),
        "oracle.partition_s": (s["oracle.partition"], "s"),
        "oracle.initial_s": (s["oracle.initial"], "s"),
        "oracle.calls": (sum(calls[name] for name in oracle_spans), "count"),
        "oracle.trajectories": (tracer.counts["oracle.trajectories"], "count"),
        "trace.spans_s": (tracer.tracer_s, "s"),
    }
    self_sum = sum(value for name, (value, unit) in metrics.items()
                   if unit == "s" and name != "simulate.run_batch_s")
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.coverage": (self_sum / traced_wall, "ratio"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    from montyhall import cli

    print(
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"cpu_count={os.cpu_count()}"
    )
    setup_s = None if trace else measure_setup()
    # Problems with single calls count them as failed; problems with the
    # run as a whole make it incorrect.
    problems: list[str] = []
    run_problems: list[str] = []
    warm_issues = call(cli, WARMUP[name], checks.SweepTally())[3]
    problems.extend(f"warm-up: {issue}" for issue in warm_issues)

    tally = checks.SweepTally()
    rounds = timed_rounds(ROUNDS[name], random.Random(f"{name}/{seed}"), seconds)
    untraced = run_pass(cli, rounds, tally, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = untraced.attempted, untraced.failed
    if tally.rows:
        pooled = tally.pooled_z()
        print(f"# pooled z over {tally.rows} rows: {pooled:.3f}")
        if abs(pooled) > checks.POOLED_Z_BOUND:
            run_problems.append(f"pooled z {pooled:.2f} exceeds {checks.POOLED_Z_BOUND}")
    if name == "sweep-threads":
        run_problems.extend(check_reproducible(cli, untraced.rounds[0][-1]))

    if trace:
        passed, tracer = traced(untraced.rounds, problems)
        attempted += passed.attempted
        failed += passed.failed
        metrics = layer_metrics(tracer, passed.wall, untraced.wall)
        coverage = metrics["trace.coverage"][0]
        if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
            run_problems.append(f"layer self times cover {coverage:.3f} of the traced wall time")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "games_per_s": (untraced.games / untraced.wall, "games/s"),
            "cpu_s": (untraced.cpu / untraced.attempted, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    for problem in run_problems + problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"# rounds={len(untraced.rounds)} attempted={attempted} failed={failed}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<26} {value:>16.6f} {unit}")
    return {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Run every workload in its own process; merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ROUNDS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*ROUNDS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "montyhall" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'montyhall'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
