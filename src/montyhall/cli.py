"""Command-line interface tying the analytic, oracle, simulation, and
planning pieces together.

Subcommands::

    analytic   exact win probabilities and the eight-cell partition
    simulate   one seeded Monte Carlo batch at a single (n, p) point
    sweep      Monte Carlo across the switch-probability grid, CSV or table
    plan       trial counts from the Chebyshev bound or the CLT approximation
    verify     exhaustive oracle-vs-closed-form equality checks

Each command reads only the layers' public names; ``verify`` prints what
``oracle.verify_closed_forms`` returns.  ``main`` reads ``$MONTY_SEED`` on
every call and reuses one ``build_parser()`` parser per value of it.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Bad input exits 2 with one ``error:`` line before any simulation.  Seeds
(``--seed``, else ``$MONTY_SEED``, else 0) lie in [0, 2**64), trials and
simulated door counts below 2**63, a simulated game's doors times its other
closed doors at most 2**64 (open-one stops at 2**32 + 1 doors), and the
grid step is 1/k with k <= 10**6;
every accepted flag is checked, even where a path leaves it unread.
Decimals are rendered to 12 significant digits (half-even), in exponent form
from 10**12 up, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from typing import IO, Mapping, Optional, Sequence

from . import analytic, oracle, planner, simulate
from .analytic import GameVariant, as_probability
from .planner import PlanMethod
from .simulate import RNG_ALGORITHM, SimulationConfig, SweepRow

__all__ = ["main", "EXIT_OK", "EXIT_VERIFY_FAILED", "EXIT_USAGE", "EXIT_IO"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

VARIANTS = {v.value: v for v in GameVariant}

CSV_COLUMNS = "p,empirical,analytic,clt_halfwidth,chebyshev_halfwidth"

_SIG12 = Context(prec=12, rounding=ROUND_HALF_EVEN)
#: The magnitude from which fmt12 writes exponent form.
_EXPONENT_FROM = 10**12


def fmt12(value) -> str:
    """Render a Fraction or float to 12 significant digits, half-even: in
    plain notation with trailing zeros stripped below 10**12 in magnitude,
    and from there up in exponent form, as ``format(x, ".12g")`` writes it."""
    if isinstance(value, Fraction):
        quantized = _SIG12.divide(Decimal(value.numerator), Decimal(value.denominator))
        if abs(value.numerator) >= _EXPONENT_FROM * value.denominator:
            return format(quantized.normalize(), "e")
    else:
        value = float(value)
        if math.isfinite(value):
            # Python rounds a float's exact binary value half-even, as Decimal
            # does; only its notation for small and large values differs.
            text = format(value, ".12g")
            if "e" not in text or abs(value) >= _EXPONENT_FROM:
                return text if value else "0"  # -0.0 too
            return format(Decimal(text), "f")
        quantized = _SIG12.plus(Decimal(value))
    text = format(quantized, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def _fixed6(value: float) -> str:
    """Six decimals, or six in exponent form from 10**12 in magnitude up."""
    return f"{value:.6e}" if abs(value) >= 1e12 else f"{value:.6f}"


def _cell_label(cell: tuple[bool, bool, bool]) -> str:
    correct, switched, won = cell
    return "P({} pick, {}, {})".format(
        "correct" if correct else "wrong",
        "switch" if switched else "stay",
        "win" if won else "lose",
    )


def write_sweep_csv(
    rows: Sequence[SweepRow], meta: Mapping[str, object], fh: IO[str]
) -> None:
    """CSV with '#'-prefixed metadata, then the fixed five-column layout."""
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    fh.write(CSV_COLUMNS + "\n")
    for row in rows:
        fh.write(
            ",".join(
                (
                    fmt12(row.p),
                    fmt12(row.result.empirical),
                    fmt12(row.analytic),
                    fmt12(row.clt_halfwidth),
                    fmt12(row.chebyshev_halfwidth),
                )
            )
            + "\n"
        )


def _write_sweep_table(
    rows: Sequence[SweepRow], meta: Mapping[str, object], fh: IO[str]
) -> None:
    """A one-line summary of the run, then fixed-width columns."""
    keys = ("variant", "doors", "trials", "seed", "epsilon", "delta")
    fh.write("sweep: " + " ".join(f"{key}={meta[key]}" for key in keys) + "\n")
    fh.write(f"{'p':>6} {'empirical':>12} {'analytic':>14} {'clt_hw':>10} {'cheb_hw':>10}\n")
    for row in rows:
        fh.write(
            f"{fmt12(row.p):>6} {row.result.empirical:>12.6f} "
            f"{fmt12(row.analytic):>14} {_fixed6(row.clt_halfwidth):>10} "
            f"{_fixed6(row.chebyshev_halfwidth):>10}\n"
        )


def cmd_analytic(args: argparse.Namespace) -> int:
    variant, n = VARIANTS[args.variant], args.doors
    switch = analytic.win_given_switch(variant, n)
    stay = analytic.win_given_stay(variant, n)
    p = as_probability(args.switch_prob)
    partition = analytic.partition_probabilities(variant, n, p)
    rows = [
        ("P(win | switch)", switch),
        ("P(win | stay)", stay),
        ("P(win)", analytic.win_marginal(variant, n, p)),
        ("intercept", stay),
        ("slope", switch - stay),
    ] + [(_cell_label(cell), value) for cell, value in partition.cells.items()]
    if args.format == "csv":
        print("quantity,exact,decimal")
        for name, value in rows:
            print(f"{name},{value},{fmt12(value)}")
    else:
        print(f"variant={args.variant} doors={n} switch_prob={p}")
        for name, value in rows:
            print(f"{name:<32} {str(value):>12}  ({fmt12(value)})")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    variant = VARIANTS[args.variant]
    config = SimulationConfig(variant, args.doors, args.trials, args.seed, args.chunk_size)
    p = as_probability(args.switch_prob, "switch probability")
    (result,) = simulate.run_batch(config, [p], workers=args.workers)
    exact = analytic.win_marginal(variant, config.n, p)
    rows = [
        ("variant", args.variant),
        ("doors", args.doors),
        ("switch_prob", p),
        ("trials", result.trials),
        ("seed", args.seed),
        ("chunk_size", args.chunk_size),
        ("rng", RNG_ALGORITHM),
        ("wins", result.wins),
        ("empirical", fmt12(result.empirical)),
        ("std_error", fmt12(result.std_error)),
        ("analytic", f"{exact} = {fmt12(exact)}"),
        ("abs_error", fmt12(abs(result.empirical - float(exact)))),
    ]
    if args.format == "csv":
        print("quantity,value")
        for name, value in rows:
            print(f"{name},{value}")
    else:
        for name, value in rows:
            print(f"{name:<12} {value}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    grid_step = as_probability(args.grid_step)
    # Plan on both paths, at worst-case variance, to check inputs before simulating.
    method = PlanMethod(args.plan_trials or "clt")
    plan = planner.sample_size(0.5, args.epsilon, args.delta, method)
    trials = args.trials if args.plan_trials is None else plan.l0
    meta = {
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "variant": args.variant,
        "doors": args.doors,
        "trials": trials,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "chunk_size": args.chunk_size,
        "grid_step": grid_step,
    }
    config = SimulationConfig(
        VARIANTS[args.variant], args.doors, trials, args.seed, args.chunk_size
    )
    rows = simulate.sweep(config, grid_step, delta=args.delta, workers=args.workers)
    write = write_sweep_csv if args.format == "csv" else _write_sweep_table
    if args.out is None:
        write(rows, meta, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write(rows, meta, fh)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    method = PlanMethod(args.method)
    # Checked on both paths, though only the analytic one reads them.
    exact = analytic.win_marginal(VARIANTS[args.variant], args.doors, args.switch_prob)
    if args.at == "worst-case":
        p_win = 0.5
        source = "worst-case"
    else:
        p_win = float(exact)
        source = (
            f"analytic({args.variant}, doors={args.doors}, "
            f"switch_prob={as_probability(args.switch_prob)})"
        )
    plan = planner.sample_size(p_win, args.epsilon, args.delta, method)
    print(f"method      {method.value}")
    print(f"p_win       {fmt12(p_win)} ({source})")
    print(f"variance    {fmt12(p_win * (1.0 - p_win))}")
    print(f"epsilon     {args.epsilon}")
    print(f"delta       {args.delta}")
    if plan.z_x is not None:
        print(f"z_x         {fmt12(plan.z_x)} (x = 1 - delta/2)")
    print(f"l0          {plan.l0}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    analytic_checks, failures = oracle.verify_closed_forms(
        args.doors_max, args.placement_checks, args.seed
    )
    if failures:
        total = analytic_checks + args.placement_checks
        print(f"{len(failures)} of {total} checks FAILED:", *failures, sep="\n  ")
        return EXIT_VERIFY_FAILED
    print(
        f"{analytic_checks} analytic checks passed, "
        f"{args.placement_checks} placement checks passed"
    )
    return EXIT_OK


def _add_game_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--variant",
        choices=sorted(VARIANTS),
        default="leave-two",
        help="host strategy (default: leave-two)",
    )
    sub.add_argument("--doors", type=int, default=3, metavar="N", help="door count, >= 3")


def _add_switch_prob_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--switch-prob",
        default="1/2",
        metavar="P",
        help="switch probability as a fraction '1/3' or exact decimal '0.05'",
    )


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        default=os.environ.get("MONTY_SEED", "0"),
        metavar="S",
        help="master seed (default: $MONTY_SEED, else 0)",
    )


def _add_format_flag(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--format", choices=["table", "csv"], default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="montyhall",
        description="Exact, simulated, and planned win probabilities for "
        "generalized Monty Hall games.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("analytic", help="exact probabilities at one (n, p)")
    _add_game_flags(sub)
    _add_switch_prob_flag(sub)
    _add_format_flag(sub, "table")
    sub.set_defaults(handler=cmd_analytic)

    sub = commands.add_parser("simulate", help="one Monte Carlo batch")
    _add_game_flags(sub)
    _add_switch_prob_flag(sub)
    _add_seed_flag(sub)
    sub.add_argument("--trials", type=int, default=100000)
    sub.add_argument("--chunk-size", type=int, default=simulate.DEFAULT_CHUNK_SIZE)
    sub.add_argument("--workers", type=int, default=1)
    _add_format_flag(sub, "table")
    sub.set_defaults(handler=cmd_simulate)

    sub = commands.add_parser("sweep", help="Monte Carlo across the p grid")
    _add_game_flags(sub)
    _add_seed_flag(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--trials", type=int, default=20000)
    group.add_argument(
        "--plan-trials",
        choices=[m.value for m in PlanMethod],
        default=None,
        help="derive the trial count from the planner at worst-case variance",
    )
    sub.add_argument("--grid-step", default=analytic.GRID_STEP_DEFAULT, metavar="STEP")
    sub.add_argument("--epsilon", type=float, default=0.01)
    sub.add_argument("--delta", type=float, default=0.01)
    sub.add_argument("--chunk-size", type=int, default=simulate.DEFAULT_CHUNK_SIZE)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", default=None, metavar="PATH")
    _add_format_flag(sub, "csv")
    sub.set_defaults(handler=cmd_sweep)

    sub = commands.add_parser(
        "plan",
        help="trial count for a target accuracy: guaranteed by Chebyshev, "
        "approximate by the CLT",
    )
    _add_game_flags(sub)
    _add_switch_prob_flag(sub)
    sub.add_argument("--epsilon", type=float, default=0.01)
    sub.add_argument("--delta", type=float, default=0.01)
    sub.add_argument("--method", choices=[m.value for m in PlanMethod], default="clt")
    sub.add_argument(
        "--at",
        choices=["worst-case", "analytic"],
        default="worst-case",
        help="plan at worst-case variance or at the analytic win probability",
    )
    sub.set_defaults(handler=cmd_plan)

    sub = commands.add_parser("verify", help="oracle vs closed-form equality checks")
    sub.add_argument("--doors-max", type=int, default=10)
    sub.add_argument("--placement-checks", type=int, default=50)
    _add_seed_flag(sub)
    sub.set_defaults(handler=cmd_verify)

    return parser


@functools.lru_cache(maxsize=8)
def _parser(monty_seed: Optional[str]) -> argparse.ArgumentParser:
    """The parser that ``build_parser`` makes while ``$MONTY_SEED`` is
    ``monty_seed``, which sets ``--seed``'s default; parsing leaves it as
    it was, so ``main`` reuses it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser(os.environ.get("MONTY_SEED"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
