"""The command line's input contract: whatever the flags and ``$MONTY_SEED``
hold, ``main`` returns 0 or 2, a 2 comes with an ``error`` line on stderr,
and no exception escapes."""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from montyhall.cli import EXIT_OK, EXIT_USAGE, main

TWO_TO_64 = str(2**64)

#: Tried on every flag; each is invalid for most of them.
HOSTILE = ("1/0", "nan", "inf", "-1", "0", "1e-300", TWO_TO_64, "abc", "2.5")

#: Flags whose valid range has no upper bound get HOSTILE without 2**64: a
#: huge worker count, chunk size, door range or check count is valid, so it
#: would run, not fail.
BOUNDED_HOSTILE = tuple(v for v in HOSTILE if v != TWO_TO_64)

DOORS = tuple(str(n) for n in range(3, 13))
SWITCH_PROBS = ("0", "1/2", "1", "0.05", "1/3")
SEEDS = ("0", "7", str(2**64 - 1))


def game_flags():
    return [
        ("--variant", ("leave-two", "open-one"), ("abc",)),
        ("--doors", DOORS, HOSTILE),
    ]


#: Taken by analytic, simulate and plan; sweep has no switch probability.
SWITCH_PROB = ("--switch-prob", SWITCH_PROBS, HOSTILE)


def batch_flags():
    # Valid draws stay small: chunks of at least 64 trials, two workers.
    return [
        ("--seed", SEEDS, HOSTILE),
        ("--chunk-size", ("64", "100", "4096"), BOUNDED_HOSTILE),
        ("--workers", ("1", "2"), BOUNDED_HOSTILE),
    ]


#: At most 2,000 trials; required, since the defaults are larger.
TRIALS = ("--trials", ("1", "10", "2000"), HOSTILE, "required")
FORMAT = ("--format", ("table", "csv"), ("abc",))


@st.composite
def argvs(draw):
    """A command and its flags, each left out, valid, or hostile."""
    commands = ("analytic", "simulate", "sweep", "sweep", "plan", "verify")
    command = draw(st.sampled_from(commands))
    if command == "analytic":
        flags = game_flags() + [SWITCH_PROB, FORMAT]
    elif command == "simulate":
        flags = game_flags() + [SWITCH_PROB] + batch_flags() + [TRIALS, FORMAT]
    elif command == "sweep" and draw(st.booleans()):
        # A planned sweep runs at most 10,000 trials (epsilon >= 0.05) on at
        # most five points.
        flags = game_flags() + batch_flags() + [
            ("--plan-trials", ("clt", "chebyshev"), ("abc",), "required"),
            ("--grid-step", ("1/2", "1/4"), HOSTILE + ("1e-400", "2/5"), "required"),
            ("--epsilon", ("0.05", "0.1", "0.5"), HOSTILE, "required"),
            ("--delta", ("0.01", "0.1", "0.5"), HOSTILE),
            FORMAT,
        ]
    elif command == "sweep":
        flags = game_flags() + batch_flags() + [
            TRIALS,
            ("--grid-step", ("1/2", "1/20", "0.05", "1"), HOSTILE + ("1e-400", "2/5")),
            ("--epsilon", ("0.05", "0.5"), HOSTILE),
            ("--delta", ("0.01", "0.5"), HOSTILE),
            FORMAT,
        ]
    elif command == "plan":
        flags = game_flags() + [
            SWITCH_PROB,
            ("--epsilon", ("0.01", "0.05"), HOSTILE),
            ("--delta", ("0.01", "0.5"), HOSTILE),
            ("--method", ("clt", "chebyshev"), ("abc",)),
            ("--at", ("worst-case", "analytic"), ("abc",)),
        ]
    else:
        # Required: the default of ten doors takes about a second.
        flags = [
            ("--doors-max", ("3", "4", "5"), BOUNDED_HOSTILE, "required"),
            ("--placement-checks", ("0", "3"), BOUNDED_HOSTILE),
            ("--seed", SEEDS, HOSTILE),
        ]
    # At most one flag, or $MONTY_SEED, takes a hostile value; the rest are
    # valid or left out, so each hostile value reaches the check meant for it.
    names = [None, None, None, "MONTY_SEED"] + [name for name, *_ in flags]
    bad = draw(st.sampled_from(names))
    argv = [command]
    for name, valid, hostile, *required in flags:
        if name == bad:
            argv += [name, draw(st.sampled_from(hostile))]
        elif required or draw(st.booleans()):
            argv += [name, draw(st.sampled_from(valid))]
    env_seeds = HOSTILE if bad == "MONTY_SEED" else (None,) + SEEDS
    return argv, draw(st.sampled_from(env_seeds))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv_and_env_seed=argvs())
def test_every_input_exits_0_or_2_with_an_error_line(argv_and_env_seed):
    argv, env_seed = argv_and_env_seed
    env = {k: v for k, v in os.environ.items() if k != "MONTY_SEED"}
    if env_seed is not None:
        env["MONTY_SEED"] = env_seed
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, env, clear=True),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (argv, env_seed, code, err.getvalue())
    if code == EXIT_USAGE:
        assert any("error" in line for line in err.getvalue().splitlines())
