"""Command-line surface: flags, exit codes, CSV contract, reproducibility."""

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import montyhall.analytic
import montyhall.oracle
import montyhall.simulate
from montyhall.cli import (
    CSV_COLUMNS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    fmt12,
    main,
)

F = Fraction


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("MONTY_SEED", raising=False)


def run_cli(*argv):
    return main(list(argv))


def test_fmt12_rendering():
    assert fmt12(F(1, 3)) == "0.333333333333"
    assert fmt12(F(2, 3)) == "0.666666666667"
    assert fmt12(F(1, 2)) == "0.5"
    assert fmt12(F(0)) == "0"
    assert fmt12(F(1)) == "1"
    assert fmt12(0.05) == "0.05"
    assert fmt12(1 / 3) == "0.333333333333"


_SIG12 = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _decimal_fmt12(value):
    """12 significant digits, half-even, in plain notation: the rendering
    every value below 10**12 keeps, written out with Decimal."""
    if isinstance(value, Fraction):
        quantized = _SIG12.divide(Decimal(value.numerator), Decimal(value.denominator))
    else:
        quantized = _SIG12.plus(Decimal(float(value)))
    text = format(quantized, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


@st.composite
def _twelve_digit_ties(draw):
    """A float whose exact value has 13 significant digits, the last a 5:
    d / 10**k for a 13-digit d that 5**k divides, which is m / 2**k."""
    k = draw(st.integers(min_value=1, max_value=13))
    low, high = -(-(10**12) // 5**k), (10**13 - 1) // 5**k
    m = draw(st.integers(min_value=low, max_value=high).filter(lambda m: m % 2))
    return draw(st.sampled_from([1, -1])) * m / 2**k


_BELOW_10_TO_12 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not abs(x) >= 1e12),
    st.floats(max_value=1e-300, min_value=-1e-300),  # subnormals and their neighbours
    st.floats(min_value=1e11, max_value=1e12, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 999999999999.5, 0.05, 1 / 3]),
    _twelve_digit_ties(),
)


@settings(max_examples=2000, derandomize=True)
@given(value=_BELOW_10_TO_12)
def test_fmt12_keeps_the_decimal_rendering_below_10_to_12(value):
    assert fmt12(value) == _decimal_fmt12(value)


@given(value=st.fractions(min_value=-(10**11), max_value=10**11, max_denominator=10**15))
def test_fmt12_renders_a_fraction_as_decimal_does(value):
    assert fmt12(value) == _decimal_fmt12(value)


@settings(max_examples=500, derandomize=True)
@given(value=st.floats(min_value=1e12, allow_infinity=False), sign=st.sampled_from([1, -1]))
def test_fmt12_writes_exponent_form_from_10_to_12(value, sign):
    text = fmt12(sign * value)
    assert text == format(sign * value, ".12g") and "e+" in text
    assert Decimal(text) == Decimal(_decimal_fmt12(sign * value))
    assert fmt12(F(sign * value)) == text


def test_analytic_reports_exact_values(capsys):
    assert run_cli("analytic", "--variant", "leave-two", "--doors", "3",
                   "--switch-prob", "1/2") == EXIT_OK
    out = capsys.readouterr().out
    assert "P(win)" in out and "1/2" in out
    assert "P(win | switch)" in out and "2/3" in out
    assert out.count("P(") == 11  # three profile lines plus the eight cells


def test_analytic_open_one_csv(capsys):
    assert run_cli("analytic", "--variant", "open-one", "--doors", "4",
                   "--switch-prob", "1", "--format", "csv") == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("quantity,exact,decimal")
    assert "P(win),3/8,0.375" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("analytic", "--doors", "2"),
        ("analytic", "--switch-prob", "7/5"),
        ("analytic", "--switch-prob", "goat"),
        ("sweep", "--grid-step", "2/5", "--trials", "10"),
        ("plan", "--epsilon", "0"),
        ("plan", "--delta", "1.0"),
        ("verify", "--doors-max", "2"),
        ("simulate", "--trials", "0"),
        ("plan", "--epsilon", "inf"),
        ("sweep", "--grid-step", "1/0", "--trials", "10"),
        ("sweep", "--grid-step", "1e-400", "--trials", "10"),
        ("sweep", "--plan-trials", "chebyshev", "--epsilon", "1e-300",
         "--delta", "0.5", "--grid-step", "1/2"),
        ("verify", "--seed", "18446744073709551616"),
        ("sweep", "--switch-prob", "1/2", "--trials", "10", "--grid-step", "1/2"),
        ("plan", "--doors", "2"),
        ("plan", "--switch-prob", "abc"),
        ("simulate", "--doors", str(2**63), "--trials", "10"),
        ("plan", "--method", "clt", "--delta", "5e-324"),
        ("sweep", "--trials", "10", "--grid-step", "1/2", "--delta", "5e-324"),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert run_cli("analytic", "--coconuts", "3") == EXIT_USAGE
    capsys.readouterr()


def test_doors_error_message(capsys):
    assert run_cli("analytic", "--doors", "2") == EXIT_USAGE
    assert "doors must be >= 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--trials", "10"), ("sweep", "--trials", "10", "--grid-step", "1/2")],
)
def test_simulated_doors_stop_below_2_to_63(argv, monkeypatch, capsys):
    assert run_cli(*argv, "--doors", str(2**63 - 1)) == EXIT_OK
    capsys.readouterr()

    def no_chunk(*args, **kwargs):
        raise AssertionError("simulated before the inputs were checked")

    monkeypatch.setattr(montyhall.simulate, "_block_wins", no_chunk)
    assert run_cli(*argv, "--doors", str(2**63)) == EXIT_USAGE
    assert "doors must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--trials", str(2**32)),
        ("sweep", "--trials", str(2**32), "--grid-step", "1/2"),
    ],
)
def test_chunks_per_row_stop_below_2_to_32(argv, monkeypatch, capsys):
    # Stream v4 gives each chunk 2**64 words of a row's 2**96: no more than
    # 2**32 - 1 chunks fit in a row.  Configs are built, never run.
    def no_chunk(*args, **kwargs):
        raise AssertionError("simulated before the inputs were checked")

    monkeypatch.setattr(montyhall.simulate, "_block_wins", no_chunk)
    assert run_cli(*argv, "--chunk-size", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: trials / chunk_size must give < 2**32 chunks, got {2**32}"
    ]


def test_help_exits_zero(capsys):
    assert run_cli("--help") == EXIT_OK
    out = capsys.readouterr().out
    for command in ("analytic", "simulate", "sweep", "plan", "verify"):
        assert command in out
    assert run_cli("sweep", "--help") == EXIT_OK
    capsys.readouterr()


def test_plan_chebyshev_worst_case(capsys):
    assert run_cli("plan", "--at", "worst-case", "--epsilon", "0.01",
                   "--delta", "0.01", "--method", "chebyshev") == EXIT_OK
    out = capsys.readouterr().out
    assert "l0          250000" in out
    assert "z_x" not in out


def test_plan_clt_worst_case(capsys):
    assert run_cli("plan", "--at", "worst-case", "--epsilon", "0.01",
                   "--delta", "0.01", "--method", "clt") == EXIT_OK
    out = capsys.readouterr().out
    assert "l0          16588" in out
    assert "z_x         2.57582930355" in out


@pytest.mark.parametrize(
    "delta, z",
    # mpmath: 6.46695108724052 and 8.57394407672225
    [("1e-10", "6.46695108724"), ("1e-17", "8.57394407672")],
)
def test_plan_clt_keeps_every_digit_of_z_for_small_delta(capsys, delta, z):
    assert run_cli("plan", "--delta", delta, "--method", "clt") == EXIT_OK
    assert f"z_x         {z} (x = 1 - delta/2)" in capsys.readouterr().out


def test_plan_at_analytic(capsys):
    assert run_cli("plan", "--at", "analytic", "--variant", "leave-two",
                   "--doors", "3", "--switch-prob", "0", "--method", "clt") == EXIT_OK
    out = capsys.readouterr().out
    assert "p_win       0.333333333333" in out


def test_simulate_reports_result(capsys):
    assert run_cli("simulate", "--variant", "leave-two", "--doors", "3",
                   "--switch-prob", "1", "--trials", "20000", "--seed", "4") == EXIT_OK
    out = capsys.readouterr().out
    assert "wins" in out and "empirical" in out and "std_error" in out
    assert "analytic" in out and "2/3" in out
    assert f"rng          {montyhall.simulate.RNG_ALGORITHM}" in out.splitlines()


def _sweep_args(out_path, *extra):
    return (
        "sweep", "--variant", "leave-two", "--doors", "3", "--trials", "20000",
        "--seed", "1", "--out", str(out_path), *extra,
    )


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    assert run_cli(*_sweep_args(path)) == EXIT_OK
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert meta == [
        "# seed=1",
        "# rng=PCG64DXSM (numpy.random.PCG64DXSM); numpy "
        f"{np.__version__}; stream=v4; "
        "base=PCG64DXSM(SeedSequence(seed)); "
        "word w of (grid_index, chunk_index)=output grid_index*2^96+chunk_index*2^64+w; "
        "columns=hit,switch,slot0 as exact thresholds on 16/32/64-bit lanes "
        "of raw words, rejected games redrawn",
        "# variant=leave-two",
        "# doors=3",
        "# trials=20000",
        "# epsilon=0.01",
        "# delta=0.01",
        "# chunk_size=65536",
        "# grid_step=1/20",
    ]
    assert meta[1] == f"# rng={montyhall.simulate.RNG_ALGORITHM}"
    header_index = len(meta)
    assert lines[header_index] == CSV_COLUMNS
    data = lines[header_index + 1 :]
    assert len(data) == 21
    assert data[0].split(",")[0] == "0"
    assert data[-1].split(",")[0] == "1"
    # A decimal step is parsed exactly and written as a fraction.
    assert run_cli(*_sweep_args(path, "--grid-step", "0.05")) == EXIT_OK
    assert path.read_text(encoding="utf-8").splitlines()[:9] == meta


def test_sweep_csv_analytic_column_is_exact(tmp_path):
    path = tmp_path / "sweep.csv"
    assert run_cli(*_sweep_args(path)) == EXIT_OK
    rows = [
        line.split(",")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#") and not line.startswith("p,")
    ]
    from montyhall.analytic import GameVariant, win_marginal

    for k, row in enumerate(rows):
        exact = win_marginal(GameVariant.LEAVE_TWO_CLOSED, 3, F(k, 20))
        assert row[2] == fmt12(exact)
        assert float(row[2]) == pytest.approx(float(exact), abs=5e-12)


def test_sweep_byte_identical_across_runs_and_workers(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    chunks = ("--chunk-size", "4096")
    assert run_cli(*_sweep_args(paths[0], *chunks)) == EXIT_OK
    assert run_cli(*_sweep_args(paths[1], *chunks)) == EXIT_OK
    assert run_cli(*_sweep_args(paths[2], *chunks, "--workers", "4")) == EXIT_OK
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_seed_changes_output(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--doors", "3", "--trials", "5000", "--seed", "1",
                   "--out", str(first)) == EXIT_OK
    assert run_cli("sweep", "--doors", "3", "--trials", "5000", "--seed", "2",
                   "--out", str(second)) == EXIT_OK
    assert first.read_bytes() != second.read_bytes()


def test_sweep_planned_trials(tmp_path):
    path = tmp_path / "planned.csv"
    assert run_cli("sweep", "--variant", "open-one", "--doors", "15",
                   "--plan-trials", "chebyshev", "--seed", "9",
                   "--grid-step", "1/2", "--out", str(path)) == EXIT_OK
    text = path.read_text(encoding="utf-8")
    assert "# trials=250000" in text
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith(("#", "p,"))]
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 0.01


@pytest.mark.parametrize(
    "flags",
    [
        ("--epsilon", "-1", "--trials", "10"),
        ("--delta", "2"),
        ("--plan-trials", "clt", "--epsilon", "inf"),
        ("--trials", "10", "--delta", "5e-324"),
    ],
)
def test_sweep_rejects_bad_plan_inputs_before_simulating(
    flags, tmp_path, monkeypatch, capsys
):
    def no_chunk(*args, **kwargs):
        raise AssertionError("simulated before the inputs were checked")

    monkeypatch.setattr(montyhall.simulate, "_block_wins", no_chunk)
    path = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--doors", "3", "--out", str(path), *flags) == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()
    assert not path.exists()


def test_sweep_table_format(capsys):
    assert run_cli("sweep", "--doors", "3", "--trials", "2000", "--seed", "1",
                   "--grid-step", "1/2", "--format", "table") == EXIT_OK
    out = capsys.readouterr().out
    assert "empirical" in out and "analytic" in out


def test_sweep_chebyshev_band_is_finite_for_a_tiny_delta(capsys):
    # delta * trials is subnormal here; the band is about 1.5e159, not inf.
    assert run_cli("sweep", "--trials", "10", "--grid-step", "1/3",
                   "--delta", "1e-320") == EXIT_OK
    out = capsys.readouterr().out
    assert "Infinity" not in out
    bands = [float(row.split(",")[4]) for row in out.splitlines()[-4:]]
    assert bands == [1.49072028298e159, 1.57135714948e159, 1.57135714948e159,
                     1.49072028298e159]


def test_sweep_stdout_default(capsys):
    assert run_cli("sweep", "--doors", "3", "--trials", "1000", "--seed", "1",
                   "--grid-step", "1/2") == EXIT_OK
    out = capsys.readouterr().out
    assert CSV_COLUMNS in out


def test_sweep_table_goes_to_out(tmp_path, capsys):
    argv = ("sweep", "--doors", "3", "--trials", "2000", "--seed", "1",
            "--grid-step", "1/2", "--format", "table")
    assert run_cli(*argv) == EXIT_OK
    table = capsys.readouterr().out
    path = tmp_path / "sweep.txt"
    assert run_cli(*argv, "--out", str(path)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == table.encode("utf-8")


def test_sweep_unwritable_path_exits_3(tmp_path, capsys):
    missing = tmp_path / "not" / "a" / "directory" / "x.csv"
    assert run_cli(*_sweep_args(missing)) == EXIT_IO
    assert "error" in capsys.readouterr().err.lower()
    assert run_cli(*_sweep_args(missing, "--format", "table")) == EXIT_IO
    assert "error" in capsys.readouterr().err.lower()


def test_seed_env_default_and_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MONTY_SEED", "7")
    env_path, flag_path, zero_path = (tmp_path / n for n in ("e.csv", "f.csv", "g.csv"))
    assert run_cli("sweep", "--doors", "3", "--trials", "1000",
                   "--grid-step", "1/2", "--out", str(env_path)) == EXIT_OK
    assert "# seed=7" in env_path.read_text(encoding="utf-8")
    assert run_cli("sweep", "--doors", "3", "--trials", "1000", "--seed", "5",
                   "--grid-step", "1/2", "--out", str(flag_path)) == EXIT_OK
    assert "# seed=5" in flag_path.read_text(encoding="utf-8")
    monkeypatch.delenv("MONTY_SEED")
    assert run_cli("sweep", "--doors", "3", "--trials", "1000",
                   "--grid-step", "1/2", "--out", str(zero_path)) == EXIT_OK
    assert "# seed=0" in zero_path.read_text(encoding="utf-8")


def test_invalid_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("MONTY_SEED", "banana")
    assert run_cli("sweep", "--doors", "3", "--trials", "10",
                   "--grid-step", "1/2") == EXIT_USAGE
    capsys.readouterr()


def test_verify_passes(capsys):
    assert run_cli("verify", "--doors-max", "5", "--seed", "3") == EXIT_OK
    out = capsys.readouterr().out
    assert "analytic checks passed" in out
    assert "placement checks passed" in out


def test_verify_walks_each_tree_once(monkeypatch, capsys):
    walk = montyhall.oracle._raw_trajectories
    walks = []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(montyhall.oracle, "_raw_trajectories", counted)
    outputs = []
    # A second call in the same process must walk as much as the first.
    for _ in range(2):
        walks.clear()
        argv = ("verify", "--doors-max", "5", "--placement-checks", "3")
        assert run_cli(*argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
        # one walk per (variant, n) tree, whatever p; one per placement check
        assert len(walks) == 2 * 3 + 3
    assert "252 analytic checks passed, 3 placement checks passed" in outputs[0]
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "variant, doors, rows",
    [
        (
            "leave-two",
            "10",
            [
                "0,0.1018,0.1,0.00546415910316,0.0212132034356",
                "0.25,0.2991,0.3,0.00834664089983,0.032403703492",
                "0.5,0.49485,0.5,0.00910693183859,0.0353553390593",
                "0.75,0.70205,0.7,0.00834664089983,0.032403703492",
                "1,0.90045,0.9,0.00546415910316,0.0212132034356",
            ],
        ),
        (
            "open-one",
            "5",
            [
                "0,0.2023,0.2,0.00728554547087,0.0282842712475",
                "0.25,0.2171,0.216666666667,0.00750363043913,0.0291309304882",
                "0.5,0.23175,0.233333333333,0.0077036007193,0.0299072640749",
                "0.75,0.2438,0.25,0.00788683432275,0.0306186217848",
                "1,0.26665,0.266666666667,0.00805447357332,0.0312694383988",
            ],
        ),
    ],
)
def test_sweep_csv_is_pinned_across_versions(capsys, variant, doors, rows):
    # Stream v4's output, recorded once.  A silent change to the draws (a
    # lane width, a threshold, the column order or the redraw rule) moves
    # the empirical column, which run-to-run comparisons cannot see.
    # The "# rng=" line carries the numpy version, so it is left out.
    assert run_cli("sweep", "--variant", variant, "--doors", doors,
                   "--grid-step", "1/4", "--trials", "20000",
                   "--chunk-size", "4096", "--seed", "2020") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("# rng=")] == [
        "# seed=2020",
        f"# variant={variant}",
        f"# doors={doors}",
        "# trials=20000",
        "# epsilon=0.01",
        "# delta=0.01",
        "# chunk_size=4096",
        "# grid_step=1/4",
        CSV_COLUMNS,
        *rows,
    ]


_RNG_LINE = montyhall.simulate.RNG_ALGORITHM


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            "analytic --variant leave-two --doors 5 --switch-prob 1/3",
            [
                "variant=leave-two doors=5 switch_prob=1/3",
                "P(win | switch)                           4/5  (0.8)",
                "P(win | stay)                             1/5  (0.2)",
                "P(win)                                    2/5  (0.4)",
                "intercept                                 1/5  (0.2)",
                "slope                                     3/5  (0.6)",
                "P(correct pick, switch, win)                0  (0)",
                "P(correct pick, switch, lose)            1/15  (0.0666666666667)",
                "P(correct pick, stay, win)               2/15  (0.133333333333)",
                "P(correct pick, stay, lose)                 0  (0)",
                "P(wrong pick, switch, win)               4/15  (0.266666666667)",
                "P(wrong pick, switch, lose)                 0  (0)",
                "P(wrong pick, stay, win)                    0  (0)",
                "P(wrong pick, stay, lose)                8/15  (0.533333333333)",
            ],
        ),
        (
            "analytic --variant leave-two --doors 5 --switch-prob 1/3 --format csv",
            [
                "quantity,exact,decimal",
                "P(win | switch),4/5,0.8",
                "P(win | stay),1/5,0.2",
                "P(win),2/5,0.4",
                "intercept,1/5,0.2",
                "slope,3/5,0.6",
                "P(correct pick, switch, win),0,0",
                "P(correct pick, switch, lose),1/15,0.0666666666667",
                "P(correct pick, stay, win),2/15,0.133333333333",
                "P(correct pick, stay, lose),0,0",
                "P(wrong pick, switch, win),4/15,0.266666666667",
                "P(wrong pick, switch, lose),0,0",
                "P(wrong pick, stay, win),0,0",
                "P(wrong pick, stay, lose),8/15,0.533333333333",
            ],
        ),
        (
            "analytic --variant open-one --doors 7 --switch-prob 0.35",
            [
                "variant=open-one doors=7 switch_prob=7/20",
                "P(win | switch)                          6/35  (0.171428571429)",
                "P(win | stay)                             1/7  (0.142857142857)",
                "P(win)                                107/700  (0.152857142857)",
                "intercept                                 1/7  (0.142857142857)",
                "slope                                    1/35  (0.0285714285714)",
                "P(correct pick, switch, win)                0  (0)",
                "P(correct pick, switch, lose)            1/20  (0.05)",
                "P(correct pick, stay, win)             13/140  (0.0928571428571)",
                "P(correct pick, stay, lose)                 0  (0)",
                "P(wrong pick, switch, win)               3/50  (0.06)",
                "P(wrong pick, switch, lose)              6/25  (0.24)",
                "P(wrong pick, stay, win)                    0  (0)",
                "P(wrong pick, stay, lose)               39/70  (0.557142857143)",
            ],
        ),
        (
            "analytic --variant open-one --doors 7 --switch-prob 0.35 --format csv",
            [
                "quantity,exact,decimal",
                "P(win | switch),6/35,0.171428571429",
                "P(win | stay),1/7,0.142857142857",
                "P(win),107/700,0.152857142857",
                "intercept,1/7,0.142857142857",
                "slope,1/35,0.0285714285714",
                "P(correct pick, switch, win),0,0",
                "P(correct pick, switch, lose),1/20,0.05",
                "P(correct pick, stay, win),13/140,0.0928571428571",
                "P(correct pick, stay, lose),0,0",
                "P(wrong pick, switch, win),3/50,0.06",
                "P(wrong pick, switch, lose),6/25,0.24",
                "P(wrong pick, stay, win),0,0",
                "P(wrong pick, stay, lose),39/70,0.557142857143",
            ],
        ),
        (
            "plan --at worst-case --method clt --epsilon 0.02 --delta 0.05",
            [
                "method      clt",
                "p_win       0.5 (worst-case)",
                "variance    0.25",
                "epsilon     0.02",
                "delta       0.05",
                "z_x         1.95996398454 (x = 1 - delta/2)",
                "l0          2401",
            ],
        ),
        (
            "plan --at worst-case --method chebyshev --epsilon 0.02 --delta 0.05",
            [
                "method      chebyshev",
                "p_win       0.5 (worst-case)",
                "variance    0.25",
                "epsilon     0.02",
                "delta       0.05",
                "l0          12500",
            ],
        ),
        (
            "plan --at analytic --variant open-one --doors 7 --switch-prob 0.35 "
            "--method clt --epsilon 0.02 --delta 0.05",
            [
                "method      clt",
                "p_win       0.152857142857 (analytic(open-one, doors=7, switch_prob=7/20))",
                "variance    0.129491836735",
                "epsilon     0.02",
                "delta       0.05",
                "z_x         1.95996398454 (x = 1 - delta/2)",
                "l0          1244",
            ],
        ),
        (
            "plan --at analytic --variant leave-two --doors 10 --switch-prob 1/3 "
            "--method chebyshev --epsilon 0.02 --delta 0.05",
            [
                "method      chebyshev",
                "p_win       0.366666666667 (analytic(leave-two, doors=10, switch_prob=1/3))",
                "variance    0.232222222222",
                "epsilon     0.02",
                "delta       0.05",
                "l0          11612",
            ],
        ),
        (
            "simulate --variant open-one --doors 7 --switch-prob 0.35 --trials 5000 "
            "--seed 11 --chunk-size 1024",
            [
                "variant      open-one",
                "doors        7",
                "switch_prob  7/20",
                "trials       5000",
                "seed         11",
                "chunk_size   1024",
                f"rng          {_RNG_LINE}",
                "wins         779",
                "empirical    0.1558",
                "std_error    0.00512886654145",
                "analytic     107/700 = 0.152857142857",
                "abs_error    0.00294285714286",
            ],
        ),
        (
            "simulate --variant leave-two --doors 4 --switch-prob 2/3 --trials 5000 "
            "--seed 11 --format csv",
            [
                "quantity,value",
                "variant,leave-two",
                "doors,4",
                "switch_prob,2/3",
                "trials,5000",
                "seed,11",
                "chunk_size,65536",
                f"rng,{_RNG_LINE}",
                "wins,2949",
                "empirical,0.5898",
                "std_error,0.00695609028119",
                "analytic,7/12 = 0.583333333333",
                "abs_error,0.00646666666667",
            ],
        ),
        ("analytic --doors 2", ["error: doors must be >= 3 and an integer, got 2"]),
        (
            "analytic --switch-prob 3/2",
            ["error: probability must be in [0, 1], got Fraction(3, 2)"],
        ),
        ("plan --switch-prob abc", ["error: not a rational probability: 'abc'"]),
        ("plan --epsilon 0", ["error: epsilon must be finite and > 0, got 0.0"]),
        ("sweep --delta 1 --trials 10", ["error: delta must be in (0, 1), got 1.0"]),
        (
            "sweep --delta 5e-324 --trials 10",
            ["error: delta must be at least 1e-323 for the CLT, got 5e-324"],
        ),
        (
            "sweep --variant open-one --doors 5 --trials 2000 --grid-step 1/4 --seed 3 "
            "--chunk-size 512",
            [
                "# seed=3",
                f"# rng={_RNG_LINE}",
                "# variant=open-one",
                "# doors=5",
                "# trials=2000",
                "# epsilon=0.01",
                "# delta=0.01",
                "# chunk_size=512",
                "# grid_step=1/4",
                "p,empirical,analytic,clt_halfwidth,chebyshev_halfwidth",
                "0,0.1945,0.2,0.0230389176847,0.0894427191",
                "0.25,0.213,0.216666666667,0.0237285629078,0.0921200907029",
                "0.5,0.2355,0.233333333333,0.0243609244575,0.0945750730607",
                "0.75,0.234,0.25,0.0249403599883,0.0968245836552",
                "1,0.261,0.266666666667,0.0254704818453,0.0988826464946",
            ],
        ),
        (
            "sweep --variant leave-two --doors 6 --trials 3000 --grid-step 1/5 --seed 9 "
            "--format table --epsilon 0.02 --delta 0.05",
            [
                "sweep: variant=leave-two doors=6 trials=3000 seed=9 epsilon=0.02 delta=0.05",
                "     p    empirical       analytic     clt_hw    cheb_hw",
                "     0     0.174000 0.166666666667   0.013336   0.030429",
                "   0.2     0.301000            0.3   0.016398   0.037417",
                "   0.4     0.435667 0.433333333333   0.017732   0.040460",
                "   0.6     0.571333 0.566666666667   0.017732   0.040460",
                "   0.8     0.697333            0.7   0.016398   0.037417",
                "     1     0.831000 0.833333333333   0.013336   0.030429",
            ],
        ),
        (
            "verify --doors-max 5 --placement-checks 3",
            ["252 analytic checks passed, 3 placement checks passed"],
        ),
        # From 10**12 up a value is written in exponent form, not as a
        # digit string of its whole binary expansion.
        (
            "sweep --trials 10 --grid-step 1/3 --delta 1e-320",
            [
                "# seed=0",
                f"# rng={_RNG_LINE}",
                "# variant=leave-two",
                "# doors=3",
                "# trials=10",
                "# epsilon=0.01",
                "# delta=1e-320",
                "# chunk_size=65536",
                "# grid_step=1/3",
                "p,empirical,analytic,clt_halfwidth,chebyshev_halfwidth",
                "0,0.2,0.333333333333,5.70752194657,1.49072028298e+159",
                "0.333333333333,0.5,0.444444444444,6.01625638219,1.57135714948e+159",
                "0.666666666667,0.5,0.555555555556,6.01625638219,1.57135714948e+159",
                "1,0.8,0.666666666667,5.70752194657,1.49072028298e+159",
            ],
        ),
        (
            "sweep --trials 10 --grid-step 1/3 --delta 1e-320 --format table",
            [
                "sweep: variant=leave-two doors=3 trials=10 seed=0 epsilon=0.01 delta=1e-320",
                "     p    empirical       analytic     clt_hw    cheb_hw",
                "     0     0.200000 0.333333333333   5.707522 1.490720e+159",
                "0.333333333333     0.500000 0.444444444444   6.016256 1.571357e+159",
                "0.666666666667     0.500000 0.555555555556   6.016256 1.571357e+159",
                "     1     0.800000 0.666666666667   5.707522 1.490720e+159",
            ],
        ),
    ],
)
def test_outputs_are_pinned_across_versions(capsys, argv, lines):
    # Whole outputs, recorded once: a usage error prints only its one
    # "error:" line on stderr, and a run prints only to stdout.
    failed = lines[0].startswith("error: ")
    assert run_cli(*argv.split()) == (EXIT_USAGE if failed else EXIT_OK)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ([] if failed else lines)
    assert captured.err.splitlines() == (lines if failed else [])


def test_verify_placement_checks_compare_the_whole_partition(monkeypatch, capsys):
    walk = montyhall.oracle._conditional_cells

    def skewed(k, cars):
        # Move mass between two cells with the same "initial pick correct"
        # flag, which leaves P(initial pick correct) at 1/n.
        cells = walk(k, cars)
        if cars == montyhall.oracle.CarDistribution.uniform(len(cars)):
            return cells
        cells = dict(cells)
        cells[False, True, True] -= F(1, 100)
        cells[False, True, False] += F(1, 100)
        return cells

    monkeypatch.setattr(montyhall.oracle, "_conditional_cells", skewed)
    assert run_cli("verify", "--doors-max", "4", "--placement-checks", "2") == (
        EXIT_VERIFY_FAILED
    )
    out = capsys.readouterr().out
    assert out.startswith("2 of 170 checks FAILED:")
    assert out.count("placement") == 2


def _fault_the_four_door_open_one_tree(monkeypatch):
    walk = montyhall.oracle._conditional_cells

    def faulty(k, cars):
        # Move mass between two switch cells of the 4-door k = 1 tree only;
        # both are lose cells, so P(win) stays exact at every p.
        cells = dict(walk(k, cars))
        if k == 1 and len(cars) == 4:
            cells[True, True, False] -= F(1, 100)
            cells[False, True, False] += F(1, 100)
        return cells

    monkeypatch.setattr(montyhall.oracle, "_conditional_cells", faulty)


def test_verify_catches_a_fault_in_the_walked_tree(monkeypatch, capsys):
    _fault_the_four_door_open_one_tree(monkeypatch)
    assert run_cli("verify", "--doors-max", "4", "--placement-checks", "0") == (
        EXIT_VERIFY_FAILED
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "20 of 168 checks FAILED:"
    assert lines[1:] == [
        f"  partition mismatch at (open-one, n=4, p={F(i, 20)})" for i in range(1, 21)
    ]


def test_verify_weighs_the_tables_only_when_they_differ(monkeypatch, capsys):
    # Both tables are free of p: equal once, they are equal at every p.
    weigh = montyhall.oracle._weigh_switch
    weighed = []

    def counted(cells, p):
        weighed.append(p)
        return weigh(cells, p)

    monkeypatch.setattr(montyhall.oracle, "_weigh_switch", counted)
    assert run_cli("verify", "--doors-max", "5") == EXIT_OK
    assert weighed == []
    capsys.readouterr()
    _fault_the_four_door_open_one_tree(monkeypatch)
    assert run_cli("verify", "--doors-max", "5") == EXIT_VERIFY_FAILED
    assert len(weighed) == 2 * 21  # both tables of the faulted tree, at every p
    assert capsys.readouterr().out.startswith("20 of ")


def test_verify_minimal_doors(capsys):
    assert run_cli("verify", "--doors-max", "3") == EXIT_OK
    capsys.readouterr()


def test_verify_detects_corrupted_formula(monkeypatch, capsys):
    def wrong_marginal(variant, n, p):
        return F(1, 2)

    monkeypatch.setattr(montyhall.analytic, "win_marginal", wrong_marginal)
    assert run_cli("verify", "--doors-max", "4") == EXIT_VERIFY_FAILED
    assert "mismatch" in capsys.readouterr().out
