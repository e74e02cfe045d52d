"""Command-line surface: flags, exit codes, CSV contract, reproducibility."""

from fractions import Fraction

import numpy as np
import pytest

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

    monkeypatch.setattr(montyhall.simulate, "_chunk_wins", no_chunk)
    assert run_cli(*argv, "--doors", str(2**63)) == EXIT_USAGE
    assert "doors must be" in capsys.readouterr().err


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
        "# rng=Philox4x64-10 (numpy.random.Philox); numpy "
        f"{np.__version__}; stream=v3; "
        "key=SeedSequence(seed).generate_state(2, uint64); "
        "counter=(0, 0, grid_index, chunk_index); "
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
    from montyhall.analytic import GameParams, GameVariant, win_marginal

    for k, row in enumerate(rows):
        exact = win_marginal(GameVariant.LEAVE_TWO_CLOSED, GameParams(3, F(k, 20)))
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
        ("--trials", "10", "--delta", "1e-300"),
    ],
)
def test_sweep_rejects_bad_plan_inputs_before_simulating(
    flags, tmp_path, monkeypatch, capsys
):
    def no_chunk(*args, **kwargs):
        raise AssertionError("simulated before the inputs were checked")

    monkeypatch.setattr(montyhall.simulate, "_chunk_wins", no_chunk)
    path = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--doors", "3", "--out", str(path), *flags) == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()
    assert not path.exists()


def test_sweep_table_format(capsys):
    assert run_cli("sweep", "--doors", "3", "--trials", "2000", "--seed", "1",
                   "--grid-step", "1/2", "--format", "table") == EXIT_OK
    out = capsys.readouterr().out
    assert "empirical" in out and "analytic" in out


def test_sweep_stdout_default(capsys):
    assert run_cli("sweep", "--doors", "3", "--trials", "1000", "--seed", "1",
                   "--grid-step", "1/2") == EXIT_OK
    out = capsys.readouterr().out
    assert CSV_COLUMNS in out


def test_sweep_unwritable_path_exits_3(tmp_path, capsys):
    missing = tmp_path / "not" / "a" / "directory" / "x.csv"
    assert run_cli(*_sweep_args(missing)) == EXIT_IO
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
    assert run_cli("verify", "--doors-max", "5", "--placement-checks", "3") == EXIT_OK
    assert "252 analytic checks passed, 3 placement checks passed" in (
        capsys.readouterr().out
    )
    # one walk per (k, n) tree, whatever p, where the variants share the
    # n = 3 tree; one per placement check
    assert len(walks) == 2 * 3 - 1 + 3


@pytest.mark.parametrize(
    "variant, doors, rows",
    [
        (
            "leave-two",
            "10",
            [
                "0,0.09945,0.1,0.00546415910316,0.0212132034356",
                "0.25,0.2958,0.3,0.00834664089983,0.032403703492",
                "0.5,0.50275,0.5,0.00910693183859,0.0353553390593",
                "0.75,0.70105,0.7,0.00834664089983,0.032403703492",
                "1,0.89935,0.9,0.00546415910316,0.0212132034356",
            ],
        ),
        (
            "open-one",
            "5",
            [
                "0,0.19645,0.2,0.00728554547087,0.0282842712475",
                "0.25,0.2158,0.216666666667,0.00750363043913,0.0291309304882",
                "0.5,0.2361,0.233333333333,0.0077036007193,0.0299072640749",
                "0.75,0.2496,0.25,0.00788683432275,0.0306186217848",
                "1,0.26935,0.266666666667,0.00805447357332,0.0312694383988",
            ],
        ),
    ],
)
def test_sweep_csv_is_pinned_across_versions(capsys, variant, doors, rows):
    # Stream v3's output, recorded once.  A silent change to the draws (a
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


def test_verify_placement_checks_compare_the_whole_partition(monkeypatch, capsys):
    exact = montyhall.oracle.exact_partition

    def skewed(variant, params, cars):
        # Move mass between two cells with the same "initial pick correct"
        # flag, which leaves P(initial pick correct) at 1/n.
        part = exact(variant, params, cars)
        if cars == montyhall.oracle.CarDistribution.uniform(params.n):
            return part
        cells = dict(part.cells)
        cells[False, True, True] -= F(1, 100)
        cells[False, True, False] += F(1, 100)
        return montyhall.analytic.PartitionProbabilities(cells)

    monkeypatch.setattr(montyhall.oracle, "exact_partition", skewed)
    assert run_cli("verify", "--doors-max", "4", "--placement-checks", "2") == (
        EXIT_VERIFY_FAILED
    )
    out = capsys.readouterr().out
    assert out.startswith("2 of 170 checks FAILED:")
    assert out.count("placement") == 2


def test_verify_catches_a_fault_in_the_walked_tree(monkeypatch, capsys):
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
    assert run_cli("verify", "--doors-max", "4", "--placement-checks", "0") == (
        EXIT_VERIFY_FAILED
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "20 of 168 checks FAILED:"
    assert lines[1:] == [
        f"  partition mismatch at (open-one, n=4, p={F(i, 20)})" for i in range(1, 21)
    ]


def test_verify_minimal_doors(capsys):
    assert run_cli("verify", "--doors-max", "3") == EXIT_OK
    capsys.readouterr()


def test_verify_detects_corrupted_formula(monkeypatch, capsys):
    def wrong_marginal(variant, params):
        return F(1, 2)

    monkeypatch.setattr(montyhall.analytic, "win_marginal", wrong_marginal)
    assert run_cli("verify", "--doors-max", "4") == EXIT_VERIFY_FAILED
    assert "mismatch" in capsys.readouterr().out
