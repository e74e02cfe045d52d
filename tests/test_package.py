"""Package surface: the top-level namespace re-exports the four layers, a
cold start loads only the layers that it uses, the README's quick tour runs
as written, and no module keeps an unused import."""

import ast
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import montyhall
from montyhall import analytic, cli, oracle, planner, simulate
from montyhall.planner import PlanMethod, band_halfwidth

PACKAGE = Path(montyhall.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_union_of_the_layers():
    layers = (analytic, oracle, planner, simulate)
    expected = set().union(*(layer.__all__ for layer in layers)) | {"__version__"}
    assert set(montyhall.__all__) == expected
    for name in montyhall.__all__:
        assert getattr(montyhall, name) is not None


def test_removed_wrappers_are_gone():
    removed = {"run_trial": simulate, "TrialOutcome": simulate,
               "GameParams": analytic, "PlanRequest": planner,
               "linear_coefficients": analytic, "normal_quantile": planner}
    for name, layer in removed.items():
        assert not hasattr(montyhall, name)
        assert not hasattr(layer, name)
    assert not hasattr(oracle, "_check_inputs")
    assert not hasattr(simulate, "_fan_out")
    assert "p" not in simulate.SimulationConfig.__dataclass_fields__


def test_star_import_binds_each_layers_own_objects_in_order():
    layers = (analytic, oracle, planner, simulate)
    assert montyhall.__all__ == [*(n for layer in layers for n in layer.__all__), "__version__"]
    namespace: dict = {}
    exec("from montyhall import *", namespace)
    for layer in layers:
        assert all(namespace[name] is getattr(layer, name) for name in layer.__all__)
    assert {*montyhall.__all__, "oracle", "simulate"} <= set(dir(montyhall))


def test_an_unknown_package_attribute_raises_attribute_error():
    for name in ("run_trial", "np", "_round", "__wrapped__"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(montyhall, name)


def _main(argv: list[str], status: int = 0) -> str:
    return f"from montyhall.cli import main; assert main({argv!r}) == {status}"


#: What a fresh interpreter runs, and the modules of numpy and the package
#: that it must then hold (``loaded``) and must not hold (``absent``).
COLD_STARTS = {
    "import": (
        "import montyhall",
        {"montyhall", "montyhall.analytic", "montyhall.planner"},
        {"numpy", "montyhall.oracle", "montyhall.simulate"},
    ),
    "parser": (
        "from montyhall.cli import build_parser; build_parser()",
        {"montyhall", "montyhall.analytic", "montyhall.planner", "montyhall.cli"},
        {"numpy", "montyhall.simulate", "montyhall.oracle"},
    ),
    "help": (_main(["--help"]), set(), {"numpy"}),
    "plan": (_main(["plan", "--method", "chebyshev", "--at", "analytic"]), set(), {"numpy"}),
    "analytic": (_main(["analytic", "--variant", "open-one", "--doors", "15"]), set(), {"numpy"}),
    "usage error": (_main(["sweep", "--trials", "x"], 2), set(), {"numpy"}),
    "oracle": ("import montyhall.oracle", {"montyhall.oracle"}, {"numpy"}),
    "verify": (
        _main(["verify", "--doors-max", "3"]),
        {"montyhall.oracle", "numpy"},
        {"montyhall.simulate"},
    ),
    "sweep": (
        _main(["sweep", "--trials", "100", "--grid-step", "1/2"]),
        {"montyhall.simulate", "numpy"},
        set(),
    ),
}


@pytest.mark.parametrize("code, loaded, absent", COLD_STARTS.values(), ids=COLD_STARTS)
def test_a_cold_start_loads_only_the_layers_it_uses(code, loaded, absent):
    # Module loads, not times: each case runs in a fresh interpreter.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("MONTY_SEED", None)
    probe = f"{code}\nimport sys; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.splitlines()[-1].split())
    assert loaded <= modules and not absent & modules, (loaded - modules, absent & modules)


def test_readme_quick_tour_shows_what_its_comments_say():
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = source.splitlines()
    namespace: dict = {}
    shown = []  # (trailing comment, value) of each bare expression, in order
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown.append((lines[node.end_lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    comments = [comment for comment, _ in shown]
    assert comments == ["Fraction(19, 50)", "same Fraction", "~0.38", "250000"]
    (_, marginal), (_, enumerated), (_, empirical), (_, l0) = shown
    assert marginal == enumerated == Fraction(19, 50)
    # The decimal string is exact, and the simulation keeps it exact.
    config = namespace["config"]
    assert simulate.run_batch(config, [Fraction(7, 20)])[0].empirical == empirical
    assert simulate.run_batch(config, [0.35])[0].empirical != empirical
    assert abs(empirical - 0.38) <= band_halfwidth(0.38, 250_000, 0.01, PlanMethod.CLT)
    assert l0 == 250_000


def test_readme_names_the_generator_and_stream_version_of_the_rng_line():
    text = " ".join(README.read_text(encoding="utf-8").split())
    generator = simulate.RNG_ALGORITHM.split(" ", 1)[0]
    (version,) = re.findall(r"stream=(v\d+)", simulate.RNG_ALGORITHM)
    assert f"numpy's {generator} generator" in text
    assert f"laid out as stream {version}:" in text


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 6 and all(argv[0] == "montyhall" for argv in commands)
    monkeypatch.delenv("MONTY_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # two of the lines write --out files
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
    capsys.readouterr()
    for name in ("sweep.csv", "fig.csv"):
        assert (tmp_path / name).read_text(encoding="utf-8").startswith("# seed=")


def _module_level_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_module_level_import_is_used():
    tests = Path(__file__).resolve().parent
    for path in sorted([*PACKAGE.glob("*.py"), *tests.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert _module_level_imports(tree) <= used, (path.name, _module_level_imports(tree) - used)


def test_cli_reads_no_private_name_of_another_layer():
    # The CLI goes through each layer's public surface; `verify`'s comparison
    # lives in `oracle.verify_closed_forms`.
    layers = {"analytic", "oracle", "planner", "simulate"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in layers
        and node.attr.startswith("_")
    ] + [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and node.module != "__future__"
    ]
    assert private == []


def test_layers_import_only_the_layers_below_them():
    # The closed forms stand alone; the oracle checks them and the planner
    # bounds them without the Monte Carlo layer, which sits on both.
    allowed = {
        "analytic": set(),
        "planner": {"analytic"},
        "oracle": {"analytic"},
        "simulate": {"analytic", "planner"},
    }
    for layer, below in allowed.items():
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from . import x" names modules; "from .x import y" names x.
                imported.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("montyhall."):
                imported.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                imported.update(
                    a.name.split(".")[1] for a in node.names if a.name.startswith("montyhall.")
                )
        assert imported <= below, (layer, imported - below)
