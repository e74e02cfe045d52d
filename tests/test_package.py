"""Package surface: the top-level namespace re-exports the four layers."""

import montyhall
from montyhall import analytic, oracle, planner, simulate


def test_all_is_the_union_of_the_layers():
    layers = (analytic, oracle, planner, simulate)
    expected = set().union(*(layer.__all__ for layer in layers)) | {"__version__"}
    assert set(montyhall.__all__) == expected
    for name in montyhall.__all__:
        assert getattr(montyhall, name) is not None


def test_removed_wrappers_are_gone():
    for name in ("run_trial", "TrialOutcome"):
        assert not hasattr(montyhall, name)
        assert not hasattr(simulate, name)
