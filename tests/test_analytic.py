"""Closed-form probabilities: frozen values and exact algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from montyhall.analytic import (
    CELL_ORDER,
    GameVariant,
    PartitionProbabilities,
    as_probability,
    linear_coefficients,
    partition_probabilities,
    win_given_stay,
    win_given_switch,
    win_marginal,
)

LEAVE_TWO = GameVariant.LEAVE_TWO_CLOSED
OPEN_ONE = GameVariant.OPEN_ONE

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=60)
door_counts = st.integers(min_value=3, max_value=40)
variants = st.sampled_from([LEAVE_TWO, OPEN_ONE])


@pytest.mark.parametrize(
    "variant, n, expected",
    [
        (LEAVE_TWO, 3, Fraction(2, 3)),  # the classic answer
        (OPEN_ONE, 3, Fraction(2, 3)),  # strategies coincide at three doors
        (OPEN_ONE, 4, Fraction(3, 8)),
        (LEAVE_TWO, 10, Fraction(9, 10)),
    ],
)
def test_win_given_switch_values(variant, n, expected):
    assert win_given_switch(variant, n) == expected


@pytest.mark.parametrize(
    "variant, n, expected",
    [
        (LEAVE_TWO, 3, Fraction(1, 3)),
        (OPEN_ONE, 5, Fraction(1, 5)),
        (LEAVE_TWO, 10**6, Fraction(1, 10**6)),
    ],
)
def test_win_given_stay_values(variant, n, expected):
    assert win_given_stay(variant, n) == expected


@pytest.mark.parametrize(
    "variant, n, p, expected",
    [
        (LEAVE_TWO, 3, Fraction(1, 2), Fraction(1, 2)),
        (LEAVE_TWO, 3, Fraction(0), Fraction(1, 3)),
        (OPEN_ONE, 4, Fraction(1), Fraction(3, 8)),
        (LEAVE_TWO, 5, Fraction(1), Fraction(4, 5)),
    ],
)
def test_win_marginal_values(variant, n, p, expected):
    assert win_marginal(variant, n, p) == expected


def test_win_marginal_at_one_equals_switch_conditional():
    assert win_marginal(LEAVE_TWO, 5, Fraction(1)) == win_given_switch(
        LEAVE_TWO, 5
    )


@pytest.mark.parametrize(
    "variant, n, expected",
    [
        (LEAVE_TWO, 3, (Fraction(1, 3), Fraction(1, 3))),
        (LEAVE_TWO, 10, (Fraction(1, 10), Fraction(8, 10))),
        (OPEN_ONE, 15, (Fraction(1, 15), Fraction(1, 195))),
    ],
)
def test_linear_coefficients_values(variant, n, expected):
    assert linear_coefficients(variant, n) == expected


def test_partition_classic_half():
    part = partition_probabilities(LEAVE_TWO, 3, Fraction(1, 2))
    assert part[(True, True, True)] == 0
    assert part[(True, True, False)] == Fraction(1, 6)
    assert part[(False, True, True)] == Fraction(1, 3)
    assert part[(False, False, False)] == Fraction(1, 3)
    assert part[(True, False, True)] == Fraction(1, 6)
    assert part[(True, False, False)] == 0
    assert part[(False, True, False)] == 0
    assert part[(False, False, True)] == 0


@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", [3, 4, 7])
def test_partition_never_switching_kills_switch_cells(variant, n):
    part = partition_probabilities(variant, n, Fraction(0))
    for cell, value in part.cells.items():
        if cell[1]:  # switched
            assert value == 0


def test_partition_open_one_switch_win_cell():
    part = partition_probabilities(OPEN_ONE, 5, Fraction(1))
    assert part[(False, True, True)] == Fraction(4, 5) * Fraction(1, 3)


@pytest.mark.parametrize(
    "op", [win_given_switch, win_given_stay, linear_coefficients]
)
@pytest.mark.parametrize("variant", [LEAVE_TWO, OPEN_ONE])
@pytest.mark.parametrize("n", [-1, 0, 2])
def test_small_door_counts_rejected(op, variant, n):
    with pytest.raises(ValueError):
        op(variant, n)


def test_invalid_params_rejected():
    for op in (win_marginal, partition_probabilities):
        for n, p in ((2, Fraction(1, 2)), (3, Fraction(3, 2)), (3, Fraction(-1, 2))):
            with pytest.raises(ValueError):
                op(LEAVE_TWO, n, p)
    with pytest.raises(ValueError):
        win_marginal("leave-two", 5, Fraction(1))
    with pytest.raises(ValueError):
        partition_probabilities("leave-two", 5, Fraction(1))
    with pytest.raises(ValueError):
        win_given_stay("leave-two", 3)


def test_as_probability_parses_exactly():
    assert as_probability("0.05") == Fraction(1, 20)
    assert as_probability("1/3") == Fraction(1, 3)
    assert as_probability(1) == Fraction(1)
    with pytest.raises(ValueError):
        as_probability("3/2")
    with pytest.raises(ValueError):
        as_probability("goat")


@given(p=st.fractions(min_value=0, max_value=1))
def test_as_probability_returns_a_fraction_as_it_is(p):
    assert as_probability(p) is p


@given(
    bad=st.one_of(
        st.fractions(max_value=Fraction(-1, 10**30)),
        st.fractions(min_value=1 + Fraction(1, 10**30)),
    )
)
def test_as_probability_rejects_a_fraction_outside_the_unit_interval(bad):
    with pytest.raises(ValueError) as caught:
        as_probability(bad, "switch probability")
    assert str(caught.value) == f"switch probability must be in [0, 1], got {bad!r}"


@given(bad=st.sampled_from(["goat", "1/0", float("nan"), float("inf"), None, [0.5]]))
def test_as_probability_rejects_a_non_rational(bad):
    with pytest.raises(ValueError) as caught:
        as_probability(bad, "p")
    assert str(caught.value) == f"not a rational p: {bad!r}"


def test_partition_type_rejects_bad_cells():
    good = partition_probabilities(LEAVE_TWO, 3, Fraction(1, 2))
    cells = dict(good.cells)
    cells[(True, True, True)] += Fraction(1, 6)  # breaks the unit sum
    with pytest.raises(ValueError):
        PartitionProbabilities(cells)
    with pytest.raises(ValueError):
        PartitionProbabilities({CELL_ORDER[0]: Fraction(1)})
    with pytest.raises(ValueError, match=r"^expected a Mapping, got None"):
        PartitionProbabilities(None)  # once a TypeError


@given(variant=variants, n=door_counts, p=probabilities)
def test_partition_sums_to_one(variant, n, p):
    part = partition_probabilities(variant, n, p)
    assert sum(part.cells.values()) == 1
    assert all(0 <= v <= 1 for v in part.cells.values())


@given(variant=variants, n=door_counts, p=probabilities)
def test_total_probability_identity(variant, n, p):
    lhs = win_marginal(variant, n, p)
    rhs = p * win_given_switch(variant, n) + (1 - p) * win_given_stay(variant, n)
    assert lhs == rhs


@given(variant=variants, n=door_counts, p=probabilities)
def test_partition_marginal_matches_closed_form(variant, n, p):
    part = partition_probabilities(variant, n, p)
    assert part.p_win == win_marginal(variant, n, p)


@given(
    variant=variants,
    n=door_counts,
    ps=st.lists(probabilities, min_size=3, max_size=3, unique=True),
)
def test_marginal_is_affine_in_switch_probability(variant, n, ps):
    p1, p2, p3 = ps
    w1, w2, w3 = (win_marginal(variant, n, p) for p in ps)
    # exact collinearity of the three (p, P(win)) points
    assert (p2 - p1) * (w3 - w1) == (p3 - p1) * (w2 - w1)


@given(variant=variants, n=door_counts, p=probabilities)
def test_profile_identities(variant, n, p):
    intercept, slope = linear_coefficients(variant, n)
    assert win_marginal(variant, n, p) == intercept + slope * p


@given(p=probabilities)
def test_variants_coincide_at_three_doors(p):
    assert win_given_switch(LEAVE_TWO, 3) == win_given_switch(OPEN_ONE, 3)
    assert win_given_stay(LEAVE_TWO, 3) == win_given_stay(OPEN_ONE, 3)
    assert win_marginal(LEAVE_TWO, 3, p) == win_marginal(OPEN_ONE, 3, p)
    assert partition_probabilities(LEAVE_TWO, 3, p) == partition_probabilities(
        OPEN_ONE, 3, p
    )


@given(n=door_counts)
def test_switching_always_beats_staying(n):
    gap = win_given_switch(LEAVE_TWO, n) - win_given_stay(LEAVE_TWO, n)
    assert gap == Fraction(n - 2, n)
    assert gap > 0
    assert win_given_switch(OPEN_ONE, n) > win_given_stay(OPEN_ONE, n)


@given(n=door_counts, p=probabilities)
def test_leave_two_marginal_approaches_switch_probability(n, p):
    # the marginal win probability tracks p itself once doors are plentiful
    assert abs(win_marginal(LEAVE_TWO, n, p) - p) <= Fraction(2, n)


@given(n=door_counts, p=probabilities)
def test_open_one_marginal_vanishes_with_many_doors(n, p):
    bound = Fraction(1, n) + Fraction(1, n * (n - 2))
    assert win_marginal(OPEN_ONE, n, p) <= bound
