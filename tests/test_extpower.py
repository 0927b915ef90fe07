"""Quadratic extended power on cells and sums, periodicity, and the closure
family membership checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motalg.bigraded import GM, S0, S1, T, BiDegree, TateSum
from motalg.extpower import (
    S_CONDITIONS,
    OutOfFormulaRange,
    SMembershipViolation,
    d2_cell,
    d2_sum,
    s_cells,
    s_closure_check,
    s_member,
    suspension_relation_check,
    thom_check,
)

# The three expansions with every cell listed up to shift 12.  The sphere
# pattern is (2n, n), (2n+1, n+1); the circle pattern is (2n, n), (2n+1, n);
# the twist expansion is the sphere pattern translated by (4, 2).
SPHERE_12 = [
    (0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3),
    (7, 4), (8, 4), (9, 5), (10, 5), (11, 6), (12, 6),
]
CIRCLE_12 = [
    (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3),
    (8, 4), (9, 4), (10, 5), (11, 5), (12, 6),
]
TWIST_12 = [
    (4, 2), (5, 3), (6, 3), (7, 4), (8, 4), (9, 5), (10, 5), (11, 6), (12, 6),
]


def in_range_cells(max_abs_p=10, extra_w=5):
    return [
        BiDegree(p, w)
        for p in range(-max_abs_p, max_abs_p + 1)
        for w in range((p - 1 + 1) // 2, (p - 1 + 1) // 2 + extra_w + 1)
        if 2 * w - p >= -1
    ]


# ---------------------------------------------------------------------------
# d2_cell

@pytest.mark.parametrize(
    "seed,expected",
    [(S0, SPHERE_12), (S1, CIRCLE_12), (T, TWIST_12)],
    ids=["sphere", "circle", "twist"],
)
def test_printed_expansions_up_to_shift_12(seed, expected):
    assert d2_cell(seed, 12) == TateSum.of(*expected, trunc=12)


def test_twist_expansion_is_translated_sphere_expansion():
    assert d2_cell(T, 12) == d2_cell(S0, 8).shift((4, 2))


def d2_formula_cells(d, trunc):
    """The cells of the docstring formula for D_2(d) as plain pairs, with
    enough of the tail to pass shift trunc."""
    p, w = d
    base = p + 2 * w
    cells = [(base - j, 2 * w) for j in range(2 * w - p + 1)]
    cells.append((base + 1, 2 * w + 1))
    for n in range(1, max(trunc - base, 0) // 2 + 2):
        cells += [(base + 2 * n, 2 * w + n), (base + 2 * n + 1, 2 * w + n + 1)]
    return cells


@st.composite
def in_range_cell(draw):
    p = draw(st.integers(-2, 10))
    return BiDegree(p, draw(st.integers(p // 2, p // 2 + 4)))


@settings(max_examples=80, deadline=None)
@given(in_range_cell(), st.integers(-6, 40),
       st.tuples(st.integers(-4, 6), st.integers(-4, 6)))
def test_d2_cell_equals_validated_construction(d, trunc, e):
    # d2_cell and shift build their sums without revalidating the cells;
    # the validating constructor on the same cells must agree, in order too.
    cells = d2_formula_cells(d, trunc)
    got, want = d2_cell(d, trunc), TateSum(cells, trunc)
    assert got == want and list(got) == list(want)
    assert all(type(c) is BiDegree for c in got.cells)
    shifted = got.shift(e)
    want = TateSum([(p + e[0], w + e[1]) for p, w in cells], trunc + e[0])
    assert shifted == want and list(shifted) == list(want)
    assert all(type(c) is BiDegree for c in shifted.cells)


def test_out_of_formula_range():
    with pytest.raises(OutOfFormulaRange):
        d2_cell(BiDegree(2, 0), 12)
    d2_cell(BiDegree(1, 0), 12)
    d2_cell(BiDegree(3, 1), 12)


def test_min_shift_doubles_exhaustively():
    for d in in_range_cells():
        cells = d2_cell(d, 2 * d.p + 6).cells
        assert min(c.p for c in cells) == 2 * d.p, d


def test_d2_cell_multiplicities_are_all_one():
    for d in in_range_cells():
        assert set(d2_cell(d, 2 * d.p + 12).cells.values()) <= {1}, d


def test_d2_cell_respects_truncation():
    full = d2_cell(S1, 30)
    assert d2_cell(S1, 12) == full.retrunc(12)


# ---------------------------------------------------------------------------
# d2_sum and the copy rule

def test_copy_rule_two_copies():
    two = d2_sum({T: 2}, 12)
    diag = d2_cell(T, 12)
    assert two == diag + diag + TateSum({BiDegree(4, 2): 1}, 12)


def test_copy_rule_triple_copies():
    three = d2_sum({S1: 3}, 12)
    diag = d2_cell(S1, 12)
    assert three == diag + diag + diag + TateSum({BiDegree(2, 0): 3}, 12)


def test_cross_terms_are_pairwise_products():
    mixed = d2_sum([S1, T], 12)
    assert mixed == d2_cell(S1, 12) + d2_cell(T, 12) + TateSum(
        {BiDegree(3, 1): 1}, 12
    )


def test_dict_input_multiplicities_are_kept():
    assert d2_sum({BiDegree(1, 0): 2}, 10) == d2_sum([(1, 0), (1, 0)], 10)
    assert d2_sum({(1, 0): 2}, 10) == d2_sum([(1, 0), (1, 0)], 10)


def test_tate_sum_input_equals_pair_list_input():
    ts = TateSum({S1: 2, T: 1}, 10)
    assert d2_sum(ts, 10) == d2_sum({S1: 2, T: 1}, 10)


def test_iterated_expansion_frozen_table():
    # Second quadratic power of the circle, truncated at shift 8, expanded
    # by hand from the copy rule (diagonal terms of each first-layer cell
    # plus all unordered cross pairs).
    second = d2_sum(d2_cell(S1, 8), 8)
    assert second == TateSum(
        {
            BiDegree(4, 2): 1,
            BiDegree(5, 2): 1,
            BiDegree(5, 3): 1,
            BiDegree(6, 3): 3,
            BiDegree(7, 3): 3,
            BiDegree(7, 4): 1,
            BiDegree(8, 3): 1,
            BiDegree(8, 4): 4,
        },
        8,
    )


@st.composite
def cell_multisets(draw):
    n = draw(st.integers(1, 8))
    acc = {}
    for _ in range(n):
        p = draw(st.integers(-2, 8))
        w = draw(st.integers((p - 1 + 1) // 2, (p - 1 + 1) // 2 + 4))
        if 2 * w - p < -1:
            continue
        acc[BiDegree(p, w)] = draw(st.integers(1, 3))
    if not acc:
        acc[S1] = 1
    return acc


@settings(max_examples=60, deadline=None)
@given(cell_multisets(), cell_multisets())
def test_cross_effect_identity(a, b):
    # Quadratic power of a disjoint union against the binary identity;
    # exact as truncated multisets, and in particular as star series.
    combined = dict(a)
    for c, m in b.items():
        combined[c] = combined.get(c, 0) + m
    lhs = d2_sum(combined, 30).series("2/3")
    cross = {}
    for c1, m1 in a.items():
        for c2, m2 in b.items():
            c = c1 + c2
            if c.p <= 30:
                cross[c] = cross.get(c, 0) + m1 * m2
    rhs_sum = d2_sum(a, 30) + d2_sum(b, 30) + TateSum(cross, 30)
    assert lhs == rhs_sum.series("2/3")
    assert d2_sum(combined, 30) == rhs_sum


# ---------------------------------------------------------------------------
# periodicity and suspension

def test_thom_periodicity_window():
    for d in in_range_cells(max_abs_p=6, extra_w=3):
        for e in range(3):
            assert thom_check(d, e, 30), (d, e)


def test_thom_rejects_negative_e():
    with pytest.raises(ValueError):
        thom_check(S1, -1, 20)


def test_suspension_relation_window():
    for j in range(-6, 1):
        assert suspension_relation_check(j, 30), j


def test_suspension_relation_rejects_positive_j():
    with pytest.raises(ValueError):
        suspension_relation_check(1, 20)


# ---------------------------------------------------------------------------
# membership and closure

def test_membership_reason_codes_in_order():
    assert s_member(T, "2/3").ok
    assert s_member((1, -1), "2/3").failed == "shift_range"
    assert s_member((-1, 0), "2/3").failed == "positive_cell"
    assert s_member((5, 3), "5/9").failed == "below_line"
    assert set(S_CONDITIONS) == {
        "shift_range", "positive_cell", "below_line", "weight_positive"
    }
    assert s_member(S1, "2/3").ok  # w = 0 allowed on p = 2w + 1


def test_weight_condition_is_subsumed_by_the_first_two():
    # shift_range and positive_cell force w = 0 => p = 1 = 2w + 1, so the
    # fourth condition never fires first; it stays listed for completeness.
    for p in range(-6, 7):
        for w in range(-6, 7):
            for q in ("1/3", "2/3", "5/9"):
                assert s_member((p, w), q).failed != "weight_positive"


def test_closure_holds_on_family_sample():
    for d in s_cells("2/3", 12):
        rep = s_closure_check(d, "2/3", 30)
        assert rep.ok and not rep.violations, d


def test_closure_first_violation_at_shallow_slope():
    rep = s_closure_check(T, "5/9", 30)
    assert not rep.ok
    assert rep.violations[0] == (BiDegree(5, 3), "below_line")
    assert rep.to_dict()["violations"][0] == {"p": 5, "w": 3, "failed": "below_line"}


def test_closure_rejects_seed_outside_family():
    with pytest.raises(SMembershipViolation) as exc:
        s_closure_check((1, 1), "2/3", 20)
    assert exc.value.cell == (1, 1) and exc.value.reason == "below_line"


def test_family_enumeration_is_sound():
    cells = list(s_cells("2/3", 12))
    assert T in cells and S1 in cells
    assert all(s_member(c, "2/3").ok for c in cells)
    assert all(c.p <= 12 for c in cells)
