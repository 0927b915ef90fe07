"""Bidegrees, star gradings, coefficient cones, truncated cell multisets."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motalg.bigraded import (
    COEFFICIENT_MODELS,
    FIELD_CLOSED,
    FIELD_REAL,
    GM,
    S0,
    S1,
    T,
    BiDegree,
    StarGrading,
    TateSum,
    has_vanishing_line,
)

bidegrees = st.builds(
    BiDegree, st.integers(-12, 12), st.integers(-12, 12)
)
slopes = st.builds(
    StarGrading, st.integers(1, 12), st.integers(1, 12)
)


def small_tate_sums(trunc=10):
    cells = st.dictionaries(
        st.builds(BiDegree, st.integers(0, 10), st.integers(-5, 8)),
        st.integers(1, 4),
        max_size=6,
    )
    return st.builds(lambda c: TateSum(c, trunc), cells)


# ---------------------------------------------------------------------------
# BiDegree

def test_bidegree_constants():
    assert T == (2, 1) and GM == (1, 1) and S1 == (1, 0) and S0 == (0, 0)


def test_bidegree_arithmetic():
    assert BiDegree(2, 1) + BiDegree(1, 1) == BiDegree(3, 2)
    assert -BiDegree(2, 1) == BiDegree(-2, -1)
    assert str(BiDegree(5, -3)) == "(5,-3)"
    assert BiDegree(1, 9) < BiDegree(2, 0)  # lex by (p, w)


# ---------------------------------------------------------------------------
# StarGrading

def test_grading_normal_form():
    assert StarGrading(6, 9) == StarGrading(2, 3)
    assert StarGrading(6, 9).slope == Fraction(2, 3)


@pytest.mark.parametrize("u,v", [(0, 1), (1, 0), (-2, 3), (2, -3)])
def test_grading_rejects_nonpositive(u, v):
    with pytest.raises(ValueError):
        StarGrading(u, v)


def test_from_slope_accepts_all_forms():
    g = StarGrading(2, 3)
    assert StarGrading.from_slope("2/3") == g
    assert StarGrading.from_slope(Fraction(2, 3)) == g
    assert StarGrading.from_slope((2, 3)) == g
    assert StarGrading.from_slope(g) is g


def test_star_values():
    g = StarGrading(2, 3)
    assert g.star(T) == 1
    assert g.star(GM) == -1
    assert g.star(S1) == 2
    assert g((5, 3)) == 1
    assert StarGrading.from_slope("5/9").star((5, 3)) == -2


@given(slopes, bidegrees, bidegrees)
def test_star_is_additive(g, d, e):
    assert g.star(d + e) == g.star(d) + g.star(e)


@given(slopes, bidegrees)
def test_star_of_negation(g, d):
    assert g.star(-d) == -g.star(d)


# ---------------------------------------------------------------------------
# CoefficientModel cones

@pytest.mark.parametrize("model", [FIELD_CLOSED, FIELD_REAL])
def test_cone_star_nonnegative_for_interior_slopes(model):
    gradings = [StarGrading(u, v) for u in range(1, 6) for v in range(1, 6)
                if u < v]
    for p in range(-12, 3):
        for w in range(-14, 3):
            if not model(p, w):
                continue
            for g in gradings:
                s = g.star((p, w))
                assert s >= 0
                assert (s == 0) == ((p, w) == (0, 0))


def test_models_registry():
    assert set(COEFFICIENT_MODELS) == {"field_closed", "field_real"}
    assert FIELD_CLOSED(0, 0) == 1 and FIELD_CLOSED(0, -3) == 1
    assert FIELD_CLOSED(-1, -1) == 0
    assert FIELD_REAL(-1, -1) == 1 and FIELD_REAL(-1, 0) == 0


# ---------------------------------------------------------------------------
# TateSum

def test_tate_sum_basics():
    a = TateSum({T: 2, S1: 1}, 10)
    assert a.mult(T) == 2 and a.mult((9, 9)) == 0
    assert a.total() == 3 and len(a) == 2
    assert bool(a) and not TateSum.zero(10)
    assert a == TateSum([S1, T, T], 10)
    assert a == TateSum([(1, 0), (2, 1), (2, 1)], 10)


def test_tate_sum_truncates_and_validates():
    assert TateSum({BiDegree(11, 0): 1}, 10) == TateSum.zero(10)
    assert TateSum({T: 0}, 10) == TateSum.zero(10)
    with pytest.raises(ValueError):
        TateSum({T: -1}, 10)


def test_tate_sum_is_immutable():
    a = TateSum({T: 1}, 10)
    with pytest.raises(AttributeError):
        a.trunc = 20


def test_add_is_multiset_union():
    a = TateSum({T: 1, S1: 2}, 10)
    b = TateSum({T: 3}, 8)
    assert a + b == TateSum({T: 4, S1: 2}, 8)


def test_tensor_is_cellwise_convolution():
    a = TateSum({S1: 1, T: 1}, 10)
    b = TateSum({GM: 2}, 10)
    assert a.tensor(b) == TateSum({BiDegree(2, 1): 2, BiDegree(3, 2): 2}, 10)


def test_tensor_rejects_negative_shift():
    a = TateSum({BiDegree(-2, 0): 1}, 10)
    with pytest.raises(ValueError):
        a.tensor(a)


def test_shift_moves_truncation():
    a = TateSum({T: 1}, 10).shift((3, 1))
    assert a == TateSum({BiDegree(5, 2): 1}, 13)


@given(small_tate_sums(), small_tate_sums(), slopes)
def test_series_of_sum_is_pointwise_sum(a, b, g):
    lhs = (a + b).series(g)
    rhs: dict[int, int] = dict(a.series(g))
    for d, c in b.series(g).items():
        rhs[d] = rhs.get(d, 0) + c
    assert lhs == dict(sorted(rhs.items()))


@given(small_tate_sums(trunc=40), small_tate_sums(trunc=40), slopes)
def test_series_of_tensor_is_convolution(a, b, g):
    # trunc 40 with supports of shift <= 10 means no product is pruned,
    # so the series identity is exact.
    lhs = a.tensor(b).series(g)
    rhs: dict[int, int] = {}
    for d1, c1 in a.series(g).items():
        for d2, c2 in b.series(g).items():
            rhs[d1 + d2] = rhs.get(d1 + d2, 0) + c1 * c2
    assert lhs == {d: c for d, c in sorted(rhs.items()) if c}


def test_records_are_sorted_and_render_is_stable():
    a = TateSum({T: 1, S1: 2}, 10)
    assert a.to_records() == [
        {"p": 1, "w": 0, "mult": 2}, {"p": 2, "w": 1, "mult": 1}
    ]
    assert a.render() == "Z/2[1](0)^2 ⊕ Z/2[2](1)^1"
    assert TateSum.zero(4).render() == "0"


# ---------------------------------------------------------------------------
# has_vanishing_line

def test_vanishing_line_positive_and_negative():
    good = TateSum({T: 1, BiDegree(5, 3): 1}, 10)
    rep = has_vanishing_line(good, "2/3")
    assert rep.ok and rep.min_star == 1 and rep.witness == (2, 1)

    bad = TateSum({GM: 1}, 10)
    rep = has_vanishing_line(bad, "2/3", FIELD_REAL)
    assert not rep.ok and rep.min_star == -1 and rep.witness == (1, 1)

    empty = has_vanishing_line(TateSum.zero(10), "2/3")
    assert empty.ok and empty.min_star is None


def test_vanishing_line_requires_interior_slope():
    a = TateSum({T: 1}, 10)
    with pytest.raises(ValueError):
        has_vanishing_line(a, "3/2")
    with pytest.raises(ValueError):
        has_vanishing_line(a, "1/1")
