"""GF(2) bitmask linear algebra: elimination, kernels, inverses, spans."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motalg import gf2

matrices = st.lists(st.integers(0, 255), min_size=0, max_size=8)
square = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n
        ),
    )
)


def test_mat_vec_is_row_combination():
    rows = [0b011, 0b110]
    assert gf2.mat_vec(rows, 0b00) == 0
    assert gf2.mat_vec(rows, 0b01) == 0b011
    assert gf2.mat_vec(rows, 0b11) == 0b101


def test_mat_mul_composes_rows_as_source():
    a = [0b01, 0b11]          # x0 -> y0, x1 -> y0 + y1
    b = [0b10, 0b11]          # y0 -> z1, y1 -> z0 + z1
    assert gf2.mat_mul(a, b) == [0b10, 0b01]


def test_identity():
    assert gf2.identity(3) == [1, 2, 4]


@given(matrices)
def test_rref_is_canonical_and_rank_sized(rows):
    reduced, pivots = gf2.rref(rows)
    assert len(reduced) == len(pivots) == gf2.rank(rows)
    assert pivots == sorted(pivots)
    for row, col in zip(reduced, pivots):
        assert row & -row == 1 << col
        for other, ocol in zip(reduced, pivots):
            if ocol != col:
                assert not (other >> col) & 1
    # Idempotent: re-reducing the reduced rows changes nothing.
    assert gf2.rref(reduced) == (reduced, pivots)


@given(matrices, matrices)
def test_rref_invariant_under_row_mixing(a, b):
    assert gf2.spans_equal(a + b, b + a)
    assert gf2.rank(a + a) == gf2.rank(a)


@given(matrices)
def test_kernel_rows_annihilate(rows):
    ker = gf2.kernel_basis(rows)
    for combo in ker:
        assert gf2.mat_vec(rows, combo) == 0
    assert len(ker) == len(rows) - gf2.rank(rows)


@given(matrices, st.integers(0, 255))
def test_solve_agrees_with_membership(rows, combo):
    target = gf2.mat_vec(rows, combo & ((1 << len(rows)) - 1))
    found = gf2.solve(rows, target)
    assert found is not None
    assert gf2.mat_vec(rows, found) == target


def test_solve_unsolvable_returns_none():
    assert gf2.solve([0b01], 0b10) is None
    assert gf2.solve([], 1) is None


@given(square)
def test_inverse_round_trip(case):
    n, rows = case
    inv = gf2.inverse(rows, n)
    if inv is None:
        assert gf2.rank(rows) < n
        assert not gf2.is_invertible(rows, n)
    else:
        assert gf2.is_invertible(rows, n)
        assert gf2.mat_mul(rows, inv) == gf2.identity(n)
        assert gf2.mat_mul(inv, rows) == gf2.identity(n)


def test_in_rowspan():
    rows = [0b011, 0b101]
    assert gf2.in_rowspan(rows, 0b110)
    assert not gf2.in_rowspan(rows, 0b001)
    assert gf2.in_rowspan(rows, 0)


@given(matrices, st.integers(0, 7))
def test_complete_basis_extends_to_full_rank(rows, n_extra):
    reduced, _ = gf2.rref(rows)
    n = max(max((r.bit_length() for r in reduced), default=0), len(reduced))
    n += n_extra
    added = gf2.complete_basis(reduced, n)
    assert gf2.rank(reduced + added) == n


def test_complete_basis_rejects_dependent_rows():
    with pytest.raises(ValueError):
        gf2.complete_basis([0b1, 0b1], 2)
