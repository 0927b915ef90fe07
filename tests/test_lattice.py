"""Exact integer linear algebra: Smith normal form with transforms,
determinants, and row-lattice membership."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as strats

from motalg import lattice


def small_matrices(max_dim=4, bound=6):
    side = strats.integers(min_value=1, max_value=max_dim)
    entry = strats.integers(min_value=-bound, max_value=bound)
    return side.flatmap(
        lambda m: side.flatmap(
            lambda n: strats.lists(
                strats.lists(entry, min_size=n, max_size=n),
                min_size=m, max_size=m,
            )
        )
    )


def test_identity_and_mat_mul():
    eye = lattice.identity(3)
    A = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert lattice.mat_mul(eye, A) == A
    assert lattice.mat_mul(A, eye) == A
    assert lattice.mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        lattice.mat_mul([[1, 2]], [[3, 4]])


def test_det_known_values():
    assert lattice.det([]) == 1
    assert lattice.det([[7]]) == 7
    assert lattice.det([[1, 2], [3, 4]]) == -2
    assert lattice.det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert lattice.det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        lattice.det([[1, 2, 3], [4, 5, 6]])


def cofactor_det(A):
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * cofactor_det(minor)
    return total


@given(A=small_matrices())
def test_det_matches_cofactor_expansion(A):
    if len(A) == len(A[0]):
        assert lattice.det(A) == cofactor_det(A)


@given(A=small_matrices())
def test_smith_normal_form_properties(A):
    m, n = len(A), len(A[0])
    U, S, V = lattice.smith_normal_form(A)
    # U A V == S exactly.
    assert lattice.mat_mul(lattice.mat_mul(U, A), V) == S
    # The transforms are unimodular.
    assert lattice.det(U) in (1, -1)
    assert lattice.det(V) in (1, -1)
    # S is diagonal with nonnegative entries and a divisibility chain.
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    diag = [S[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_smith_normal_form_known_case():
    _, S, _ = lattice.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [S[i][i] for i in range(3)] == [2, 2, 156]


def test_smith_rejects_ragged_input():
    with pytest.raises(ValueError):
        lattice.smith_normal_form([[1, 2], [3]])


def test_lattice_member_witness_and_misses():
    rows = [[2, 0], [0, 3]]
    assert lattice.lattice_member(rows, [4, -3]) == [2, -1]
    assert lattice.lattice_member(rows, [1, 0]) is None
    assert lattice.lattice_member(rows, [2, 3]) == [1, 1]
    assert lattice.lattice_member(rows, [0, 1]) is None
    # The zero lattice contains only zero.
    assert lattice.lattice_member([], [0, 0]) == []
    assert lattice.lattice_member([], [1]) is None
    with pytest.raises(ValueError):
        lattice.lattice_member(rows, [1, 2, 3])


@given(A=small_matrices(), data=strats.data())
def test_lattice_member_verifies_on_spanned_targets(A, data):
    m, n = len(A), len(A[0])
    coeffs = data.draw(
        strats.lists(strats.integers(min_value=-3, max_value=3),
                     min_size=m, max_size=m)
    )
    target = [sum(coeffs[k] * A[k][j] for k in range(m)) for j in range(n)]
    witness = lattice.lattice_member(A, target)
    assert witness is not None
    recombined = [sum(witness[k] * A[k][j] for k in range(m)) for j in range(n)]
    assert recombined == target
