"""Exact integer matrix utilities: Smith normal form with recorded
transforms, determinants, and membership tests for row lattices.

Matrices are lists of lists of Python ints; everything is exact.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    n = len(B[0]) if B else 0
    return [
        [sum(a * B[k][j] for k, a in enumerate(row)) for j in range(n)]
        for row in A
    ]


def det(A: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    M = [list(r) for r in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def smith_normal_form(A: list[list[int]]):
    """Return (U, S, V) with U A V = S, U and V unimodular and S diagonal
    with nonnegative entries satisfying S[i][i] | S[i+1][i+1]."""
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    S = [list(r) for r in A]
    U = identity(m)
    V = identity(n)

    def row_sub(i, j, q):
        S[i] = [x - q * y for x, y in zip(S[i], S[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def row_neg(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    def col_sub(i, j, q):
        for r in S:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(S[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    row_swap(t, pivot[0])
                if pivot[1] != t:
                    col_swap(t, pivot[1])
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    row_sub(i, t, S[i][t] // S[t][t])
                    if S[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j]:
                    col_sub(j, t, S[t][j] // S[t][t])
                    if S[t][j]:
                        dirty = True
            if dirty:
                continue
            d = S[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        if S[t][t] < 0:
            row_neg(t)
    return U, S, V


def lattice_member(rows: list[list[int]], target: list[int]):
    """Integer coefficients x with x . rows == target, or None if target is
    outside the lattice spanned by the rows."""
    m = len(rows)
    if m == 0:
        return [] if not any(target) else None
    n = len(rows[0])
    if len(target) != n:
        raise ValueError("target length mismatch")
    U, S, V = smith_normal_form(rows)
    c = [sum(target[k] * V[k][j] for k in range(n)) for j in range(n)]
    y = [0] * m
    for i in range(min(m, n)):
        d = S[i][i]
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    for j in range(min(m, n), n):
        if c[j]:
            return None
    x = [sum(y[k] * U[k][j] for k in range(m)) for j in range(m)]
    check = [sum(x[k] * rows[k][j] for k in range(m)) for j in range(n)]
    if check != list(target):
        raise AssertionError("lattice solve produced a bad witness")
    return x
