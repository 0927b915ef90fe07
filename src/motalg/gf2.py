"""Dense GF(2) linear algebra on int-bitmask rows.

A matrix is a list of ints; row i's bit j (1 << j) is the entry (i, j).
Maps between based spaces use the rows-as-source convention: row i is the
image of the i-th source basis vector in target coordinates.  All reductions
use leftmost-pivot elimination and keep rows fully reduced, so echelon forms
and kernel bases are canonical for a fixed basis order.
"""

from __future__ import annotations


def mat_vec(rows: list[int], vec: int) -> int:
    """Image of the combination picked out by vec's bits: XOR of those rows."""
    out = 0
    i = 0
    while vec:
        if vec & 1:
            out ^= rows[i]
        vec >>= 1
        i += 1
    return out


def mat_mul(a: list[int], b: list[int]) -> list[int]:
    """Composite of a: X -> Y followed by b: Y -> Z (rows-as-source)."""
    return [mat_vec(b, row) for row in a]


def identity(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


class _Eliminator:
    """Incremental RREF with optional row tags.

    Invariant: every stored pivot row is zero in all other pivot columns, so
    a single reduction pass per incoming row suffices.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, tuple[int, int]] = {}  # col -> (row, tag)

    def reduce(self, row: int, tag: int = 0) -> tuple[int, int]:
        for col, (prow, ptag) in self.pivots.items():
            if (row >> col) & 1:
                row ^= prow
                tag ^= ptag
        return row, tag

    def insert(self, row: int, tag: int = 0) -> bool:
        """Reduce and insert; returns True if the row was independent."""
        row, tag = self.reduce(row, tag)
        if not row:
            return False
        col = _low_bit(row)
        for c, (prow, ptag) in self.pivots.items():
            if (prow >> col) & 1:
                self.pivots[c] = (prow ^ row, ptag ^ tag)
        self.pivots[col] = (row, tag)
        return True

    def echelon(self) -> tuple[list[int], list[int]]:
        cols = sorted(self.pivots)
        return [self.pivots[c][0] for c in cols], cols

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form with leftmost pivots.

    Returns (nonzero reduced rows sorted by pivot column, pivot columns).
    """
    elim = _Eliminator()
    for row in rows:
        elim.insert(row)
    return elim.echelon()


def rank(rows: list[int]) -> int:
    elim = _Eliminator()
    for row in rows:
        elim.insert(row)
    return elim.rank


def kernel_basis(rows: list[int]) -> list[int]:
    """Canonical basis of {v : XOR of the rows picked by v = 0} (left kernel),
    as bitmasks over row indices, in reduced echelon form."""
    elim = _Eliminator()
    kernel = []
    for i, row in enumerate(rows):
        red, tag = elim.reduce(row, 1 << i)
        if red:
            elim.insert(row, 1 << i)
        else:
            kernel.append(tag)
    reduced, _ = rref(kernel)
    return reduced


def solve(rows: list[int], target: int) -> int | None:
    """One v with mat_vec(rows, v) == target, or None if unsolvable."""
    elim = _Eliminator()
    for i, row in enumerate(rows):
        elim.insert(row, 1 << i)
    red, combo = elim.reduce(target, 0)
    return combo if red == 0 else None


def inverse(rows: list[int], n: int) -> list[int] | None:
    """Inverse of a square map on n-dimensional spaces, or None if singular.

    Returned in the same rows-as-source convention: row j is the preimage
    combination of the j-th target basis vector.
    """
    if len(rows) != n:
        return None
    elim = _Eliminator()
    for i, row in enumerate(rows):
        if not elim.insert(row, 1 << i):
            return None
    inv = []
    for j in range(n):
        prow, ptag = elim.pivots[j]
        assert prow == 1 << j
        inv.append(ptag)
    return inv


def is_invertible(rows: list[int], n: int) -> bool:
    return len(rows) == n and rank(rows) == n


def in_rowspan(rows: list[int], vec: int) -> bool:
    elim = _Eliminator()
    for row in rows:
        elim.insert(row)
    red, _ = elim.reduce(vec)
    return red == 0


def spans_equal(a: list[int], b: list[int]) -> bool:
    return rref(a) == rref(b)


def complete_basis(subspace_rows: list[int], n: int) -> list[int]:
    """Vectors extending an independent family to a basis of GF(2)^n, chosen
    by scanning the standard basis in order; only the appended ones return."""
    elim = _Eliminator()
    for row in subspace_rows:
        if not elim.insert(row):
            raise ValueError("subspace rows are dependent")
    added = []
    for j in range(n):
        if elim.insert(1 << j):
            added.append(1 << j)
    return added
