"""The quadratic extended power on split Tate objects.

d2_cell is the closed cell formula for D₂ of a single cell (p, w) with
k = 2w - p >= -1; d2_sum extends it to multisets by the binary cross-effect
D₂(A ⊕ B) = D₂(A) ⊕ D₂(B) ⊕ A⊗B, iterated via the copy rule.  The class 𝒮
collects the cells on which the induction of the vanishing-line argument
runs; s_closure_check certifies that D₂ stays inside 𝒮.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .bigraded import BiDegree, StarGrading, TateSum


class OutOfFormulaRange(Exception):
    """Raised for cells (p, w) with 2w - p < -1, where the closed formula
    asserts nothing."""

    def __init__(self, d: BiDegree):
        self.cell = BiDegree(*d)
        super().__init__(
            f"cell {self.cell} has 2w - p = {2 * self.cell.w - self.cell.p} < -1"
        )


class SMembershipViolation(Exception):
    """Raised when a cell required to lie in 𝒮 fails the membership test."""

    def __init__(self, d: BiDegree, reason: str):
        self.cell = BiDegree(*d)
        self.reason = reason
        super().__init__(f"cell {self.cell} not in S: {reason}")


def d2_cell(d, trunc: int) -> TateSum:
    """Closed formula for D₂ of the single cell d = (p, w), truncated by shift.

    With k = 2w - p >= -1 the cells are
      {(p + 2w - j, 2w) : 0 <= j <= k}
      ∪ {(p + 2w + 1, 2w + 1)}
      ∪ {(p + 2w + 2n, 2w + n), (p + 2w + 2n + 1, 2w + n + 1) : n >= 1},
    all with multiplicity 1.  Minimal shift of the full expansion is exactly 2p.
    """
    d = BiDegree(*d)
    p, w = d
    k = 2 * w - p
    if k < -1:
        raise OutOfFormulaRange(d)
    base = p + 2 * w
    cells = []
    for j in range(k + 1):
        cells.append(BiDegree(base - j, 2 * w))
    cells.append(BiDegree(base + 1, 2 * w + 1))
    n = 1
    while base + 2 * n <= trunc:
        cells.append(BiDegree(base + 2 * n, 2 * w + n))
        cells.append(BiDegree(base + 2 * n + 1, 2 * w + n + 1))
        n += 1
    # The cells are distinct, so each has multiplicity 1.
    return TateSum._trusted({c: 1 for c in cells if c.p <= trunc}, trunc)


def _as_cell_multiset(xs) -> dict[BiDegree, int]:
    if isinstance(xs, TateSum):
        return dict(xs.cells)
    acc: dict[BiDegree, int] = {}
    if isinstance(xs, Mapping):
        for cell, mult in xs.items():
            cell = BiDegree(*cell)
            acc[cell] = acc.get(cell, 0) + mult
        return acc
    for item in xs:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) \
                and not isinstance(item[0], int):
            cell, mult = BiDegree(*item[0]), item[1]
        else:
            cell, mult = BiDegree(*item), 1
        acc[cell] = acc.get(cell, 0) + mult
    return acc


def d2_sum(xs, trunc: int) -> TateSum:
    """D₂ of a multiset of cells by the copy rule.

    A cell with multiplicity m contributes m copies: m diagonal D₂ expansions
    plus C(m, 2) self-tensor cells; distinct cells c < c' contribute their
    unordered cross tensor with multiplicity m_c * m_c'.  Cross terms are
    single cells (exact, no truncated convolution needed).
    """
    cells = _as_cell_multiset(xs)
    acc: dict[BiDegree, int] = {}

    def add(cell: BiDegree, mult: int):
        if cell.p <= trunc and mult:
            acc[cell] = acc.get(cell, 0) + mult

    items = sorted(cells.items())
    for cell, m in items:
        for c2, m2 in d2_cell(cell, trunc):
            add(c2, m * m2)
        add(cell + cell, m * (m - 1) // 2)
    for i, (c1, m1) in enumerate(items):
        for c2, m2 in items[i + 1:]:
            add(c1 + c2, m1 * m2)
    return TateSum(acc, trunc)


#: Reason codes for the four 𝒮-membership conditions, in check order.
S_CONDITIONS = (
    "shift_range",       # a = 2w - p >= -1
    "positive_cell",     # w >= 0 and p >= 1
    "below_line",        # star_q(p, w) > 0, i.e. l/(2l-a) < q
    "weight_positive",   # w >= 1 or p = 2w + 1 (l > 0 unless a = -1)
)


class SMembership(NamedTuple):
    ok: bool
    failed: str | None

    def __bool__(self):
        return self.ok


def s_member(d, q) -> SMembership:
    """The four 𝒮 conditions for cell d at slope q; first failure reported."""
    d = BiDegree(*d)
    g = StarGrading.from_slope(q)
    p, w = d
    a = 2 * w - p
    if a < -1:
        return SMembership(False, "shift_range")
    if not (w >= 0 and p >= 1):
        return SMembership(False, "positive_cell")
    if not g.star(d) > 0:
        return SMembership(False, "below_line")
    if not (w >= 1 or p == 2 * w + 1):
        return SMembership(False, "weight_positive")
    return SMembership(True, None)


class ClosureReport(NamedTuple):
    ok: bool
    seed: BiDegree
    expansion: TateSum
    violations: tuple[tuple[BiDegree, str], ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": list(self.seed),
            "trunc": self.expansion.trunc,
            "violations": [
                {"p": c.p, "w": c.w, "failed": code}
                for c, code in self.violations
            ],
        }


def s_closure_check(d, q, trunc: int) -> ClosureReport:
    """Expand D₂(d) and test every resulting cell for 𝒮-membership.

    The seed itself must be in 𝒮.  Violations come back in lex order.
    """
    d = BiDegree(*d)
    seed = s_member(d, q)
    if not seed.ok:
        raise SMembershipViolation(d, seed.failed)
    expansion = d2_cell(d, trunc)
    violations = []
    for cell, _ in expansion:
        res = s_member(cell, q)
        if not res.ok:
            violations.append((cell, res.failed))
    return ClosureReport(not violations, d, expansion, tuple(violations))


def thom_check(d, e: int, trunc: int) -> bool:
    """Thom periodicity at the cell level:
    D₂(d + (2e, e)) == D₂(d) shifted by (4e, 2e), both truncated at trunc."""
    d = BiDegree(*d)
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    lhs = d2_cell(d + BiDegree(2 * e, e), trunc)
    rhs = d2_cell(d, trunc - 4 * e).shift(BiDegree(4 * e, 2 * e))
    return lhs == rhs


def suspension_relation_check(j: int, trunc: int) -> bool:
    """Series shadow of the suspension cofiber sequence on S^j, j <= 0:

        Σ D₂(S^j)  ==  D₂(S^{j+1})  +  one cell (2j+1, 0)

    as truncated multisets (exact multiset equality at the given truncation).
    """
    if j > 0:
        raise ValueError(f"need j <= 0 so both sides are in formula range, got {j}")
    lhs = d2_cell(BiDegree(j, 0), trunc - 1).shift(BiDegree(1, 0))
    rhs = d2_cell(BiDegree(j + 1, 0), trunc) + TateSum(
        {BiDegree(2 * j + 1, 0): 1}, trunc
    )
    return lhs == rhs


def s_cells(q, max_p: int) -> Iterable[BiDegree]:
    """All 𝒮 cells with shift 1 <= p <= max_p, in lex order.

    For fixed p the conditions pin w to the window
    ceil((p-1)/2) <= w <= (u/v reads: v*w < u*p) so the enumeration is finite.
    """
    g = StarGrading.from_slope(q)
    out = []
    for p in range(1, max_p + 1):
        w_lo = -(-(p - 1) // 2)          # smallest w with 2w - p >= -1
        w_hi = (g.u * p - 1) // g.v      # largest w with star > 0
        for w in range(max(w_lo, 0), w_hi + 1):
            d = BiDegree(p, w)
            if s_member(d, g).ok:
                out.append(d)
    return out
