"""Bigraded cell calculus: bidegrees, truncated cell multisets, star-gradings.

A cell (p, w) stands for a shift-p, twist-w copy of the mod-2 Eilenberg-MacLane
object; a TateSum is a finite multiset of cells truncated by shift.  A
StarGrading collapses the two gradings to one integer along a rational-slope
line through the origin, and a CoefficientModel supplies the bigraded
dimensions of the coefficient ring so connectivity questions reduce to star
positivity of the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple


class BiDegree(NamedTuple):
    """A (shift, twist) pair; ordered lexicographically by (p, w)."""

    p: int
    w: int

    def __add__(self, other):  # type: ignore[override]
        return BiDegree(self.p + other[0], self.w + other[1])

    def __neg__(self):
        return BiDegree(-self.p, -self.w)

    def __str__(self):
        return f"({self.p},{self.w})"


#: Common cells: the Tate twist T = S^{2,1}, the multiplicative group
#: 𝔾ₘ = S^{1,1}, the simplicial circle S¹ = S^{1,0}.
T = BiDegree(2, 1)
GM = BiDegree(1, 1)
S1 = BiDegree(1, 0)
S0 = BiDegree(0, 0)


class StarGrading:
    """The grading star(p, w) = u*p - v*w for coprime u, v > 0 (slope q = u/v).

    star(1, 0) = u > 0, so the open right half-plane of the line
    {u*p = v*w} is exactly {star > 0}.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int):
        if u <= 0 or v <= 0:
            raise ValueError(f"star-grading needs positive u, v; got ({u}, {v})")
        g = gcd(u, v)
        self.u = u // g
        self.v = v // g

    @classmethod
    def from_slope(cls, q) -> "StarGrading":
        """Build from a slope given as Fraction, 'u/v' string, or (u, v) pair."""
        if isinstance(q, StarGrading):
            return q
        if isinstance(q, str):
            q = Fraction(q)
        if isinstance(q, Fraction):
            return cls(q.numerator, q.denominator)
        u, v = q
        return cls(u, v)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.u, self.v)

    def star(self, d) -> int:
        p, w = d
        return self.u * p - self.v * w

    def __call__(self, d) -> int:
        return self.star(d)

    def __eq__(self, other):
        return (
            isinstance(other, StarGrading)
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"StarGrading({self.u}/{self.v})"


@dataclass(frozen=True)
class CoefficientModel:
    """A pluggable bigraded dimension function for the coefficient ring.

    The support must lie in the cone {(0,0)} ∪ {p <= 0, w <= p}; on that cone
    every grading with 0 < q < 1 has star >= 0 with equality only at the
    origin, which is what makes vanishing lines detectable cell by cell.
    """

    name: str
    dim: Callable[[int, int], int]

    def __call__(self, p: int, w: int) -> int:
        return self.dim(p, w)


def _dim_field_closed(p: int, w: int) -> int:
    return 1 if (p == 0 and w <= 0) else 0


def _dim_field_real(p: int, w: int) -> int:
    return 1 if (p <= 0 and w <= p) else 0


FIELD_CLOSED = CoefficientModel("field_closed", _dim_field_closed)
FIELD_REAL = CoefficientModel("field_real", _dim_field_real)

COEFFICIENT_MODELS = {m.name: m for m in (FIELD_CLOSED, FIELD_REAL)}


class TateSum:
    """A finite multiset of cells with a shift truncation.

    Cells with shift p > trunc are deliberately absent; all stored
    multiplicities are >= 1.  Immutable.
    """

    __slots__ = ("cells", "trunc")

    def __init__(self, cells: Mapping[BiDegree, int] | Iterable, trunc: int):
        if isinstance(cells, Mapping):
            items = cells.items()
        else:
            items = [(c, 1) for c in cells]
        acc: dict[BiDegree, int] = {}
        for cell, mult in items:
            cell = BiDegree(*cell)
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} at {cell}")
            if mult == 0 or cell.p > trunc:
                continue
            acc[cell] = acc.get(cell, 0) + mult
        object.__setattr__(self, "cells", dict(sorted(acc.items())))
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _trusted(cls, acc: dict[BiDegree, int], trunc: int) -> "TateSum":
        """Wrap cells that are already BiDegree, of shift <= trunc, with
        positive multiplicities; only the order of the cells is established
        here."""
        self = object.__new__(cls)
        object.__setattr__(self, "cells", dict(sorted(acc.items())))
        object.__setattr__(self, "trunc", trunc)
        return self

    def __setattr__(self, *_):
        raise AttributeError("TateSum is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "TateSum":
        return cls({}, trunc)

    def __eq__(self, other):
        return (
            isinstance(other, TateSum)
            and self.trunc == other.trunc
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.trunc, tuple(self.cells.items())))

    def __iter__(self):
        return iter(self.cells.items())

    def __len__(self):
        return len(self.cells)

    def __bool__(self):
        return bool(self.cells)

    def mult(self, cell) -> int:
        return self.cells.get(BiDegree(*cell), 0)

    def total(self) -> int:
        return sum(self.cells.values())

    def __add__(self, other: "TateSum") -> "TateSum":
        trunc = min(self.trunc, other.trunc)
        acc = {c: m for c, m in self.cells.items() if c.p <= trunc}
        for c, m in other.cells.items():
            if c.p <= trunc:
                acc[c] = acc.get(c, 0) + m
        return TateSum(acc, trunc)

    def tensor(self, other: "TateSum") -> "TateSum":
        """Bidegree-wise convolution.

        Sound under shift truncation only when no operand mixes negative-shift
        cells with unbounded-below support; since stored supports are finite
        we reject any negative-shift cell outright.
        """
        for operand in (self, other):
            for c in operand.cells:
                if c.p < 0:
                    raise ValueError(
                        f"tensor with negative-shift cell {c} is unsound "
                        "under shift truncation"
                    )
        trunc = min(self.trunc, other.trunc)
        acc: dict[BiDegree, int] = {}
        for c1, m1 in self.cells.items():
            if c1.p > trunc:
                continue
            for c2, m2 in other.cells.items():
                c = c1 + c2
                if c.p <= trunc:
                    acc[c] = acc.get(c, 0) + m1 * m2
        return TateSum(acc, trunc)

    def shift(self, d) -> "TateSum":
        """Translate every cell by d; the truncation moves along."""
        d = BiDegree(*d)
        return TateSum._trusted(
            {c + d: m for c, m in self.cells.items()}, self.trunc + d.p
        )

    def series(self, g) -> dict[int, int]:
        """Star-degree histogram: total multiplicity per star value."""
        g = StarGrading.from_slope(g)
        acc: dict[int, int] = {}
        for c, m in self.cells.items():
            s = g.star(c)
            acc[s] = acc.get(s, 0) + m
        return dict(sorted(acc.items()))

    def to_records(self) -> list[dict[str, int]]:
        return [
            {"p": c.p, "w": c.w, "mult": m} for c, m in self.cells.items()
        ]

    def render(self) -> str:
        if not self.cells:
            return "0"
        return " ⊕ ".join(
            f"Z/2[{c.p}]({c.w})^{m}" for c, m in self.cells.items()
        )

    def __repr__(self):
        body = ", ".join(f"({c.p},{c.w}):{m}" for c, m in self.cells.items())
        return f"TateSum({{{body}}}, trunc={self.trunc})"


class VanishingReport(NamedTuple):
    ok: bool
    min_star: int | None
    witness: BiDegree | None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "min_star": self.min_star,
            "witness": None if self.witness is None else list(self.witness),
        }


def has_vanishing_line(
    a: TateSum, g, c: CoefficientModel = FIELD_CLOSED
) -> VanishingReport:
    """Whether the module spanned by the cells of a (each carrying a copy of
    the coefficient cone of c) has all populated star degrees > 0.

    The cone has star >= 0 with equality only at its apex for 0 < q < 1, so
    the minimum populated star degree equals the minimum star over the cells
    themselves and ok is equivalent to star > 0 on every cell.
    """
    g = StarGrading.from_slope(g)
    if not (0 < g.slope < 1):
        raise ValueError(f"vanishing lines require slope 0 < q < 1, got {g.slope}")
    if c(0, 0) != 1:
        raise ValueError(f"coefficient model {c.name} has dim(0,0) != 1")
    min_star: int | None = None
    witness: BiDegree | None = None
    for cell in a.cells:
        s = g.star(cell)
        if min_star is None or s < min_star:
            min_star, witness = s, cell
    ok = min_star is None or min_star > 0
    return VanishingReport(ok, min_star, witness)
