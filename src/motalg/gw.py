"""Exact arithmetic in the integral group ring of square classes (the
unit-class calculus), the n_epsilon identities, the symbolic elementary
matrix factorization certificate, Lefschetz trace bookkeeping, and the
equivalence of 2-torsion with 2_epsilon-torsion via integer lattice
reduction.
"""

from __future__ import annotations

from typing import NamedTuple

from . import lattice


class SquareClassGroup:
    """Elementary abelian 2-group on a finite list of independent order-2
    generators; elements are frozensets of generator names, the empty set
    being the trivial class."""

    def __init__(self, gens: tuple[str, ...] = ("-1", "2")):
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        self.gens = tuple(gens)
        self._order = {g: i for i, g in enumerate(self.gens)}

    @property
    def one(self) -> frozenset:
        return frozenset()

    def cls(self, *gens: str) -> frozenset:
        """The class of a product of generators; squares cancel."""
        out: set[str] = set()
        for g in gens:
            if g not in self._order:
                raise ValueError(f"unknown generator {g!r}")
            out ^= {g}
        return frozenset(out)

    def mul(self, x: frozenset, y: frozenset) -> frozenset:
        return x ^ y

    def sort_key(self, x: frozenset):
        return (len(x), tuple(sorted(self._order[g] for g in x)))

    def elements(self) -> list[frozenset]:
        out = [frozenset()]
        for g in self.gens:
            out += [e | {g} for e in out]
        return sorted(out, key=self.sort_key)

    def render(self, x: frozenset) -> str:
        if not x:
            return "1"
        try:
            value = 1
            for g in x:
                value *= int(g)
            inner = str(value)
        except ValueError:
            inner = "*".join(sorted(x, key=self._order.__getitem__))
        return f"⟨{inner}⟩"


DEFAULT_GROUP = SquareClassGroup()


class GWElement:
    """Finitely supported integer combination of square classes."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: SquareClassGroup = DEFAULT_GROUP, coeffs=None):
        self.group = group
        self.coeffs: dict[frozenset, int] = {}
        if coeffs:
            for cls, c in dict(coeffs).items():
                if c:
                    self.coeffs[frozenset(cls)] = c

    def _check(self, other: "GWElement"):
        if self.group is not other.group:
            raise ValueError("mixed square-class groups")

    def __add__(self, other):
        other = _coerce(other, self.group)
        self._check(other)
        out = dict(self.coeffs)
        for cls, c in other.coeffs.items():
            out[cls] = out.get(cls, 0) + c
        return GWElement(self.group, out)

    __radd__ = __add__

    def __neg__(self):
        return GWElement(self.group, {c: -v for c, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other, self.group))

    def __rsub__(self, other):
        return _coerce(other, self.group) - self

    def __mul__(self, other):
        other = _coerce(other, self.group)
        self._check(other)
        out: dict[frozenset, int] = {}
        for c1, v1 in self.coeffs.items():
            for c2, v2 in other.coeffs.items():
                key = self.group.mul(c1, c2)
                out[key] = out.get(key, 0) + v1 * v2
        return GWElement(self.group, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = _coerce(other, self.group)
        if not isinstance(other, GWElement):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.group.sort_key(kv[0]))

    def to_vector(self, basis: list[frozenset]) -> list[int]:
        extra = set(self.coeffs) - set(basis)
        if extra:
            raise ValueError("element not supported on the given basis")
        return [self.coeffs.get(b, 0) for b in basis]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for cls, c in self.items():
            name = self.group.render(cls)
            if not cls:
                term = str(c)
            elif c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}{name}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out

    __repr__ = __str__


def _coerce(x, group: SquareClassGroup) -> GWElement:
    if isinstance(x, GWElement):
        return x
    if isinstance(x, int):
        return GWElement(group, {group.one: x})
    raise TypeError(f"cannot coerce {x!r}")


def integer(n: int, group: SquareClassGroup = DEFAULT_GROUP) -> GWElement:
    return GWElement(group, {group.one: n})


def unit_class(*gens: str, group: SquareClassGroup = DEFAULT_GROUP) -> GWElement:
    return GWElement(group, {group.cls(*gens): 1})


def n_epsilon(n: int, group: SquareClassGroup = DEFAULT_GROUP) -> GWElement:
    """The alternating sum 1 + <-1> + 1 + ... with n terms."""
    if n < 0:
        raise ValueError("need n >= 0")
    k, odd = divmod(n, 2)
    coeffs = {group.one: k + odd, group.cls("-1"): k}
    return GWElement(group, coeffs)


def switch_class(group: SquareClassGroup = DEFAULT_GROUP) -> GWElement:
    return unit_class("-1", group=group)


def power_map_class(n: int, group: SquareClassGroup = DEFAULT_GROUP) -> GWElement:
    return n_epsilon(n, group=group)


# ---------------------------------------------------------------------------
# Laurent polynomials in one indeterminate and 2x2 matrices over them.

class LaurentPoly:
    """Integer Laurent polynomial in one indeterminate a."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    self.coeffs[int(e)] = c

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c})

    def __add__(self, other):
        other = _lp(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_lp(other))

    def __rsub__(self, other):
        return _lp(other) - self

    def __mul__(self, other):
        other = _lp(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _lp(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                base = str(abs(c))
            else:
                var = "a" if e == 1 else f"a^{e}"
                base = var if abs(c) == 1 else f"{abs(c)}{var}"
            parts.append(("-" if c < 0 else "+", base))
        sign, base = parts[0]
        out = ("-" if sign == "-" else "") + base
        for sign, base in parts[1:]:
            out += f" {sign} {base}"
        return out

    __repr__ = __str__


def _lp(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {x!r}")


class LaurentMatrix2:
    """2x2 matrix with LaurentPoly entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(_lp(x) for x in r) for r in rows)
        if len(self.rows) != 2 or any(len(r) != 2 for r in self.rows):
            raise ValueError("need a 2x2 matrix")

    @classmethod
    def identity(cls) -> "LaurentMatrix2":
        return cls([[1, 0], [0, 1]])

    def __mul__(self, other: "LaurentMatrix2") -> "LaurentMatrix2":
        a, b = self.rows, other.rows
        return LaurentMatrix2(
            [
                [a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)
            ]
        )

    def det(self) -> LaurentPoly:
        a = self.rows
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def __eq__(self, other):
        return isinstance(other, LaurentMatrix2) and self.rows == other.rows

    def at_one(self) -> list[list[int]]:
        return [[x.at_one() for x in r] for r in self.rows]

    def __str__(self):
        return "[[{}, {}], [{}, {}]]".format(
            self.rows[0][0], self.rows[0][1], self.rows[1][0], self.rows[1][1]
        )

    __repr__ = __str__


class WhiteheadReport(NamedTuple):
    factors: tuple[LaurentMatrix2, ...]
    product: LaurentMatrix2
    ok: bool
    determinants: tuple[LaurentPoly, ...]
    determinants_ok: bool
    at_one_factors: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    at_one_product_identity: bool

    def to_dict(self) -> dict:
        return {
            "factors": [str(f) for f in self.factors],
            "product": str(self.product),
            "ok": self.ok,
            "determinants": [str(d) for d in self.determinants],
            "determinants_ok": self.determinants_ok,
            "at_one_factors": [
                [list(r) for r in f] for f in self.at_one_factors
            ],
            "at_one_product_identity": self.at_one_product_identity,
        }


def whitehead_check() -> WhiteheadReport:
    """Multiply the four displayed elementary matrices exactly and compare
    with diag(a^-1, a); also certify unit determinants and that the a = 1
    specialization of the product is the identity.  (The individual factors
    with entries 1/a and -1 stay unipotent at a = 1; only the product
    collapses.)"""
    a = LaurentPoly.monomial(1)
    a_inv = LaurentPoly.monomial(-1)
    one = LaurentPoly.const(1)
    factors = (
        LaurentMatrix2([[one, a_inv], [0, one]]),
        LaurentMatrix2([[one, 0], [one - a, one]]),
        LaurentMatrix2([[one, -1], [0, one]]),
        LaurentMatrix2([[one, 0], [one - a_inv, one]]),
    )
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    target = LaurentMatrix2([[a_inv, 0], [0, a]])
    dets = tuple(f.det() for f in factors) + (product.det(),)
    eye = [[1, 0], [0, 1]]
    at_one_factors = tuple(
        tuple(tuple(row) for row in f.at_one()) for f in factors
    )
    return WhiteheadReport(
        factors,
        product,
        product == target,
        dets,
        all(d == one for d in dets),
        at_one_factors,
        product.at_one() == eye,
    )


# ---------------------------------------------------------------------------
# Lefschetz trace bookkeeping.

def _is_two_unit(v: int) -> bool:
    """Units of Z[1/2] are the signed powers of two."""
    v = abs(v)
    return v != 0 and (v & (v - 1)) == 0


class LefschetzReport(NamedTuple):
    lhs: GWElement
    solved: GWElement
    consistency: GWElement
    fixed_locus: tuple[tuple[str, int], ...]
    locus_units_ok: bool
    ok: bool

    def to_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "solved": str(self.solved),
            "consistency": str(self.consistency),
            "fixed_locus": {name: df for name, df in self.fixed_locus},
            "locus_units_ok": self.locus_units_ok,
            "ok": self.ok,
        }


def lefschetz_trace_derivation(group: SquareClassGroup = DEFAULT_GROUP) -> LefschetzReport:
    """Equate 1 + 3_eps with 2 + <-2>.t, solve for t by multiplying with the
    order-2 unit <-2>, and check t = <2>.2_eps; audit that 1 - df is a unit
    of Z[1/2] at each fixed-locus component."""
    lhs = integer(1, group) + n_epsilon(3, group)
    residue = lhs - integer(2, group)
    solved = unit_class("-1", "2", group=group) * residue
    consistency = unit_class("2", group=group) * n_epsilon(2, group)
    fixed_locus = (("0", 0), ("infinity", 0), ("S'", 3))
    units_ok = all(_is_two_unit(1 - df) for _, df in fixed_locus)
    expected = unit_class("2", group=group) + unit_class("-1", "2", group=group)
    ok = solved == expected and consistency == solved and units_ok
    return LefschetzReport(lhs, solved, consistency, fixed_locus, units_ok, ok)


# ---------------------------------------------------------------------------
# 2-torsion vs 2_epsilon-torsion in the group ring.

class TorsionReport(NamedTuple):
    forward: bool
    backward: bool
    forward_witness: dict[str, int] | None
    backward_witness: dict[str, int] | None
    norm_identity: bool
    ok: bool

    def to_dict(self) -> dict:
        return {
            "forward": self.forward,
            "backward": self.backward,
            "forward_witness": self.forward_witness,
            "backward_witness": self.backward_witness,
            "norm_identity": self.norm_identity,
            "ok": self.ok,
        }


def _ideal_rows(gens: list[tuple[str, GWElement]], group: SquareClassGroup):
    basis = group.elements()
    rows = []
    labels = []
    for gname, gen in gens:
        for e in basis:
            shifted = GWElement(group, {e: 1}) * gen
            rows.append(shifted.to_vector(basis))
            labels.append(f"{group.render(e)}*({gname})")
    return rows, labels, basis


def _membership(target: GWElement, gens: list[tuple[str, GWElement]],
                group: SquareClassGroup):
    rows, labels, basis = _ideal_rows(gens, group)
    witness = lattice.lattice_member(rows, target.to_vector(basis))
    if witness is None:
        return False, None
    return True, {lab: c for lab, c in zip(labels, witness) if c}


def torsion_equivalence(group: SquareClassGroup = DEFAULT_GROUP) -> TorsionReport:
    """In Z[G] with the relation r = 2 + <2>.2_eps: modulo (r, 2) the class
    2_eps lies in the ideal, and modulo (r, 2_eps) the class 2 does; both
    memberships are certified by Smith normal form over the group basis.
    The norm bookkeeping N(1+1) = 2 N(1) + tr(1) reproduces r itself."""
    two = integer(2, group)
    two_eps = n_epsilon(2, group)
    relation = two + unit_class("2", group=group) * two_eps
    forward, fw = _membership(two_eps, [("r", relation), ("2", two)], group)
    backward, bw = _membership(two, [("r", relation), ("2_eps", two_eps)], group)
    norm = 2 * integer(1, group) + unit_class("2", group=group) * n_epsilon(2, group)
    norm_ok = norm == relation
    return TorsionReport(
        forward, backward, fw, bw, norm_ok, forward and backward and norm_ok
    )
