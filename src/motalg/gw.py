"""Exact arithmetic in integral group rings, with one element type for two
groups: the square classes (the unit-class calculus and the n_epsilon
identities) and the infinite cyclic group, whose group ring is the Laurent
polynomials in a (the symbolic elementary matrix factorization
certificate).  Also Lefschetz trace bookkeeping, and the equivalence of
2-torsion with 2_epsilon-torsion via integer lattice reduction.
"""

from __future__ import annotations

from functools import reduce
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


class CyclicGroup:
    """The infinite cyclic group on the generator a, written by exponent:
    the element e stands for a^e.  Its group ring is the Laurent
    polynomials in a, listed from the highest power down."""

    one = 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def sort_key(self, x: int) -> int:
        return -x

    def render(self, x: int) -> str:
        return "a" if x == 1 else f"a^{x}"


LAURENT = CyclicGroup()


class GWElement:
    """Finitely supported integer combination of the elements of a group
    (square classes, or powers of a); the keys are taken as given, in the
    group's own canonical form."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group=DEFAULT_GROUP, coeffs=None):
        self.group = group
        self.coeffs = {key: c for key, c in (coeffs or {}).items() if c}

    def _check(self, other: "GWElement"):
        if self.group is not other.group:
            raise ValueError("mixed groups")

    def __add__(self, other):
        other = _coerce(other, self.group)
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return GWElement(self.group, out)

    __radd__ = __add__

    def __neg__(self):
        return GWElement(self.group, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other, self.group))

    def __rsub__(self, other):
        return _coerce(other, self.group) - self

    def __mul__(self, other):
        other = _coerce(other, self.group)
        self._check(other)
        out: dict = {}
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

    def augmentation(self) -> int:
        """The sum of the coefficients: the ring map sending every group
        element to 1."""
        return sum(self.coeffs.values())

    def to_vector(self, basis: list[frozenset]) -> list[int]:
        extra = set(self.coeffs) - set(basis)
        if extra:
            raise ValueError("element not supported on the given basis")
        return [self.coeffs.get(b, 0) for b in basis]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key, c in self.items():
            if key == self.group.one:
                parts.append(str(c))
                continue
            name = self.group.render(key)
            if c == 1:
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


def _coerce(x, group) -> GWElement:
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
# 2x2 matrices over the Laurent polynomials, as lists of rows.

def monomial(e: int) -> GWElement:
    """The Laurent monomial a^e."""
    return GWElement(LAURENT, {e: 1})


def _matrix(rows) -> list[list[GWElement]]:
    return [[_coerce(x, LAURENT) for x in row] for row in rows]


def _det(m: list[list[GWElement]]) -> GWElement:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _at_one(m: list[list[GWElement]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x.augmentation() for x in row) for row in m)


class WhiteheadReport(NamedTuple):
    factors: tuple[list[list[GWElement]], ...]
    product: list[list[GWElement]]
    ok: bool
    determinants: tuple[GWElement, ...]
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
    a = monomial(1)
    a_inv = monomial(-1)
    factors = (
        _matrix([[1, a_inv], [0, 1]]),
        _matrix([[1, 0], [1 - a, 1]]),
        _matrix([[1, -1], [0, 1]]),
        _matrix([[1, 0], [1 - a_inv, 1]]),
    )
    product = reduce(lattice.mat_mul, factors)
    dets = tuple(_det(f) for f in factors) + (_det(product),)
    return WhiteheadReport(
        factors,
        product,
        product == _matrix([[a_inv, 0], [0, a]]),
        dets,
        all(d == 1 for d in dets),
        tuple(_at_one(f) for f in factors),
        _at_one(product) == ((1, 0), (0, 1)),
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
