"""Symmetric-group 2-Sylow combinatorics and the inductive containers E_i.

E_i is a sum of tensor products of cells that contains the i-th extended
power of the circle cell as a summand; it is built by splitting i along a
carry-free binomial (Kummer) or, at powers of two, by one more application of
the quadratic extended power with its cross-effect.  All emitted factors must
lie in the class 𝒮, which makes the vanishing-line certificate a one-line
consequence of star additivity.  cofree_divide is the series-level division
producing wedge multiplicities over a fixed coalgebra series.
"""

from __future__ import annotations

import json
from math import comb
from typing import Callable, Iterable, Mapping, NamedTuple

from .bigraded import BiDegree, StarGrading, TateSum
from .extpower import SMembershipViolation, d2_cell, d2_sum, s_member

#: A Product is a sorted tuple of cell factors; a ProductSum maps products to
#: positive multiplicities under a total-shift truncation.
Product = tuple[BiDegree, ...]


class PowerOfTwo(Exception):
    """binary_split rejects powers of two (those take the wreath path)."""


class InvalidInput(Exception):
    pass


class BinarySplit(NamedTuple):
    i1: int
    i2: int
    carry_free: bool
    binom_odd: bool


def binary_split(i: int) -> BinarySplit:
    """Split i = i1 + i2 with i1 the largest power of two <= i.

    The certificate records that adding i1 and i2 in base 2 has no carries,
    hence C(i, i1) is odd (Kummer).
    """
    if i < 2:
        raise InvalidInput(f"need i >= 2, got {i}")
    if i & (i - 1) == 0:
        raise PowerOfTwo(f"{i} is a power of two")
    i1 = 1 << (i.bit_length() - 1)
    i2 = i - i1
    carry_free = (i1 & i2) == 0
    binom_odd = comb(i, i1) % 2 == 1
    assert carry_free and binom_odd
    return BinarySplit(i1, i2, carry_free, binom_odd)


def iterated_d2_bound(d, tower: Iterable[int], trunc: int) -> TateSum:
    """Tensor over the tower heights of the n-fold quadratic-power iterate of
    the single cell d: a multiplicity-wise upper bound for the i-th power."""
    d = BiDegree(*d)
    result = TateSum({BiDegree(0, 0): 1}, trunc)
    for n in tower:
        part = TateSum({d: 1}, trunc)
        for _ in range(n):
            part = d2_sum(part, trunc)
        result = result.tensor(part)
    return result


class ProductSum:
    """A finite multiset of cell products, truncated by total product shift.

    Every factor has shift >= 1, so a product of total shift <= trunc has at
    most trunc factors.  Immutable; products stored in sorted order.
    """

    __slots__ = ("products", "trunc")

    def __init__(self, products: Mapping[Product, int], trunc: int):
        acc: dict[Product, int] = {}
        for prod, mult in products.items():
            prod = tuple(sorted(BiDegree(*c) for c in prod))
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} at {prod}")
            if any(c.p < 1 for c in prod):
                raise ValueError(f"product {prod} has a factor of shift < 1")
            if sum(c.p for c in prod) > trunc:
                continue
            acc[prod] = acc.get(prod, 0) + mult
        object.__setattr__(self, "products", dict(sorted(acc.items())))
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _trusted(cls, acc: dict[Product, int], trunc: int) -> "ProductSum":
        """Wrap products that are already sorted tuples of BiDegree factors
        of shift >= 1, with positive multiplicities and total shift <= trunc;
        only the order of the products is established here."""
        self = object.__new__(cls)
        object.__setattr__(self, "products", dict(sorted(acc.items())))
        object.__setattr__(self, "trunc", trunc)
        return self

    def __setattr__(self, *_):
        raise AttributeError("ProductSum is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ProductSum)
            and self.trunc == other.trunc
            and self.products == other.products
        )

    def __iter__(self):
        return iter(self.products.items())

    def __len__(self):
        return len(self.products)

    def total(self) -> int:
        return sum(self.products.values())

    def flatten(self) -> TateSum:
        """Sum the factor bidegrees of each product: the underlying TateSum."""
        acc: dict[BiDegree, int] = {}
        for prod, mult in self.products.items():
            cell = BiDegree(sum(c.p for c in prod), sum(c.w for c in prod))
            acc[cell] = acc.get(cell, 0) + mult
        return TateSum(acc, self.trunc)

    def tensor(self, other: "ProductSum") -> "ProductSum":
        trunc = min(self.trunc, other.trunc)
        acc: dict[Product, int] = {}
        by_shift = _bucket_by_shift(other.products)
        for prod1, m1 in self.products.items():
            room = trunc - sum(c.p for c in prod1)
            for shift2, bucket in by_shift.items():
                if shift2 > room:
                    continue
                for prod2, m2 in bucket:
                    key = tuple(sorted(prod1 + prod2))
                    acc[key] = acc.get(key, 0) + m1 * m2
        return ProductSum._trusted(acc, trunc)

    def to_dict(self) -> dict:
        return {
            "trunc": self.trunc,
            "products": [
                {"factors": [{"p": c.p, "w": c.w} for c in prod], "mult": m}
                for prod, m in self.products.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    def __repr__(self):
        body = ", ".join(
            "[" + ",".join(map(str, prod)) + f"]:{m}"
            for prod, m in self.products.items()
        )
        return f"ProductSum({{{body}}}, trunc={self.trunc})"


def _bucket_by_shift(
    products: Mapping[Product, int]
) -> dict[int, list[tuple[Product, int]]]:
    buckets: dict[int, list[tuple[Product, int]]] = {}
    for prod, m in products.items():
        buckets.setdefault(sum(c.p for c in prod), []).append((prod, m))
    return buckets


def _d2_step(E: ProductSum, q: StarGrading, trunc: int) -> ProductSum:
    """One quadratic-power step on a ProductSum: diagonal expansions plus
    unordered cross pairs, with every emitted factor checked against 𝒮."""
    acc: dict[Product, int] = {}

    def add(prod: Product, mult: int):
        if mult:
            acc[prod] = acc.get(prod, 0) + mult

    # Every cell in the expansion of (p, w) has shift >= 2p, so a product of
    # shift s expands to shift >= 2s.  Expand, and check 𝒮 on, each factor
    # that an unpruned distribution would reach (those whose earlier factors
    # leave 2 * shift <= trunc), in that order, so that a failing slope
    # raises the same violation as without the bound.
    expansions: dict[BiDegree, list[BiDegree]] = {}
    for prod in E.products:
        shift = 0
        for factor in prod:
            if 2 * shift > trunc:
                break
            if factor not in expansions:
                cells = [c for c, _ in d2_cell(factor, trunc)]
                for c in cells:
                    res = s_member(c, q)
                    if not res.ok:
                        raise SMembershipViolation(c, res.failed)
                expansions[factor] = cells
            shift += factor.p

    by_shift = _bucket_by_shift(E.products)

    # Diagonal: distribute the expansion of each factor over the product,
    # keeping a partial product only while its shift plus twice the shift
    # of the factors still to come stays within the truncation.  Expansions
    # are sorted by shift, so the first cell over the bound ends the scan.
    for shift, bucket in by_shift.items():
        if 2 * shift > trunc:
            continue
        for prod, m in bucket:
            rest = shift
            partial: list[tuple[Product, int]] = [((), 0)]
            for factor in prod:
                rest -= factor.p
                room = trunc - 2 * rest
                grown: list[tuple[Product, int]] = []
                for chosen, shift_sum in partial:
                    for c in expansions[factor]:
                        s = shift_sum + c.p
                        if s > room:
                            break
                        grown.append((chosen + (c,), s))
                partial = grown
            for chosen, _ in partial:
                add(tuple(sorted(chosen)), m)

    # Cross: unordered pairs of product copies, bucketed by total shift so
    # only compatible shift pairs are examined.  Buckets keep the sorted
    # order of E, so within one bucket a product pairs with itself (C(m, 2)
    # copies) and with the products after it.
    shifts = sorted(by_shift)
    for ia, sa in enumerate(shifts):
        bucket_a = by_shift[sa]
        for sb in shifts[ia:]:
            if sa + sb > trunc:
                break
            bucket_b = by_shift[sb]
            for j, (prod1, m1) in enumerate(bucket_a):
                for prod2, m2 in bucket_b[j:] if sa == sb else bucket_b:
                    if prod1 == prod2:
                        mult = m1 * (m1 - 1) // 2
                    else:
                        mult = m1 * m2
                    add(tuple(sorted(prod1 + prod2)), mult)

    return ProductSum._trusted(acc, trunc)


def _container_rows(q, trunc: int) -> Callable[[int], ProductSum]:
    """The container recursion at one slope and truncation: a function
    n -> E_n that builds each E_m it needs once and keeps it."""
    g = StarGrading.from_slope(q)
    if not (0 < g.slope < 1):
        raise InvalidInput(f"need slope 0 < q < 1, got {g.slope}")
    cache: dict[int, ProductSum] = {}

    def rec(n: int) -> ProductSum:
        if n in cache:
            return cache[n]
        if n == 1:
            E = ProductSum({(BiDegree(1, 0),): 1}, trunc)
        elif n & (n - 1) == 0:
            E = _d2_step(rec(n // 2), g, trunc)
        else:
            split = binary_split(n)
            E = rec(split.i1).tensor(rec(split.i2))
        cache[n] = E
        return E

    return rec


def build_Ei(i: int, q, trunc: int) -> ProductSum:
    """The inductive container E_i at slope q, truncated by total shift.

    E_1 = {[(1,0)]}; for i with several set bits, E_i = E_{i1} ⊗ E_{i2}
    along the carry-free split; for i = 2^a, one _d2_step on E_{2^{a-1}}.
    Requires 3/5 < q < 1 so that the 𝒮-closure certificate can succeed.
    """
    if i < 1:
        raise InvalidInput(f"need i >= 1, got {i}")
    return _container_rows(q, trunc)(i)


class Certificate(NamedTuple):
    ok: bool
    min_slack: int | None
    witness: Product | None
    note: str

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "min_slack": self.min_slack,
            "witness": None
            if self.witness is None
            else [{"p": c.p, "w": c.w} for c in self.witness],
            "note": self.note,
        }


#: Soundness note carried on every certificate.
CERT_NOTE = (
    "a vanishing line for the container implies one for the extended-power "
    "summand it contains"
)


def vanishing_certificate(E: ProductSum, q) -> Certificate:
    """Star positivity of every product's total bidegree; the minimum star
    value (slack) and its first witness in canonical product order."""
    g = StarGrading.from_slope(q)
    min_slack: int | None = None
    witness: Product | None = None
    for prod, _ in E:
        total = BiDegree(sum(c.p for c in prod), sum(c.w for c in prod))
        s = g.star(total)
        if min_slack is None or s < min_slack:
            min_slack, witness = s, prod
    ok = min_slack is None or min_slack > 0
    return Certificate(ok, min_slack, witness, CERT_NOTE)


def nsym_series(max_i: int, q, trunc: int) -> dict:
    """Star-degree histograms for the rows i = 0 .. max_i of the free normed
    object's container, plus the combined row (their sum)."""
    if max_i < 0:
        raise InvalidInput(f"need max_i >= 0, got {max_i}")
    g = StarGrading.from_slope(q)
    rows: dict[int, TateSum] = {0: TateSum({BiDegree(0, 0): 1}, trunc)}
    if max_i >= 1:
        rows[1] = TateSum({BiDegree(1, 0): 1}, trunc)
    if max_i >= 2:
        # One recursion for every row, so each sub-container is built once.
        container = _container_rows(g, trunc)
        for i in range(2, max_i + 1):
            rows[i] = container(i).flatten()
    combined = TateSum.zero(trunc)
    for row in rows.values():
        combined = combined + row
    return {
        "rows": {i: row.series(g) for i, row in rows.items()},
        "combined": combined.series(g),
    }


class NegativeCoefficient(Exception):
    """cofree_divide found a negative quotient coefficient: the numerator
    series is not cofree over the denominator at the series level."""

    def __init__(self, degree: int, value: int):
        self.degree = degree
        self.value = value
        super().__init__(f"coefficient {value} < 0 in degree {degree}")


Series = dict[int, int]


def series_multiply(a: Series, b: Series, bound: int) -> Series:
    out: Series = {}
    for da, ca in a.items():
        if ca == 0:
            continue
        for db, cb in b.items():
            d = da + db
            if d <= bound and cb:
                out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in sorted(out.items()) if c}


def cofree_divide(mbar: Series, abar: Series, bound: int) -> Series:
    """Greedy lowest-degree-first series division: the unique V with
    mbar = V * abar up to the bound, if all coefficients stay nonnegative."""
    if abar.get(0) != 1:
        raise InvalidInput(f"divisor must have constant term 1, got {abar.get(0)}")
    for s in (mbar, abar):
        if any(d < 0 for d in s):
            raise InvalidInput("series must be supported in degrees >= 0")
    v: Series = {}
    for d in range(bound + 1):
        c = mbar.get(d, 0)
        for e, ve in v.items():
            c -= ve * abar.get(d - e, 0)
        if c < 0:
            raise NegativeCoefficient(d, c)
        if c:
            v[d] = c
    return v


def load_generator_series(data: Mapping, g, bound: int) -> Series:
    """Star series of the free graded-commutative algebra on listed
    generators, each {name, p, w, square_zero}; square_zero generators are
    exterior.  Counts monomials by star degree up to the bound."""
    g = StarGrading.from_slope(g)
    degrees = []
    for gen in data["generators"]:
        s = g.star(BiDegree(gen["p"], gen["w"]))
        if s <= 0:
            raise InvalidInput(
                f"generator {gen['name']} has star degree {s} <= 0; "
                "series would not be finite-dimensional per degree"
            )
        degrees.append((s, bool(gen.get("square_zero", False))))
    series: Series = {0: 1}
    for s, square_zero in degrees:
        grown: Series = {}
        for d, c in series.items():
            e = 0
            while d + e * s <= bound and (e <= 1 or not square_zero):
                grown[d + e * s] = grown.get(d + e * s, 0) + c
                e += 1
        series = grown
    return {d: c for d, c in sorted(series.items())}
