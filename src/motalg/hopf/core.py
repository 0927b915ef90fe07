"""Degreewise-finite graded linear algebra over F2: spaces, maps, Hopf and
comodule axioms, coaction primitives, and the constructive cofree splitting.

Everything is truncated at a degree bound N and stored by structure
constants.  Each space carries its own N, and every object built from
spaces and maps is truncated at the least N among them, the rule
GradedMap.N follows.  A map keeps one bitmask row per source basis vector
per degree (see gf2).  Tensor-product coordinates are enumerated degree by
degree in a fixed order, so all computations are canonical in the stored
basis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .. import gf2


class InvalidStructure(Exception):
    """Structure constants that do not satisfy a required axiom."""


class MalformedStructure(InvalidStructure):
    """Structure data of the wrong shape (degrees, labels, rows, missing
    pieces), found before any axiom is checked."""


class NotConnected(Exception):
    pass


class NotSurjective(Exception):
    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"map fails to surject in degree {degree}")


class SplitFailed(Exception):
    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"splitting map is not an isomorphism in degree {degree}; "
            "some upstream axiom must be violated"
        )


class GradedSpace:
    """A graded F2-vector space with ordered basis labels per degree,
    supported in degrees 0..N."""

    __slots__ = ("name", "basis", "N")

    def __init__(self, name: str, basis: dict[int, Iterable[str]], N: int):
        clean: dict[int, tuple[str, ...]] = {}
        for d, labels in basis.items():
            labels = tuple(labels)
            if not labels:
                continue
            if d < 0 or d > N:
                raise MalformedStructure(
                    f"space {name}: degree {d} outside 0..{N}"
                )
            if len(set(labels)) != len(labels):
                raise MalformedStructure(
                    f"space {name}: duplicate labels in degree {d}"
                )
            clean[d] = labels
        self.name = name
        self.basis = dict(sorted(clean.items()))
        self.N = N

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int) -> tuple[str, ...]:
        return self.basis.get(d, ())

    def degrees(self) -> list[int]:
        return list(self.basis)

    def dims(self) -> dict[int, int]:
        return {d: len(ls) for d, ls in self.basis.items()}

    def describe(self, d: int, vec: int) -> str:
        labels = self.labels(d)
        parts = [labels[i] for i in range(len(labels)) if (vec >> i) & 1]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"GradedSpace({self.name}, dims={self.dims()})"


def k_space(N: int) -> GradedSpace:
    return GradedSpace("k", {0: ("1",)}, N)


class TensorSpace:
    """The tensor product of two spaces, with degree-d basis enumerated as
    (lower left degree first, then left index, then right index)."""

    __slots__ = ("left", "right", "N", "_pairs", "_blocks")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.N = min(left.N, right.N)
        self._pairs: dict[int, list[tuple[int, int, int, int]]] = {}
        # d -> per left degree da, (offset of its block, right dimension).
        self._blocks: dict[int, list[tuple[int, int]]] = {}

    @property
    def name(self) -> str:
        return f"{self.left.name}(x){self.right.name}"

    def pairs(self, d: int) -> list[tuple[int, int, int, int]]:
        cached = self._pairs.get(d)
        if cached is None:
            cached = []
            blocks = []
            for da in range(0, d + 1):
                la, lb = self.left.dim(da), self.right.dim(d - da)
                blocks.append((len(cached), lb))
                for i in range(la):
                    for j in range(lb):
                        cached.append((da, i, d - da, j))
            self._pairs[d] = cached
            self._blocks[d] = blocks
        return cached

    def block(self, d: int, da: int) -> tuple[int, int]:
        """Offset of the (da, d - da) block in pairs(d), and the dimension
        of its right factor."""
        if d not in self._blocks:
            self.pairs(d)
        return self._blocks[d][da]

    def dim(self, d: int) -> int:
        return len(self.pairs(d))

    def index(self, d: int, da: int, i: int, j: int) -> int:
        # Position of (da, i, d-da, j) in the enumeration above.
        off, rdim = self.block(d, da)
        return off + i * rdim + j

    def labels(self, d: int) -> tuple[str, ...]:
        return tuple(
            f"{self.left.labels(da)[i]}(x){self.right.labels(db)[j]}"
            for da, i, db, j in self.pairs(d)
        )

    def degrees(self) -> list[int]:
        return [d for d in range(self.N + 1) if self.dim(d)]


class GradedMap:
    """A degree-preserving linear map given by per-degree bitmask rows
    (row i = image of the i-th source basis vector)."""

    __slots__ = ("name", "source", "target", "rows", "N")

    def __init__(self, name: str, source, target, rows: dict[int, list[int]]):
        self.name = name
        self.source = source
        self.target = target
        self.N = min(source.N, target.N)
        full: dict[int, list[int]] = {}
        for d in range(0, self.N + 1):
            got = list(rows.get(d, []))
            want = source.dim(d)
            if len(got) < want:
                got += [0] * (want - len(got))
            elif len(got) > want:
                raise MalformedStructure(
                    f"map {name}: {len(got)} rows in degree {d}, "
                    f"source has dimension {want}"
                )
            top = 1 << target.dim(d)
            for r in got:
                if r < 0 or r >= top:
                    raise MalformedStructure(
                        f"map {name}: row out of range in degree {d}"
                    )
            full[d] = got
        self.rows = full

    def apply(self, d: int, vec: int) -> int:
        return gf2.mat_vec(self.rows[d], vec)

    def row(self, d: int, i: int) -> int:
        return self.rows[d][i]

    def __repr__(self):
        return f"GradedMap({self.name}: {self.source.name} -> {self.target.name})"


def zero_map(name: str, source, target) -> GradedMap:
    return GradedMap(name, source, target, {})


def least_N(*parts) -> int:
    """The truncation of an object made of these spaces and maps."""
    return min(part.N for part in parts)


def identity_rows(space) -> dict[int, list[int]]:
    """Rows sending the i-th basis vector of each degree to the i-th."""
    return {d: [1 << i for i in range(space.dim(d))] for d in space.degrees()}


def identity_map(space: GradedSpace) -> GradedMap:
    return GradedMap(f"id_{space.name}", space, space, identity_rows(space))


def _bits(vec: int) -> Iterator[int]:
    """Positions of the set bits of vec, lowest first."""
    while vec:
        low = vec & -vec
        yield low.bit_length() - 1
        vec ^= low


def _pairs_of(vec: int, pairs) -> list:
    return [pairs[i] for i in _bits(vec)]


def pair_apply(
    mult: GradedMap, pair_space: TensorSpace, da: int, va: int, db: int, vb: int
) -> int:
    """Image of va (x) vb under a map out of pair_space (bilinear expand)."""
    d = da + db
    if d > mult.N:
        raise InvalidStructure(f"product degree {d} beyond truncation")
    out = 0
    rows = mult.rows[d]
    off, rdim = pair_space.block(d, da)
    for i in _bits(va):
        base = off + i * rdim
        for j in _bits(vb):
            out ^= rows[base + j]
    return out


def _left_apply(
    f: GradedMap, src: TensorSpace, dst: TensorSpace, d: int, vec: int
) -> int:
    """(f (x) id)(vec) for vec in src_d, in the coordinates of dst_d."""
    out = 0
    for da, ia, _, jb in _pairs_of(vec, src.pairs(d)):
        off, rdim = dst.block(d, da)
        for k in _bits(f.rows[da][ia]):
            out ^= 1 << (off + k * rdim + jb)
    return out


@dataclass
class GradedAlgebra:
    """A graded unital algebra by structure constants up to N."""

    space: GradedSpace
    unit: GradedMap   # k -> space
    mult: GradedMap   # space (x) space -> space

    def __post_init__(self):
        self.SS = TensorSpace(self.space, self.space)
        self.N = least_N(self.unit, self.mult)

    @property
    def unit_vec(self) -> int:
        return self.unit.rows[0][0] if self.unit.rows[0] else 0

    def mult_apply(self, da: int, va: int, db: int, vb: int) -> int:
        return pair_apply(self.mult, self.SS, da, va, db, vb)

    def basis_product(self, da: int, i: int, db: int, j: int) -> int:
        """Product of the i-th basis vector of degree da and the j-th of
        degree db, read off the structure constants."""
        d = da + db
        return self.mult.rows[d][self.SS.index(d, da, i, j)]


@dataclass
class HopfData:
    """A connected graded Hopf algebra by structure constants up to N."""

    A: GradedSpace
    unit: GradedMap      # k -> A
    counit: GradedMap    # A -> k
    mult: GradedMap      # A(x)A -> A
    comult: GradedMap    # A -> A(x)A

    def __post_init__(self):
        self.algebra = GradedAlgebra(self.A, self.unit, self.mult)
        self.AA = self.algebra.SS
        self.N = least_N(self.algebra, self.counit, self.comult)


@dataclass
class ComoduleData:
    """A connected comodule algebra over a Hopf algebra, by structure
    constants up to N."""

    M: GradedSpace
    unit: GradedMap      # k -> M
    mult: GradedMap      # M(x)M -> M
    coaction: GradedMap  # M -> M(x)A
    hopf: HopfData

    def __post_init__(self):
        self.algebra = GradedAlgebra(self.M, self.unit, self.mult)
        self.MM = self.algebra.SS
        self.MA = TensorSpace(self.M, self.hopf.A)
        self.N = least_N(self.algebra, self.coaction, self.hopf)


class Violation(NamedTuple):
    axiom: str
    degree: int
    detail: str

    def __str__(self):
        return f"{self.axiom} violated in degree {self.degree}: {self.detail}"


def _dedup(violations: list[Violation]) -> list[Violation]:
    seen = set()
    out = []
    for v in violations:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _pair_label(space: GradedSpace, da: int, ia: int, db: int, jb: int) -> str:
    return f"{space.labels(da)[ia]}(x){space.labels(db)[jb]}"


# ---------------------------------------------------------------------------
# Axiom checkers.  Each axiom is written once, as a factory returning a check
# on one basis element, called as check(d, i), or on one basis pair of a
# tensor square, called as check(d, k, da, ia, db, jb) with k the pair's
# position in pairs(d).  A check returns the violations it finds there, and
# the validators below differ only in which checks they hand to _walk.

ElementCheck = Callable[[int, int], list]
PairCheck = Callable[[int, int, int, int, int, int], list]


def _walk(
    space: GradedSpace,
    pair_space: TensorSpace,
    N: int,
    element_checks: Sequence[ElementCheck],
    pair_checks: Sequence[PairCheck] = (),
) -> list[Violation]:
    """In each degree d up to N: every element check on each basis element
    of space, then every pair check on each basis pair of pair_space.  The
    report keeps that order."""
    out: list[Violation] = []
    for d in range(0, N + 1):
        for i in range(space.dim(d)):
            for check in element_checks:
                out += check(d, i)
        if pair_checks:
            for k, (da, ia, db, jb) in enumerate(pair_space.pairs(d)):
                for check in pair_checks:
                    out += check(d, k, da, ia, db, jb)
    return out


def _unit_laws(alg: GradedAlgebra) -> ElementCheck:
    """1 * x = x = x * 1."""
    one = alg.unit_vec

    def check(d, i):
        x = 1 << i
        out = []
        if alg.mult_apply(0, one, d, x) != x:
            out.append(Violation("left_unit", d, alg.space.labels(d)[i]))
        if alg.mult_apply(d, x, 0, one) != x:
            out.append(Violation("right_unit", d, alg.space.labels(d)[i]))
        return out
    return check


def _commutativity(alg: GradedAlgebra) -> PairCheck:
    """x * y = y * x."""
    def check(d, k, da, ia, db, jb):
        if alg.mult.rows[d][k] == alg.basis_product(db, jb, da, ia):
            return []
        return [Violation("commutativity", d,
                          _pair_label(alg.space, da, ia, db, jb))]
    return check


def _associativity(alg: GradedAlgebra, N: int) -> PairCheck:
    """(x * y) * z = x * (y * z) against every basis z up to degree N."""
    S, SS, rows = alg.space, alg.SS, alg.mult.rows

    def check(d, k, da, ia, db, jb):
        xy = list(_bits(rows[d][k]))
        out = []
        for dc in range(0, N - d + 1):
            e = d + dc
            row_e = rows[e]
            off_l, _ = SS.block(e, d)            # (xy) (x) z, right dim = dim S_dc
            off_r, rdim_r = SS.block(e, da)      # x (x) (yz)
            off_yz, _ = SS.block(db + dc, db)    # y (x) z
            n = S.dim(dc)
            base_r = off_r + ia * rdim_r
            yz_row = rows[db + dc]
            for kc in range(n):
                yz = yz_row[off_yz + jb * n + kc]
                if not (xy or yz):
                    continue
                lhs = 0
                for p in xy:
                    lhs ^= row_e[off_l + p * n + kc]
                rhs = 0
                for q in _bits(yz):
                    rhs ^= row_e[base_r + q]
                if lhs != rhs:
                    label = _pair_label(S, da, ia, db, jb)
                    out.append(Violation("associativity", e,
                                         f"{label}(x){S.labels(dc)[kc]}"))
        return out
    return check


def _counit(
    space, coaction: GradedMap, pair_space: TensorSpace, counit: GradedMap,
    left: str | None, right: str,
) -> ElementCheck:
    """(id (x) counit) coaction = id, reported as `right`; and, when `left`
    names it, (counit (x) id) coaction = id."""
    eps = counit.rows[0]

    def check(d, i):
        eps_id = 0
        id_eps = 0
        for da, ia, db, jb in _pairs_of(coaction.rows[d][i], pair_space.pairs(d)):
            if left and da == 0 and eps[ia]:
                eps_id ^= 1 << jb
            if db == 0 and eps[jb]:
                id_eps ^= 1 << ia
        out = []
        if left and eps_id != 1 << i:
            out.append(Violation(left, d, space.labels(d)[i]))
        if id_eps != 1 << i:
            out.append(Violation(right, d, space.labels(d)[i]))
        return out
    return check


def _coassociativity(
    space, coaction: GradedMap, pair_space: TensorSpace,
    comult: GradedMap, AA: TensorSpace, name: str,
) -> ElementCheck:
    """(coaction (x) id) coaction = (id (x) comult) coaction, both expanded
    into triple coordinates."""
    def check(d, i):
        lhs: set = set()
        rhs: set = set()
        for dm, im, da, ja in _pairs_of(coaction.rows[d][i], pair_space.pairs(d)):
            lhs.symmetric_difference_update(
                (*t, da, ja)
                for t in _pairs_of(coaction.rows[dm][im], pair_space.pairs(dm)))
            rhs.symmetric_difference_update(
                (dm, im, *t) for t in _pairs_of(comult.rows[da][ja], AA.pairs(da)))
        return [] if lhs == rhs else [Violation(name, d, space.labels(d)[i])]
    return check


def _coaction_multiplicative(
    alg: GradedAlgebra, coaction: GradedMap, pair_space: TensorSpace,
    coalg: GradedAlgebra, name: str,
) -> PairCheck:
    """coaction(x * y) = coaction(x) * coaction(y), the right side
    multiplied factorwise in alg (x) coalg."""
    def check(d, k, da, ia, db, jb):
        lhs = coaction.apply(d, alg.mult.rows[d][k])
        rhs = 0
        for d1, x1, d2, x2 in _pairs_of(coaction.rows[da][ia], pair_space.pairs(da)):
            for e1, y1, e2, y2 in _pairs_of(
                coaction.rows[db][jb], pair_space.pairs(db)
            ):
                right = coalg.basis_product(d2, x2, e2, y2)
                if right:
                    off, rdim = pair_space.block(d, d1 + e1)
                    for li in _bits(alg.basis_product(d1, x1, e1, y1)):
                        rhs ^= right << (off + li * rdim)
        if lhs == rhs:
            return []
        return [Violation(name, d, _pair_label(alg.space, da, ia, db, jb))]
    return check


def validate_algebra(
    alg: GradedAlgebra, commutative: bool = False
) -> list[Violation]:
    """Unit laws and associativity, and commutativity when asked for."""
    if alg.unit_vec == 0:
        return [Violation("unit", 0, "unit map is zero")]
    pair_checks = [_commutativity(alg)] if commutative else []
    pair_checks.append(_associativity(alg, alg.N))
    return _walk(alg.space, alg.SS, alg.N, [_unit_laws(alg)], pair_checks)


def algebra_map_violations(
    f: GradedMap, src: GradedAlgebra, dst: GradedAlgebra
) -> list[Violation]:
    """f(1) = 1 and f(x * y) = f(x) * f(y)."""
    out: list[Violation] = []
    if f.apply(0, src.unit_vec) != dst.unit_vec:
        out.append(Violation(f"{f.name}_unital", 0, "f(1) != 1"))

    def multiplicative(d, k, da, ia, db, jb):
        lhs = f.apply(d, src.mult.rows[d][k])
        if lhs == dst.mult_apply(da, f.rows[da][ia], db, f.rows[db][jb]):
            return []
        return [Violation(f"{f.name}_multiplicative", d,
                          _pair_label(src.space, da, ia, db, jb))]
    return out + _walk(src.space, src.SS, least_N(f, src, dst), (),
                       [multiplicative])


def validate_hopf(H: HopfData) -> list[Violation]:
    """Check every Hopf axiom degree by degree; an empty report is valid.
    The comultiplication is checked as A coacting on itself."""
    A, AA, counit = H.A, H.AA, H.counit
    if A.dim(0) != 1:
        return [Violation("connected", 0, f"dim A_0 = {A.dim(0)}")]
    one = H.algebra.unit_vec
    if one == 0:
        return [Violation("unit", 0, "unit map is zero")]
    out: list[Violation] = []
    if counit.apply(0, one) != 1:
        out.append(Violation("counit_splits_unit", 0, "counit(1) != 1"))
    # A nonzero counit row above degree 0 has no target in k, so GradedMap
    # already refused it as malformed.
    out += _walk(A, AA, H.N, [
        _unit_laws(H.algebra),
        _counit(A, H.comult, AA, counit, "counit_left", "counit_right"),
        _coassociativity(A, H.comult, AA, H.comult, AA, "coassociativity"),
    ], [
        _coaction_multiplicative(H.algebra, H.comult, AA, H.algebra, "bialgebra"),
        _associativity(H.algebra, H.N),
    ])
    return _dedup(out)


def validate_comodule(Mc: ComoduleData) -> list[Violation]:
    """Comodule-algebra axioms: M is connected, unital and associative, and
    its coaction is counital ((id (x) counit) psi = id), coassociative and
    an algebra map."""
    M, MA, H = Mc.M, Mc.MA, Mc.hopf
    if M.dim(0) != 1:
        return [Violation("connected", 0, f"dim M_0 = {M.dim(0)}")]
    if Mc.algebra.unit_vec == 0:
        return [Violation("unit", 0, "unit map is zero")]
    return _dedup(_walk(M, Mc.MM, Mc.N, [
        _unit_laws(Mc.algebra),
        _counit(M, Mc.coaction, MA, H.counit, None, "coaction_counital"),
        _coassociativity(M, Mc.coaction, MA, H.comult, H.AA,
                         "coaction_coassociative"),
    ], [
        _coaction_multiplicative(Mc.algebra, Mc.coaction, MA, H.algebra,
                                 "coaction_algebra_map"),
        _associativity(Mc.algebra, Mc.N),
    ]))


class Primitives(NamedTuple):
    space: GradedSpace
    inclusion: GradedMap  # V -> M


def primitives(Mc: ComoduleData) -> Primitives:
    """Per degree, the kernel of (coaction - id (x) unit): the elements m
    with psi(m) = m (x) 1, with its canonical inclusion into M."""
    N = Mc.N
    M, MA = Mc.M, Mc.MA
    one = Mc.hopf.algebra.unit_vec
    basis: dict[int, list[str]] = {}
    rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        dim = M.dim(d)
        if dim == 0:
            continue
        mat = []
        for i in range(dim):
            row = Mc.coaction.row(d, i)
            unit_bit = one.bit_length() - 1  # A_0 is one-dimensional
            row ^= 1 << MA.index(d, d, i, unit_bit) if one else 0
            mat.append(row)
        kernel = gf2.kernel_basis(mat)
        if kernel:
            basis[d] = [f"pm{d}_{j}" for j in range(len(kernel))]
            rows[d] = kernel
    space = GradedSpace("PM", basis, N)
    inclusion = GradedMap("incl_PM", space, M, rows)
    return Primitives(space, inclusion)


class DegreeCertificate(NamedTuple):
    degree: int
    dim_source: int
    dim_target: int
    invertible: bool


class MMSplit(NamedTuple):
    V: GradedSpace
    alpha: GradedMap           # M -> V, splitting the inclusion
    theta: GradedMap           # M -> V (x) A, the certified isomorphism
    inclusion: GradedMap       # V -> M
    certificate: tuple[DegreeCertificate, ...]


def mm_split(Mc: ComoduleData, phi: GradedMap) -> MMSplit:
    """Constructive cofree splitting: compute the coaction primitives V,
    choose the canonical splitting alpha: M -> V, and certify that
    theta = (alpha (x) id) psi is a degreewise isomorphism M -> V (x) A.

    phi must be a degreewise-surjective map of comodule algebras M -> A;
    surjectivity and both compatibilities are checked first.
    """
    N = Mc.N
    M, A, MA = Mc.M, Mc.hopf.A, Mc.MA
    H = Mc.hopf
    if A.dim(0) != 1 or M.dim(0) != 1:
        raise NotConnected(
            f"need one-dimensional degree 0; got dim M_0 = {M.dim(0)}, "
            f"dim A_0 = {A.dim(0)}"
        )

    for d in range(0, N + 1):
        if gf2.rank(phi.rows[d]) != A.dim(d):
            raise NotSurjective(d)

    # phi is an algebra map ...
    bad = algebra_map_violations(phi, Mc.algebra, H.algebra)
    if bad and bad[0].axiom == f"{phi.name}_unital":
        raise InvalidStructure("phi does not preserve the unit")
    if bad:
        raise InvalidStructure(
            f"phi is not an algebra map in degree {bad[0].degree}"
        )
    # ... and a comodule map: (phi (x) id) psi_M = psi_A phi.
    for d in range(0, N + 1):
        for i in range(M.dim(d)):
            lhs = _left_apply(phi, MA, H.AA, d, Mc.coaction.row(d, i))
            if lhs != H.comult.apply(d, phi.row(d, i)):
                raise InvalidStructure(
                    f"phi is not a comodule map in degree {d}"
                )

    prim = primitives(Mc)
    V = GradedSpace("V", {d: prim.space.labels(d) for d in prim.space.degrees()}, N)
    incl = GradedMap("incl_V", V, M, dict(prim.inclusion.rows))

    # Canonical splitting alpha: complete the primitive basis to a basis of
    # M_d by scanning standard vectors in stored order, then project.
    alpha_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        dim = M.dim(d)
        if dim == 0:
            continue
        prim_rows = list(incl.rows[d])
        added = gf2.complete_basis(prim_rows, dim)
        U = prim_rows + added
        U_inv = gf2.inverse(U, dim)
        assert U_inv is not None
        mask = (1 << len(prim_rows)) - 1
        alpha_rows[d] = [U_inv[i] & mask for i in range(dim)]
    alpha = GradedMap("alpha", M, V, alpha_rows)

    # theta = (alpha (x) id) psi.
    VA = TensorSpace(V, A)
    theta_rows: dict[int, list[int]] = {}
    cert = []
    for d in range(0, N + 1):
        dim = M.dim(d)
        rows = [_left_apply(alpha, MA, VA, d, Mc.coaction.row(d, i))
                for i in range(dim)]
        theta_rows[d] = rows
        ok = VA.dim(d) == dim and gf2.is_invertible(rows, dim)
        cert.append(DegreeCertificate(d, dim, VA.dim(d), ok))
        if not ok:
            raise SplitFailed(d)
    theta = GradedMap("theta", M, VA, theta_rows)
    return MMSplit(V, alpha, theta, incl, tuple(cert))
