"""Degreewise-finite graded linear algebra over F2: spaces, maps, Hopf and
comodule axioms, coaction primitives, and the constructive cofree splitting.

Everything is truncated at a degree bound N and stored by structure
constants: a map keeps one bitmask row per source basis vector per degree
(see gf2).  Tensor-product coordinates are enumerated degree by degree in a
fixed order, so all computations are canonical in the stored basis order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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

    __slots__ = ("left", "right", "N", "_pairs")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.N = min(left.N, right.N)
        self._pairs: dict[int, list[tuple[int, int, int, int]]] = {}

    @property
    def name(self) -> str:
        return f"{self.left.name}(x){self.right.name}"

    def pairs(self, d: int) -> list[tuple[int, int, int, int]]:
        cached = self._pairs.get(d)
        if cached is None:
            cached = []
            for da in range(0, d + 1):
                la, lb = self.left.dim(da), self.right.dim(d - da)
                for i in range(la):
                    for j in range(lb):
                        cached.append((da, i, d - da, j))
            self._pairs[d] = cached
        return cached

    def dim(self, d: int) -> int:
        return len(self.pairs(d))

    def index(self, d: int, da: int, i: int, j: int) -> int:
        # Offset of (da, i, d-da, j) in the enumeration above.
        off = 0
        for e in range(0, da):
            off += self.left.dim(e) * self.right.dim(d - e)
        return off + i * self.right.dim(d - da) + j

    def labels(self, d: int) -> tuple[str, ...]:
        return tuple(
            f"{self.left.labels(da)[i]}(x){self.right.labels(db)[j]}"
            for da, i, db, j in self.pairs(d)
        )

    def degrees(self) -> list[int]:
        return [d for d in range(self.N + 1) if self.dim(d)]

    def describe(self, d: int, vec: int) -> str:
        labels = self.labels(d)
        parts = [labels[i] for i in range(len(labels)) if (vec >> i) & 1]
        return " + ".join(parts) if parts else "0"


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


def identity_map(space: GradedSpace) -> GradedMap:
    rows = {
        d: [1 << i for i in range(space.dim(d))] for d in space.degrees()
    }
    return GradedMap(f"id_{space.name}", space, space, rows)


def compose(name: str, f: GradedMap, g: GradedMap) -> GradedMap:
    """g after f (f first)."""
    rows = {
        d: [g.apply(d, r) for r in f.rows[d]]
        for d in range(min(f.N, g.N) + 1)
    }
    return GradedMap(name, f.source, g.target, rows)


def pair_apply(
    mult: GradedMap, pair_space: TensorSpace, da: int, va: int, db: int, vb: int
) -> int:
    """Image of va (x) vb under a map out of pair_space (bilinear expand)."""
    d = da + db
    if d > mult.N:
        raise InvalidStructure(f"product degree {d} beyond truncation")
    out = 0
    rows = mult.rows[d]
    a = va
    i = 0
    while a:
        if a & 1:
            b = vb
            j = 0
            while b:
                if b & 1:
                    out ^= rows[pair_space.index(d, da, i, j)]
                b >>= 1
                j += 1
        a >>= 1
        i += 1
    return out


@dataclass
class HopfData:
    """A connected graded Hopf algebra by structure constants up to N."""

    A: GradedSpace
    unit: GradedMap      # k -> A
    counit: GradedMap    # A -> k
    mult: GradedMap      # A(x)A -> A
    comult: GradedMap    # A -> A(x)A
    N: int = field(default=0)

    def __post_init__(self):
        if self.N == 0:
            self.N = self.A.N
        self.AA = TensorSpace(self.A, self.A)

    @property
    def unit_vec(self) -> int:
        return self.unit.rows[0][0] if self.unit.rows[0] else 0

    def mult_apply(self, da: int, va: int, db: int, vb: int) -> int:
        """Product of the elements va (degree da) and vb (degree db)."""
        return pair_apply(self.mult, self.AA, da, va, db, vb)


@dataclass
class ComoduleData:
    """A connected comodule algebra over a Hopf algebra, by structure
    constants up to N."""

    M: GradedSpace
    unit: GradedMap      # k -> M
    mult: GradedMap      # M(x)M -> M
    coaction: GradedMap  # M -> M(x)A
    hopf: HopfData
    N: int = field(default=0)

    def __post_init__(self):
        if self.N == 0:
            self.N = min(self.M.N, self.hopf.N)
        self.MM = TensorSpace(self.M, self.M)
        self.MA = TensorSpace(self.M, self.hopf.A)

    @property
    def unit_vec(self) -> int:
        return self.unit.rows[0][0] if self.unit.rows[0] else 0

    def mult_apply(self, da: int, va: int, db: int, vb: int) -> int:
        return pair_apply(self.mult, self.MM, da, va, db, vb)


class Violation(NamedTuple):
    axiom: str
    degree: int
    detail: str

    def __str__(self):
        return f"{self.axiom} violated in degree {self.degree}: {self.detail}"


def _pairs_of(vec: int, pairs):
    out = []
    i = 0
    while vec:
        if vec & 1:
            out.append(pairs[i])
        vec >>= 1
        i += 1
    return out


def validate_hopf(H: HopfData, N: int | None = None) -> list[Violation]:
    """Check every Hopf axiom degree by degree; an empty report is valid."""
    N = H.N if N is None else min(N, H.N)
    A, AA = H.A, H.AA
    out: list[Violation] = []

    if A.dim(0) != 1:
        out.append(Violation("connected", 0, f"dim A_0 = {A.dim(0)}"))
        return out
    one = H.unit_vec
    if one == 0:
        out.append(Violation("unit", 0, "unit map is zero"))
        return out
    if H.counit.apply(0, one) != 1:
        out.append(Violation("counit_splits_unit", 0, "counit(1) != 1"))

    for d in range(0, N + 1):
        for i in range(A.dim(d)):
            label = A.labels(d)[i]
            # Unit laws.
            left = H.mult_apply(0, one, d, 1 << i)
            right = H.mult_apply(d, 1 << i, 0, one)
            if left != 1 << i:
                out.append(Violation("left_unit", d, label))
            if right != 1 << i:
                out.append(Violation("right_unit", d, label))
            # Counit laws on the comultiplication.
            psi = H.comult.row(d, i)
            eps_id = 0
            id_eps = 0
            for da, ia, db, jb in _pairs_of(psi, AA.pairs(d)):
                if da == 0 and H.counit.apply(0, 1 << ia):
                    eps_id ^= 1 << jb
                if db == 0 and H.counit.apply(0, 1 << jb):
                    id_eps ^= 1 << ia
            if eps_id != 1 << i:
                out.append(Violation("counit_left", d, label))
            if id_eps != 1 << i:
                out.append(Violation("counit_right", d, label))
            # Counit must vanish on positive degrees.
            if d > 0 and H.counit.row(d, i) != 0:
                out.append(Violation("counit_graded", d, label))
            # Coassociativity: expand both routes into triple coordinates.
            lhs: set = set()
            rhs: set = set()
            for da, ia, db, jb in _pairs_of(psi, AA.pairs(d)):
                for ea, xa, eb, xb in _pairs_of(
                    H.comult.row(da, ia), AA.pairs(da)
                ):
                    lhs ^= {(ea, xa, eb, xb, db, jb)}
                for ea, xa, eb, xb in _pairs_of(
                    H.comult.row(db, jb), AA.pairs(db)
                ):
                    rhs ^= {(da, ia, ea, xa, eb, xb)}
            if lhs != rhs:
                out.append(Violation("coassociativity", d, label))

        # Associativity and bialgebra compatibility on pair bases.
        for da, ia, db, jb in AA.pairs(d):
            label = f"{A.labels(da)[ia]}(x){A.labels(db)[jb]}"
            # Bialgebra: comult(mult(x, y)) = comult(x) * comult(y).
            prod = H.mult_apply(da, 1 << ia, db, 1 << jb)
            lhs_pairs: set = set()
            for idx in range(A.dim(d)):
                if (prod >> idx) & 1:
                    for tup in _pairs_of(H.comult.row(d, idx), AA.pairs(d)):
                        lhs_pairs ^= {tup}
            rhs_pairs: set = set()
            for d1, x1, d2, x2 in _pairs_of(
                H.comult.row(da, ia), AA.pairs(da)
            ):
                for e1, y1, e2, y2 in _pairs_of(
                    H.comult.row(db, jb), AA.pairs(db)
                ):
                    left = H.mult_apply(d1, 1 << x1, e1, 1 << y1)
                    right = H.mult_apply(d2, 1 << x2, e2, 1 << y2)
                    fl = d1 + e1
                    fr = d2 + e2
                    li = 0
                    while left:
                        if left & 1:
                            ri = 0
                            r = right
                            while r:
                                if r & 1:
                                    rhs_pairs ^= {(fl, li, fr, ri)}
                                r >>= 1
                                ri += 1
                        left >>= 1
                        li += 1
            if lhs_pairs != rhs_pairs:
                out.append(Violation("bialgebra", d, label))
            # Associativity against every third factor.
            for dc in range(0, N - d + 1):
                for kc in range(A.dim(dc)):
                    l1 = H.mult_apply(da + db, prod, dc, 1 << kc)
                    inner = H.mult_apply(db, 1 << jb, dc, 1 << kc)
                    l2 = H.mult_apply(da, 1 << ia, db + dc, inner)
                    if l1 != l2:
                        out.append(
                            Violation(
                                "associativity",
                                d + dc,
                                f"{label}(x){A.labels(dc)[kc]}",
                            )
                        )
    return _dedup(out)


def validate_comodule(Mc: ComoduleData, N: int | None = None) -> list[Violation]:
    """Comodule-algebra axioms: counital + coassociative coaction that is an
    algebra map; also basic algebra axioms on M itself."""
    N = Mc.N if N is None else min(N, Mc.N)
    M, A, MA = Mc.M, Mc.hopf.A, Mc.MA
    AA = Mc.hopf.AA
    out: list[Violation] = []

    if M.dim(0) != 1:
        out.append(Violation("connected", 0, f"dim M_0 = {M.dim(0)}"))
        return out
    one = Mc.unit_vec
    if one == 0:
        out.append(Violation("unit", 0, "unit map is zero"))
        return out

    eps = Mc.hopf.counit
    for d in range(0, N + 1):
        for i in range(M.dim(d)):
            label = M.labels(d)[i]
            left = Mc.mult_apply(0, one, d, 1 << i)
            right = Mc.mult_apply(d, 1 << i, 0, one)
            if left != 1 << i:
                out.append(Violation("left_unit", d, label))
            if right != 1 << i:
                out.append(Violation("right_unit", d, label))
            psi = Mc.coaction.row(d, i)
            # Counital: (id (x) counit) psi = id.
            id_eps = 0
            for dm, im, da, ja in _pairs_of(psi, MA.pairs(d)):
                if da == 0 and eps.apply(0, 1 << ja):
                    id_eps ^= 1 << im
            if id_eps != 1 << i:
                out.append(Violation("coaction_counital", d, label))
            # Coassociative: (psi (x) id) psi = (id (x) comult) psi.
            lhs: set = set()
            rhs: set = set()
            for dm, im, da, ja in _pairs_of(psi, MA.pairs(d)):
                for em, xm, ea, xa in _pairs_of(
                    Mc.coaction.row(dm, im), MA.pairs(dm)
                ):
                    lhs ^= {(em, xm, ea, xa, da, ja)}
                for e1, y1, e2, y2 in _pairs_of(
                    Mc.hopf.comult.row(da, ja), AA.pairs(da)
                ):
                    rhs ^= {(dm, im, e1, y1, e2, y2)}
            if lhs != rhs:
                out.append(Violation("coaction_coassociative", d, label))

        # Coaction is an algebra map.
        for da, ia, db, jb in Mc.MM.pairs(d):
            label = f"{M.labels(da)[ia]}(x){M.labels(db)[jb]}"
            prod = Mc.mult_apply(da, 1 << ia, db, 1 << jb)
            lhs_pairs: set = set()
            for idx in range(M.dim(d)):
                if (prod >> idx) & 1:
                    for tup in _pairs_of(Mc.coaction.row(d, idx), MA.pairs(d)):
                        lhs_pairs ^= {tup}
            rhs_pairs: set = set()
            for d1, x1, d2, x2 in _pairs_of(
                Mc.coaction.row(da, ia), MA.pairs(da)
            ):
                for e1, y1, e2, y2 in _pairs_of(
                    Mc.coaction.row(db, jb), MA.pairs(db)
                ):
                    left = Mc.mult_apply(d1, 1 << x1, e1, 1 << y1)
                    right = Mc.hopf.mult_apply(d2, 1 << x2, e2, 1 << y2)
                    fl, fr = d1 + e1, d2 + e2
                    li = 0
                    lv = left
                    while lv:
                        if lv & 1:
                            ri = 0
                            rv = right
                            while rv:
                                if rv & 1:
                                    rhs_pairs ^= {(fl, li, fr, ri)}
                                rv >>= 1
                                ri += 1
                        lv >>= 1
                        li += 1
            if lhs_pairs != rhs_pairs:
                out.append(Violation("coaction_algebra_map", d, label))
    return _dedup(out)


def _dedup(violations: list[Violation]) -> list[Violation]:
    seen = set()
    out = []
    for v in violations:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


class Primitives(NamedTuple):
    space: GradedSpace
    inclusion: GradedMap  # V -> M


def primitives(Mc: ComoduleData, N: int | None = None) -> Primitives:
    """Per degree, the kernel of (coaction - id (x) unit): the elements m
    with psi(m) = m (x) 1, with its canonical inclusion into M."""
    N = Mc.N if N is None else min(N, Mc.N)
    M, MA = Mc.M, Mc.MA
    one = Mc.hopf.unit_vec
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


def mm_split(
    Mc: ComoduleData, phi: GradedMap, N: int | None = None
) -> MMSplit:
    """Constructive cofree splitting: compute the coaction primitives V,
    choose the canonical splitting alpha: M -> V, and certify that
    theta = (alpha (x) id) psi is a degreewise isomorphism M -> V (x) A.

    phi must be a degreewise-surjective map of comodule algebras M -> A;
    surjectivity and both compatibilities are checked first.
    """
    N = Mc.N if N is None else min(N, Mc.N)
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
    if phi.apply(0, Mc.unit_vec) != H.unit_vec:
        raise InvalidStructure("phi does not preserve the unit")
    for d in range(0, N + 1):
        for da, ia, db, jb in Mc.MM.pairs(d):
            lhs = phi.apply(d, Mc.mult_apply(da, 1 << ia, db, 1 << jb))
            rhs = H.mult_apply(
                da, phi.apply(da, 1 << ia), db, phi.apply(db, 1 << jb)
            )
            if lhs != rhs:
                raise InvalidStructure(
                    f"phi is not an algebra map in degree {d}"
                )
    # ... and a comodule map: (phi (x) id) psi_M = psi_A phi.
    AA = H.AA
    for d in range(0, N + 1):
        for i in range(M.dim(d)):
            lhs: set = set()
            for dm, im, da, ja in _pairs_of(Mc.coaction.row(d, i), MA.pairs(d)):
                img = phi.apply(dm, 1 << im)
                xi = 0
                while img:
                    if img & 1:
                        lhs ^= {(dm, xi, da, ja)}
                    img >>= 1
                    xi += 1
            rhs: set = set()
            for idx in range(A.dim(d)):
                if (phi.row(d, i) >> idx) & 1:
                    for tup in _pairs_of(H.comult.row(d, idx), AA.pairs(d)):
                        rhs ^= {tup}
            if lhs != rhs:
                raise InvalidStructure(
                    f"phi is not a comodule map in degree {d}"
                )

    prim = primitives(Mc, N)
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
        rows = []
        for i in range(dim):
            out = 0
            for dm, im, da, ja in _pairs_of(Mc.coaction.row(d, i), MA.pairs(d)):
                av = alpha.apply(dm, 1 << im)
                vi = 0
                while av:
                    if av & 1:
                        out ^= 1 << VA.index(d, dm, vi, ja)
                    av >>= 1
                    vi += 1
            rows.append(out)
        theta_rows[d] = rows
        ok = VA.dim(d) == dim and gf2.is_invertible(rows, dim)
        cert.append(DegreeCertificate(d, dim, VA.dim(d), ok))
        if not ok:
            raise SplitFailed(d)
    theta = GradedMap("theta", M, VA, theta_rows)
    return MMSplit(V, alpha, theta, incl, tuple(cert))
