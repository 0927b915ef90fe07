"""Constructors for the standard test objects: exterior Hopf algebras, the
self-comodule, square-zero coefficient algebras, and twisted products C (x) A
with the cofree coaction."""

from __future__ import annotations

from itertools import combinations

from .algebroid import AlgebroidData, Cor22Input
from .core import (
    ComoduleData,
    GradedAlgebra,
    GradedMap,
    GradedSpace,
    HopfData,
    InvalidStructure,
    TensorSpace,
    _pairs_of,
    identity_rows,
    k_space,
)


def _monomial_label(names: tuple[str, ...]) -> str:
    return "*".join(names) if names else "1"


def exterior_hopf(gens: list[tuple[str, int]], N: int) -> HopfData:
    """The exterior Hopf algebra on primitive generators (label, degree),
    truncated at degree N.  Monomials are squarefree products; the coproduct
    of a monomial is the sum over splittings of its generator set."""
    for name, deg in gens:
        if deg <= 0:
            raise InvalidStructure(f"generator {name} needs positive degree")
    order = [name for name, _ in gens]
    degree_of = dict(gens)
    if len(degree_of) != len(gens):
        raise InvalidStructure("duplicate generator labels")

    monomials: dict[int, list[tuple[str, ...]]] = {}
    for r in range(0, len(order) + 1):
        for combo in combinations(order, r):
            d = sum(degree_of[n] for n in combo)
            if d <= N:
                monomials.setdefault(d, []).append(combo)
    basis = {
        d: tuple(_monomial_label(m) for m in monos)
        for d, monos in sorted(monomials.items())
    }
    A = GradedSpace("A", basis, N)
    index: dict[tuple[str, ...], tuple[int, int]] = {}
    for d, monos in monomials.items():
        for i, m in enumerate(monos):
            index[m] = (d, i)

    AA = TensorSpace(A, A)
    mult_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for da, ia, db, jb in AA.pairs(d):
            ma = monomials[da][ia]
            mb = monomials[db][jb]
            if set(ma) & set(mb):
                rows.append(0)
            else:
                prod = tuple(n for n in order if n in ma or n in mb)
                _, pi = index[prod]
                rows.append(1 << pi)
        mult_rows[d] = rows
    comult_rows: dict[int, list[int]] = {}
    for d, monos in monomials.items():
        rows = []
        for m in monos:
            out = 0
            for r in range(0, len(m) + 1):
                for left in combinations(m, r):
                    right = tuple(n for n in m if n not in left)
                    dl, il = index[left]
                    _, ir = index[right]
                    out ^= 1 << AA.index(d, dl, il, ir)
            rows.append(out)
        comult_rows[d] = rows

    k = k_space(N)
    unit = GradedMap("unit", k, A, {0: [1]})
    counit = GradedMap("counit", A, k, {0: [1]})
    mult = GradedMap("mult", AA, A, mult_rows)
    comult = GradedMap("comult", A, AA, comult_rows)
    return HopfData(A, unit, counit, mult, comult)


def self_comodule(H: HopfData) -> ComoduleData:
    """A coacting on itself by its comultiplication."""
    M = GradedSpace("M", {d: H.A.labels(d) for d in H.A.degrees()}, H.N)
    k = k_space(H.N)
    unit = GradedMap("unit_M", k, M, {0: H.unit.rows[0]})
    MM = TensorSpace(M, M)
    mult = GradedMap("mult_M", MM, M, dict(H.mult.rows))
    coaction = GradedMap("psi_M", M, TensorSpace(M, H.A), dict(H.comult.rows))
    return ComoduleData(M, unit, mult, coaction, H)


def square_zero_algebra(
    name: str, dims: dict[int, int], N: int
) -> GradedSpace:
    """A connected graded space with the stated positive-degree dimensions;
    products of positive-degree elements are zero (see planted_comodule)."""
    basis: dict[int, tuple[str, ...]] = {0: ("1",)}
    for d, n in sorted(dims.items()):
        if d <= 0:
            raise InvalidStructure("square-zero dims must sit in degree > 0")
        if n > 0:
            basis[d] = tuple(f"{name}{d}_{i}" for i in range(n))
    return GradedSpace(name, basis, N)


def planted_comodule(C: GradedSpace, H: HopfData) -> tuple[ComoduleData, GradedMap]:
    """The comodule algebra M = C (x) A with coaction id (x) comult and the
    square-zero product on C, together with phi = (counit (x) id): M -> A.

    The coaction primitives of M are exactly C (x) 1, so this is the
    standard planted instance with a known answer.
    """
    N = H.N
    A = H.A
    CA = TensorSpace(C, A)
    basis = {
        d: tuple(f"{C.labels(da)[i]}|{A.labels(db)[j]}"
                 for da, i, db, j in CA.pairs(d))
        for d in range(0, N + 1)
        if CA.dim(d)
    }
    M = GradedSpace("M", basis, N)

    AA = H.AA
    MM = TensorSpace(M, M)
    mult_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for da, ia, db, jb in MM.pairs(d):
            ca, xa, aa, ya = CA.pairs(da)[ia]
            cb, xb, ab, yb = CA.pairs(db)[jb]
            if ca > 0 and cb > 0:
                rows.append(0)
                continue
            cd, ci = (ca, xa) if cb == 0 else (cb, xb)
            prod = H.algebra.basis_product(aa, ya, ab, yb)
            out = 0
            zi = 0
            while prod:
                if prod & 1:
                    out ^= 1 << CA.index(d, cd, ci, zi)
                prod >>= 1
                zi += 1
            rows.append(out)
        mult_rows[d] = rows

    MA = TensorSpace(M, A)
    coaction_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for dc, ci, da, ai in CA.pairs(d):
            out = 0
            for e1, y1, e2, y2 in _pairs_of(H.comult.row(da, ai), AA.pairs(da)):
                mi = CA.index(dc + e1, dc, ci, y1)
                out ^= 1 << MA.index(d, dc + e1, mi, y2)
            rows.append(out)
        coaction_rows[d] = rows

    phi_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for dc, ci, da, ai in CA.pairs(d):
            rows.append(1 << ai if dc == 0 else 0)
        phi_rows[d] = rows

    k = k_space(N)
    unit = GradedMap("unit_M", k, M, {0: [1]})
    mult = GradedMap("mult_M", MM, M, mult_rows)
    coaction = GradedMap("psi_M", M, MA, coaction_rows)
    Mc = ComoduleData(M, unit, mult, coaction, H)
    phi = GradedMap("phi", M, A, phi_rows)
    return Mc, phi


# ---------------------------------------------------------------------------
# Algebroid-level instances: a polynomial base R = F2[t] with an exterior
# extension Gamma = R[x]/(x^2), the three standard pipeline inputs, and the
# pair of right-unit fixtures (one descending, one failing at deg x + deg y).


def _ones_rows(space) -> dict[int, list[int]]:
    """Rows sending every basis vector of space to the first target basis
    vector of its degree."""
    return {d: [1] * space.dim(d) for d in range(0, space.N + 1)}


def polynomial_base(N: int, var: str = "t") -> GradedAlgebra:
    """R = F2[t] with |t| = 1, truncated at N."""
    labels = {0: ("1",), **{d: (f"{var}^{d}",) for d in range(1, N + 1)}}
    R = GradedSpace("R", labels, N)
    RR = TensorSpace(R, R)
    k = k_space(N)
    return GradedAlgebra(
        R,
        GradedMap("unit_R", k, R, {0: [1]}),
        GradedMap("mult_R", RR, R, _ones_rows(RR)),
    )


def _monomial_space(name: str, gen: str, N: int, var: str = "t") -> GradedSpace:
    """Basis t^a x^e with e <= 1: per degree d >= 1 the two monomials
    (t^d, t^(d-1) x), ordered exterior-last."""
    basis: dict[int, tuple[str, ...]] = {0: ("1",)}
    for d in range(1, N + 1):
        power = f"{var}^{d}"
        mixed = gen if d == 1 else f"{var}^{d - 1}*{gen}"
        basis[d] = (power, mixed)
    return GradedSpace(name, basis, N)


def _monomial_algebra(name: str, gen: str, N: int) -> GradedAlgebra:
    """R[x]/(x^2) over R = F2[t], as a plain graded algebra.  Index 0 in
    each positive degree is the pure power, index 1 carries the generator."""
    S = _monomial_space(name, gen, N)
    SS = TensorSpace(S, S)

    def mono(d: int, i: int) -> tuple[int, int]:
        return (d - i, i) if d > 0 else (0, 0)

    def index_of(a: int, e: int) -> int:
        return e if a + e > 0 else 0

    mult_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for da, ia, db, jb in SS.pairs(d):
            a1, e1 = mono(da, ia)
            a2, e2 = mono(db, jb)
            if e1 + e2 > 1:
                rows.append(0)
            else:
                rows.append(1 << index_of(a1 + a2, e1 + e2))
        mult_rows[d] = rows
    k = k_space(N)
    return GradedAlgebra(
        S,
        GradedMap(f"unit_{name}", k, S, {0: [1]}),
        GradedMap(f"mult_{name}", SS, S, mult_rows),
    )


def _base_inclusion(R: GradedAlgebra, target: GradedAlgebra, name: str) -> GradedMap:
    """t^a to the pure power monomial (index 0) in each degree."""
    return GradedMap(name, R.space, target.space, _ones_rows(R.space))


def _witness_basis(name: str, gen: str | None, N: int):
    """The witnesses 1 and, when gen names it, the generator t^0 x (index 1
    in degree 1): their space and their (degree, label, vector) list."""
    witnesses = [(0, "1", 1)] + ([(1, gen, 2)] if gen else [])
    space = GradedSpace(name, {d: (label,) for d, label, _ in witnesses}, N)
    return space, witnesses


def _coaction_over_R(X: GradedSpace, B: GradedSpace, G: GradedSpace,
                     name: str) -> GradedMap:
    """The coaction X -> B (x) G of a space with the basis of
    _monomial_space (or its pure powers alone) on the witnesses B of
    _witness_basis: t^d goes to 1 (x) t^d, and t^(d-1) x to
    x (x) t^(d-1) + 1 (x) t^(d-1) x."""
    BG = TensorSpace(B, G)
    rows: dict[int, list[int]] = {}
    for d in range(0, X.N + 1):
        rows[d] = [1 << BG.index(d, 0, 0, i) for i in range(X.dim(d))]
        if X.dim(d) > 1:
            rows[d][1] ^= 1 << BG.index(d, 1, 0, 0)
    return GradedMap(name, X, BG, rows)


def _algebroid(G: GradedAlgebra, gen: str | None) -> AlgebroidData:
    """(R, G) over R = F2[t] for G = R or R[x]/(x^2) (gen names x): both
    units the inclusion of the pure powers, the counit killing x, the
    antipode the identity, and x primitive over R."""
    R = polynomial_base(G.N)
    eta = _base_inclusion(R, G, "eta")
    BG, witnesses = _witness_basis("BG", gen, G.N)
    comult = _coaction_over_R(G.space, BG, G.space, "comult_G")
    counit = GradedMap("counit_G", G.space, R.space,
                       {d: [1] for d in range(0, G.N + 1)})
    antipode = GradedMap("antipode", G.space, G.space, identity_rows(G.space))
    return AlgebroidData(
        R, [(1, 1)], G, eta, eta, witnesses, comult, counit, antipode
    )


def identity_algebroid(N: int = 10) -> AlgebroidData:
    """(R, R): both units the identity, comultiplication r -> 1 (x) r."""
    G = polynomial_base(N)
    G.space.name = "G"
    return _algebroid(G, None)


def exterior_algebroid(N: int = 10) -> AlgebroidData:
    """(R, R[x]/(x^2)) with eta_l = eta_r and x primitive over R."""
    return _algebroid(_monomial_algebra("G", "x", N), "x")


def _cor22_input(alg: AlgebroidData, M: GradedAlgebra,
                 gen: str | None) -> Cor22Input:
    """M over alg with the coaction _coaction_over_R and phi the identity
    on basis positions."""
    eta_m = _base_inclusion(alg.R, M, "eta_M")
    BM, witnesses = _witness_basis("BM", gen, M.N)
    psi = _coaction_over_R(M.space, BM, alg.gamma.space, "psi_M")
    phi = GradedMap("phi", M.space, alg.gamma.space, identity_rows(M.space))
    return Cor22Input(alg, M, eta_m, witnesses, psi, phi)


def cor22_identity(N: int = 10) -> Cor22Input:
    """M = Gamma = R with the tautological coaction; W should be R itself."""
    M = polynomial_base(N)
    M.space.name = "M"
    return _cor22_input(identity_algebroid(N), M, None)


def cor22_exterior(N: int = 10) -> Cor22Input:
    """M = Gamma = R[x]/(x^2) coacting by its comultiplication, phi = id."""
    return _cor22_input(exterior_algebroid(N), _monomial_algebra("M", "x", N), "x")


def cor22_rank_two(N: int = 10) -> Cor22Input:
    """M = R + R*m with psi(m) = m (x) 1 + 1 (x) x and phi sending m to x;
    the primitives of the reduction are spanned by 1, so W has rank 1."""
    return _cor22_input(exterior_algebroid(N), _monomial_algebra("M", "m", N), "m")


def right_unit_fixture(descends: bool, N: int = 4):
    """R = F2[y] acting on Gamma with basis {1; y, g; s}.  In the good
    variant y*g = g*y = s; in the bad variant the stored constants set
    y*g = 0 but g*y = s, so the spans differ first in degree 2.

    Returns (R, generators of (y), Gamma, eta_l, eta_r)."""
    R = polynomial_base(N, var="y")
    basis = {0: ("1",), 1: ("y", "g"), 2: ("s",)}
    G = GradedSpace("G", basis, N)
    GG = TensorSpace(G, G)

    def product(da, ia, db, jb):
        la = G.labels(da)[ia]
        lb = G.labels(db)[jb]
        if la == "1":
            return 1 << jb
        if lb == "1":
            return 1 << ia
        if (la, lb) == ("y", "g"):
            return 0 if not descends else 1
        if (la, lb) == ("g", "y"):
            return 1
        return 0

    mult_rows = {
        d: [product(da, ia, db, jb) for da, ia, db, jb in GG.pairs(d)]
        for d in range(0, N + 1)
    }
    k = k_space(N)
    gamma = GradedAlgebra(
        G,
        GradedMap("unit_G", k, G, {0: [1]}),
        GradedMap("mult_G", GG, G, mult_rows),
    )
    eta_rows = {0: [1], 1: [1]}
    eta = GradedMap("eta", R.space, G, eta_rows)
    return R, [(1, 1)], gamma, eta, eta
