"""Graded algebra pairs (R, Gamma) with two units, reduction mod an
augmentation ideal, and the generalized splitting pipeline: hypothesis
checks, field-case splitting of the reductions, and the lifted isomorphism
M -> W (x)_R Gamma with a per-degree certificate.

Tensor products over R are stored in a free presentation: a module that is
free over R on a witness basis {b_i} identifies X (x)_R Gamma with the
direct sum of copies b_i (x) Gamma, so maps into the tensor product are
ordinary GradedMaps into TensorSpace(witness space, Gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .. import gf2
from .core import (
    ComoduleData,
    DegreeCertificate,
    GradedAlgebra,
    GradedMap,
    GradedSpace,
    HopfData,
    InvalidStructure,
    MMSplit,
    NotSurjective,
    SplitFailed,
    TensorSpace,
    Violation,
    _bits,
    _certified_iso,
    _check_surjective,
    _dedup,
    _pair_label,
    _pairs_of,
    _walk,
    algebra_map_violations,
    k_space,
    least_N,
    mm_split,
    validate_algebra,
    validate_comodule,
    validate_hopf,
)


class HypothesisFailed(Exception):
    def __init__(self, which: str, detail: str = ""):
        self.which = which
        self.detail = detail
        super().__init__(f"{which}: {detail}" if detail else which)


class IsoFailed(Exception):
    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"lifted map fails to be an isomorphism in degree {degree}"
        )


Element = tuple[int, int]  # (degree, vector)


def ideal_spans(R: GradedAlgebra, gens: list[Element]) -> dict[int, list[int]]:
    """Per-degree spanning vectors of the two-sided ideal generated by gens
    (R is validated commutative elsewhere, so one-sided products suffice)."""
    N = R.N
    spans: dict[int, list[int]] = {d: [] for d in range(0, N + 1)}
    for dg, gv in gens:
        if gv == 0:
            continue
        for dr in range(0, N - dg + 1):
            for ri in range(R.space.dim(dr)):
                prod = R.mult_apply(dr, 1 << ri, dg, gv)
                if prod:
                    spans[dr + dg].append(prod)
    return spans


@dataclass
class RightUnitReport:
    """Degreewise comparison of the left span I*Gamma with the right span
    Gamma*I; equality in every degree is what lets the right unit descend
    to the quotient by I."""

    ok: bool
    first_failure: int | None
    table: tuple[tuple[int, int, int, bool], ...]  # (deg, rank L, rank R, eq)

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "first_failure": self.first_failure,
            "degrees": [
                {"degree": d, "rank_left": rl, "rank_right": rr, "equal": eq}
                for d, rl, rr, eq in self.table
            ],
        }


def right_unit_descends(
    R: GradedAlgebra,
    gens: list[Element],
    gamma: GradedAlgebra,
    eta_l: GradedMap,
    eta_r: GradedMap,
) -> RightUnitReport:
    """Compare the spans eta_l(I)*Gamma and Gamma*eta_r(I) degree by degree,
    where I is the ideal of R generated by gens."""
    N = least_N(R, gamma, eta_l, eta_r)
    ideal = ideal_spans(R, gens)
    table = []
    first = None
    for d in range(0, N + 1):
        left: list[int] = []
        right: list[int] = []
        for di in range(0, d + 1):
            for xv in ideal[di]:
                gl = eta_l.apply(di, xv)
                gr = eta_r.apply(di, xv)
                dg = d - di
                for j in range(gamma.space.dim(dg)):
                    if gl:
                        left.append(gamma.mult_apply(di, gl, dg, 1 << j))
                    if gr:
                        right.append(gamma.mult_apply(dg, 1 << j, di, gr))
        eq = gf2.spans_equal(left, right)
        table.append((d, gf2.rank(left), gf2.rank(right), eq))
        if not eq and first is None:
            first = d
    return RightUnitReport(first is None, first, tuple(table))


class FreenessFailed(Exception):
    def __init__(self, name: str, degree: int):
        self.name = name
        self.degree = degree
        super().__init__(
            f"{name}: witness products do not form a basis in degree {degree}"
        )


class Witnesses:
    """Freeness data for a space that is free over R on listed witness
    elements, through a supplied action of R basis vectors on vectors.

    Provides the quotient basis mod R_+ (the witnesses themselves), the
    projection to it, and the decomposition of any vector as a sum of
    terms (witness, R basis vector), up to the least N of R and space.
    """

    def __init__(
        self,
        name: str,
        R: GradedAlgebra,
        space: GradedSpace,
        witnesses: list[tuple[int, str, int]],  # (degree, label, vector)
        action: Callable[[int, int, int, int], int],  # (dr, ri, dw, wvec)
    ):
        if R.space.dim(0) != 1 or R.unit_vec != 1:
            raise InvalidStructure(
                "base ring must be connected with unit the degree-0 basis vector"
            )
        self.name = name
        self.R = R
        self.space = space
        self.witnesses = list(witnesses)
        self.N = N = least_N(R, space)
        bar_basis: dict[int, list[str]] = {}
        self.bar_pos: dict[int, tuple[int, int]] = {}
        for g, (dw, label, _) in enumerate(self.witnesses):
            bar_basis.setdefault(dw, []).append(label)
            self.bar_pos[g] = (dw, len(bar_basis[dw]) - 1)
        self.bar = GradedSpace(name, bar_basis, N)
        self._vectors = {pos: self.witnesses[g][2]
                         for g, pos in self.bar_pos.items()}
        self.entries: dict[int, list[tuple[int, int]]] = {}
        self._inv: dict[int, list[int]] = {}
        for d in range(0, N + 1):
            entries: list[tuple[int, int]] = []
            rows: list[int] = []
            for g, (dw, _, wvec) in enumerate(self.witnesses):
                dr = d - dw
                if dr < 0:
                    continue
                for ri in range(R.space.dim(dr)):
                    entries.append((g, ri))
                    rows.append(action(dr, ri, dw, wvec))
            dim = space.dim(d)
            if len(entries) != dim:
                raise FreenessFailed(name, d)
            inv = gf2.inverse(rows, dim)
            if inv is None:
                raise FreenessFailed(name, d)
            self.entries[d] = entries
            self._inv[d] = inv

    def vector(self, d: int, i: int) -> int:
        """The witness at position i of the quotient basis in degree d."""
        return self._vectors[(d, i)]

    def decompose(self, d: int, vec: int) -> list[tuple[int, int, int]]:
        """vec as a list of (witness index, r degree, r basis index)."""
        coords = gf2.mat_vec(self._inv[d], vec)
        out = []
        for t, (g, ri) in enumerate(self.entries[d]):
            if (coords >> t) & 1:
                out.append((g, d - self.witnesses[g][0], ri))
        return out

    def project(self, d: int, vec: int) -> int:
        """Class of vec in the quotient mod R_+, in bar coordinates."""
        out = 0
        for g, dr, _ in self.decompose(d, vec):
            if dr == 0:
                out ^= 1 << self.bar_pos[g][1]
        return out


@dataclass
class AlgebroidData:
    """The pair (R, Gamma) with both units, by structure constants up to
    the least N of its parts.

    The comultiplication lands in the free presentation: Gamma is free as a
    right R-module on gamma_witnesses, and comult maps Gamma into
    TensorSpace(witness space, Gamma)."""

    R: GradedAlgebra
    r_plus: list[Element]
    gamma: GradedAlgebra
    eta_l: GradedMap
    eta_r: GradedMap
    gamma_witnesses: list[tuple[int, str, int]]
    comult: GradedMap
    counit: GradedMap           # Gamma -> R
    antipode: GradedMap | None

    def __post_init__(self):
        maps = (self.eta_l, self.eta_r, self.comult, self.counit, self.antipode)
        self.N = least_N(self.R, self.gamma, *(m for m in maps if m is not None))

    def left_witnesses(self) -> Witnesses:
        return Witnesses(
            "BG", self.R, self.gamma.space, self.gamma_witnesses,
            lambda dr, ri, dw, wv: self.gamma.mult_apply(
                dr, self.eta_l.row(dr, ri), dw, wv
            ),
        )

    def right_witnesses(self) -> Witnesses:
        return Witnesses(
            "BG", self.R, self.gamma.space, self.gamma_witnesses,
            lambda dr, ri, dw, wv: self.gamma.mult_apply(
                dw, wv, dr, self.eta_r.row(dr, ri)
            ),
        )


def validate_algebroid(alg: AlgebroidData) -> list[Violation]:
    """Checkable shadow of the axioms for the pair (R, Gamma): algebra
    axioms with commutativity, both units algebra maps, augmentation with
    quotient the ground field, freeness on the witnesses, counit laws and
    coassociativity in the free presentation, and the antipode conditions
    on the units when an antipode is supplied."""
    return _validate_algebroid(alg)[0]


def _validate_algebroid(
    alg: AlgebroidData,
) -> tuple[list[Violation], tuple[Witnesses, Witnesses] | None]:
    """validate_algebroid's violations, with the left and right witness data
    of Gamma that the checks built (None when a check failed before they
    were built), so the cor22 pipeline builds them once."""
    N = alg.N
    out: list[Violation] = []
    R, G = alg.R, alg.gamma

    if R.space.dim(0) != 1 or R.unit_vec != 1:
        out.append(Violation("base_connected", 0, f"dim R_0 = {R.space.dim(0)}"))
        return out, None
    out += validate_algebra(R, commutative=True)
    out += validate_algebra(G, commutative=True)
    out += algebra_map_violations(alg.eta_l, R, G)
    out += algebra_map_violations(alg.eta_r, R, G)

    for dg, gv in alg.r_plus:
        if dg <= 0 and gv:
            out.append(Violation("r_plus_proper", dg, "generator in degree <= 0"))
    ideal = ideal_spans(R, alg.r_plus)
    for d in range(1, N + 1):
        if gf2.rank(ideal[d]) != R.space.dim(d):
            out.append(
                Violation("r_plus_quotient", d, "quotient exceeds the ground field")
            )
    if out:
        return out, None

    try:
        wl = alg.left_witnesses()
        wr = alg.right_witnesses()
    except FreenessFailed as e:
        out.append(Violation("gamma_free", e.degree, e.name))
        return out, None

    # counit splits both units.
    for d in range(0, N + 1):
        for i in range(R.space.dim(d)):
            if alg.counit.apply(d, alg.eta_l.row(d, i)) != 1 << i:
                out.append(Violation("counit_eta_l", d, R.space.labels(d)[i]))
            if alg.counit.apply(d, alg.eta_r.row(d, i)) != 1 << i:
                out.append(Violation("counit_eta_r", d, R.space.labels(d)[i]))

    BGG = TensorSpace(wl.bar, G.space)
    out += _walk(G.space, G.SS, N, [
        _free_counit(alg, G, alg.comult, wl, BGG, alg.eta_r,
                     "counit_law_left", "counit_law_right"),
        _free_coassociativity(alg, G, alg.comult, wl, BGG, wr,
                              "coassociativity"),
    ])

    if alg.antipode is not None:
        c = alg.antipode
        for d in range(0, N + 1):
            for i in range(R.space.dim(d)):
                if c.apply(d, alg.eta_l.row(d, i)) != alg.eta_r.row(d, i):
                    out.append(
                        Violation("antipode_eta_l", d, R.space.labels(d)[i])
                    )
                if c.apply(d, alg.eta_r.row(d, i)) != alg.eta_l.row(d, i):
                    out.append(
                        Violation("antipode_eta_r", d, R.space.labels(d)[i])
                    )
            for i in range(G.space.dim(d)):
                if c.apply(d, c.row(d, i)) != 1 << i:
                    out.append(
                        Violation("antipode_involutive", d, G.space.labels(d)[i])
                    )
    return _dedup(out), (wl, wr)


# ---------------------------------------------------------------------------
# Axiom checkers in the free presentation, shared by the comultiplication of
# Gamma and the coaction of M.  A coaction of X (Gamma or M) lands in
# TensorSpace(BX, Gamma), BX the quotient basis of the witnesses wx of X
# over R; the checks are called as in core._walk.

def _moved(alg: AlgebroidData, w: Witnesses, d: int, vec: int, dg: int,
           gvec: int):
    """vec (x) gvec with vec in degree d written as a sum of witnesses of w
    times R, each r moved across the tensor sign as eta_l(r) * gvec: yields
    (witness degree, witness position, Gamma degree, Gamma vector)."""
    for g, dr, ri in w.decompose(d, vec):
        wdeg, wpos = w.bar_pos[g]
        yield wdeg, wpos, dr + dg, alg.gamma.mult_apply(
            dr, alg.eta_l.rows[dr][ri], dg, gvec)


def _free_counit(
    alg: AlgebroidData, X: GradedAlgebra, coaction: GradedMap, wx: Witnesses,
    BXG: TensorSpace, eta_x: GradedMap, left: str | None, right: str,
):
    """(id (x) counit) coaction = id, the sum of w * eta_x(counit(gamma))
    over coaction(x) = sum w (x) gamma, reported as `right`; and, when
    `left` names it, (counit (x) id) coaction = id, the sum of
    eta_l(counit(w)) * gamma."""
    def check(d, i):
        acc_l = 0
        acc_r = 0
        for dw, iw, dg, jg in _pairs_of(coaction.rows[d][i], BXG.pairs(d)):
            wvec = wx.vector(dw, iw)
            if left:
                r = alg.counit.apply(dw, wvec)
                acc_l ^= X.mult_apply(dw, alg.eta_l.apply(dw, r), dg, 1 << jg)
            r = alg.counit.rows[dg][jg]
            acc_r ^= X.mult_apply(dw, wvec, dg, eta_x.apply(dg, r))
        out = []
        if left and acc_l != 1 << i:
            out.append(Violation(left, d, X.space.labels(d)[i]))
        if acc_r != 1 << i:
            out.append(Violation(right, d, X.space.labels(d)[i]))
        return out
    return check


def _free_coassociativity(
    alg: AlgebroidData, X: GradedAlgebra, coaction: GradedMap, wx: Witnesses,
    BXG: TensorSpace, wr: Witnesses, name: str,
):
    """(coaction (x) id) coaction = (id (x) comult) coaction in (BX, BG,
    Gamma) coordinates, the middle factor of the left side rewritten over
    the right witnesses wr of Gamma."""
    BGG = TensorSpace(wr.bar, alg.gamma.space)

    def check(d, i):
        lhs: set = set()
        rhs: set = set()
        for dw, iw, dg, jg in _pairs_of(coaction.rows[d][i], BXG.pairs(d)):
            rhs.symmetric_difference_update(
                (dw, iw, *t)
                for t in _pairs_of(alg.comult.rows[dg][jg], BGG.pairs(dg)))
            inner = coaction.apply(dw, wx.vector(dw, iw))
            for dwa, iwa, dgb, jgb in _pairs_of(inner, BXG.pairs(dw)):
                for wdeg, wpos, dgp, gp in _moved(alg, wr, dgb, 1 << jgb,
                                                  dg, 1 << jg):
                    lhs.symmetric_difference_update(
                        (dwa, iwa, wdeg, wpos, dgp, ji) for ji in _bits(gp))
        return [] if lhs == rhs else [Violation(name, d, X.space.labels(d)[i])]
    return check


@dataclass
class Cor22Input:
    """A comodule algebra M over the pair (R, Gamma), with its coaction in
    the free presentation psi: M -> TensorSpace(witness space of M, Gamma),
    truncated at the least N of its parts."""

    alg: AlgebroidData
    m: GradedAlgebra
    eta_m: GradedMap               # R -> m, algebra map (module structure)
    m_witnesses: list[tuple[int, str, int]]
    psi: GradedMap
    phi: GradedMap                 # m -> gamma

    def __post_init__(self):
        self.N = least_N(self.alg, self.m, self.eta_m, self.psi, self.phi)

    def m_witness_data(self) -> Witnesses:
        return Witnesses(
            "BM", self.alg.R, self.m.space, self.m_witnesses,
            lambda dr, ri, dw, wv: self.m.mult_apply(
                dr, self.eta_m.row(dr, ri), dw, wv
            ),
        )


class Cor22Report(NamedTuple):
    v_series: dict[int, int]
    w_generators: tuple[tuple[int, str], ...]  # degrees and labels of W's basis
    hypotheses: tuple[str, ...]
    right_unit: RightUnitReport
    mm: MMSplit
    theta: GradedMap               # M -> V (x) Gamma
    certificate: tuple[DegreeCertificate, ...]

    @property
    def N(self) -> int:
        """The degree up to which the isomorphism is certified."""
        return self.theta.N

    def to_dict(self) -> dict:
        return {
            "trunc": self.N,
            "hypotheses": list(self.hypotheses),
            "w_generators": [
                {"degree": d, "label": s} for d, s in self.w_generators
            ],
            "v_series": {str(d): n for d, n in sorted(self.v_series.items())},
            "degrees": [
                {
                    "degree": c.degree,
                    "dim_M": c.dim_source,
                    "dim_WGamma": c.dim_target,
                    "invertible": c.invertible,
                }
                for c in self.certificate
            ],
        }


def _comodule_structure_violations(inp: Cor22Input, wm: Witnesses,
                                   wg_right: Witnesses) -> list[Violation]:
    """Coaction and phi compatibilities over R, in the free presentation."""
    alg, M, G, psi = inp.alg, inp.m, inp.alg.gamma, inp.psi
    out: list[Violation] = []
    out += validate_algebra(M)
    out += algebra_map_violations(inp.eta_m, alg.R, M)
    out += algebra_map_violations(inp.phi, M, G)

    BMG = TensorSpace(wm.bar, G.space)
    BGG = TensorSpace(wg_right.bar, G.space)

    def phi_comodule_map(d, i):
        # (phi (x) id) psi = comult phi.
        lhs = 0
        for dw, iw, dg, jg in _pairs_of(psi.rows[d][i], BMG.pairs(d)):
            img = inp.phi.apply(dw, wm.vector(dw, iw))
            for wdeg, wpos, _, gp in _moved(alg, wg_right, dw, img, dg, 1 << jg):
                lhs ^= gp << BGG.index(d, wdeg, wpos, 0)
        if lhs == alg.comult.apply(d, inp.phi.rows[d][i]):
            return []
        return [Violation("phi_comodule_map", d, M.space.labels(d)[i])]

    def coaction_algebra_map(d, k, da, ia, db, jb):
        # psi(x * y) = psi(x) * psi(y), products of witnesses rewritten
        # over the witnesses of M.
        rhs = 0
        for dw1, iw1, dg1, jg1 in _pairs_of(psi.rows[da][ia], BMG.pairs(da)):
            for dw2, iw2, dg2, jg2 in _pairs_of(psi.rows[db][jb], BMG.pairs(db)):
                wprod = M.mult_apply(dw1, wm.vector(dw1, iw1),
                                     dw2, wm.vector(dw2, iw2))
                gprod = G.basis_product(dg1, jg1, dg2, jg2)
                if not wprod or not gprod:
                    continue
                for wdeg, wpos, _, gp in _moved(alg, wm, dw1 + dw2, wprod,
                                                dg1 + dg2, gprod):
                    rhs ^= gp << BMG.index(d, wdeg, wpos, 0)
        if psi.apply(d, M.mult.rows[d][k]) == rhs:
            return []
        return [Violation("coaction_algebra_map", d,
                          _pair_label(M.space, da, ia, db, jb))]

    out += _walk(M.space, M.SS, inp.N, [
        _free_counit(alg, M, psi, wm, BMG, inp.eta_m, None, "coaction_counital"),
        _free_coassociativity(alg, M, psi, wm, BMG, wg_right,
                              "coaction_coassociative"),
        phi_comodule_map,
    ], [coaction_algebra_map])
    return _dedup(out)


def cor22_pipeline(inp: Cor22Input) -> Cor22Report:
    """Hypothesis checks, reduction mod R_+, field-case splitting of the
    reductions, and the lifted per-degree isomorphism M -> W (x)_R Gamma
    where W = R (x) V is free on the splitting's primitives."""
    N = inp.N
    alg, M, G = inp.alg, inp.m, inp.alg.gamma
    hypotheses: list[str] = []

    # A Gamma that is not free on its witnesses fails here, as gamma_free;
    # otherwise the witness data of Gamma comes back with the verdict.
    violations, gamma_witnesses = _validate_algebroid(alg)
    if violations:
        raise HypothesisFailed("algebroid_axioms", str(violations[0]))
    hypotheses.append("algebroid_axioms")
    wg, wg_right = gamma_witnesses

    ru = right_unit_descends(alg.R, alg.r_plus, G, alg.eta_l, alg.eta_r)
    if not ru.ok:
        raise HypothesisFailed(
            "right_unit_descends", f"first failure in degree {ru.first_failure}"
        )
    hypotheses.append("right_unit_descends")

    try:
        _check_surjective(inp.phi, G.space, N)
    except NotSurjective as e:
        raise HypothesisFailed("phi_surjective", f"degree {e.degree}")
    hypotheses.append("phi_surjective")

    try:
        wm = inp.m_witness_data()
    except FreenessFailed as e:
        raise HypothesisFailed("freeness_m", f"degree {e.degree}")
    hypotheses.append("freeness_witnesses")

    structural = _comodule_structure_violations(inp, wm, wg_right)
    if structural:
        raise HypothesisFailed("comodule_structure", str(structural[0]))
    hypotheses.append("comodule_structure")

    if wm.bar.dim(0) != 1 or wg.bar.dim(0) != 1:
        raise HypothesisFailed(
            "connected_reduction",
            f"dim Mbar_0 = {wm.bar.dim(0)}, dim Gammabar_0 = {wg.bar.dim(0)}",
        )
    hypotheses.append("connected_reduction")

    # Reduce everything mod R_+ to the field case.
    Hbar = _reduced_hopf(alg, wg)
    Mbar = _reduced_comodule(inp, wm, wg, Hbar)
    phibar_rows = {
        d: [
            wg.project(d, inp.phi.apply(d, wm.vector(d, i)))
            for i in range(wm.bar.dim(d))
        ]
        for d in range(0, N + 1)
    }
    phibar = GradedMap("phibar", Mbar.M, Hbar.A, phibar_rows)

    hv = validate_hopf(Hbar)
    cv = validate_comodule(Mbar)
    if hv or cv:
        raise HypothesisFailed("reduced_axioms", str((hv + cv)[0]))
    hypotheses.append("reduced_axioms")

    try:
        mm = mm_split(Mbar, phibar)
    except NotSurjective as e:
        raise HypothesisFailed("phi_surjective_reduced", f"degree {e.degree}")
    except SplitFailed as e:
        raise IsoFailed(e.degree)
    hypotheses.append("nakayama_reduction_iso")

    # Lift: theta(m) = sum alpha(bbar) (x) gamma over psi(m) = sum b (x) gamma.
    V = mm.V
    try:
        theta, cert = _certified_iso(
            "theta_lift", mm.alpha, inp.psi, M.space,
            TensorSpace(wm.bar, G.space), TensorSpace(V, G.space), N,
        )
    except SplitFailed as e:
        raise IsoFailed(e.degree)

    v_series = {d: V.dim(d) for d in V.degrees()}
    w_gens = tuple(
        (d, lab) for d in V.degrees() for lab in V.labels(d)
    )
    return Cor22Report(
        v_series, w_gens, tuple(hypotheses), ru, mm, theta, cert,
    )


def _reduction(
    X: GradedAlgebra, wx: Witnesses, coaction: GradedMap, wg: Witnesses,
    right, name: str,
):
    """X mod R_+ on the witness basis of wx, as the space `name` with its
    unit, product and coaction: the coaction goes from TensorSpace(BX,
    Gamma) to space (x) right, projecting Gamma onto the witnesses wg;
    right is Gamma mod R_+, or None for the reduced space itself."""
    N = least_N(wx, coaction, wg)
    bar = GradedSpace(name, {d: wx.bar.labels(d) for d in wx.bar.degrees()}, N)
    SS = TensorSpace(bar, bar)
    mult_rows = {
        d: [wx.project(d, X.mult_apply(da, wx.vector(da, ia),
                                       db, wx.vector(db, jb)))
            for da, ia, db, jb in SS.pairs(d)]
        for d in range(0, N + 1)
    }
    BXG = TensorSpace(wx.bar, wg.space)
    target = TensorSpace(bar, bar if right is None else right)
    coaction_rows: dict[int, list[int]] = {}
    for d in range(0, N + 1):
        rows = []
        for i in range(bar.dim(d)):
            out = 0
            vec = coaction.apply(d, wx.vector(d, i))
            for dw, iw, dg, jg in _pairs_of(vec, BXG.pairs(d)):
                out ^= wg.project(dg, 1 << jg) << target.index(d, dw, iw, 0)
            rows.append(out)
        coaction_rows[d] = rows
    return (
        bar,
        GradedMap(f"unit_{name}", k_space(N), bar,
                  {0: [wx.project(0, X.unit_vec)]}),
        GradedMap(f"mult_{name}", SS, bar, mult_rows),
        GradedMap(f"coaction_{name}", bar, target, coaction_rows),
    )


def _reduced_hopf(alg: AlgebroidData, wg: Witnesses) -> HopfData:
    """Gamma mod R_+ Gamma, a connected Hopf algebra on the witness basis."""
    A, unit, mult, comult = _reduction(
        alg.gamma, wg, alg.comult, wg, None, "A")
    counit = GradedMap("counit_A", A, k_space(A.N), {0: [1] * A.dim(0)})
    return HopfData(A, unit, counit, mult, comult)


def _reduced_comodule(
    inp: Cor22Input, wm: Witnesses, wg: Witnesses, Hbar: HopfData
) -> ComoduleData:
    M, unit, mult, psi = _reduction(inp.m, wm, inp.psi, wg, Hbar.A, "M")
    return ComoduleData(M, unit, mult, psi, Hbar)
