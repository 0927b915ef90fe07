"""Graded Hopf/comodule validation, the constructive cofree splitting, the
base-ring pipeline, and fixture serialization.

The validators are exercised in both directions: every single-bit mutation
of a small valid instance must be flagged, and a genuinely valid deformed
comultiplication must not be.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from motalg import acceptance, gf2
from motalg.hopf import (
    ComoduleData,
    GradedMap,
    GradedSpace,
    HopfData,
    HypothesisFailed,
    InvalidStructure,
    NotConnected,
    NotSurjective,
    TensorSpace,
    Violation,
    algebroid,
    build,
    cor22_pipeline,
    identity_map,
    io,
    k_space,
    mm_split,
    primitives,
    right_unit_descends,
    validate_algebroid,
    validate_comodule,
    validate_hopf,
    zero_map,
)


def lambda_one(N=4):
    return build.exterior_hopf([("t", 1)], N)


def lambda_two(N=6):
    return build.exterior_hopf([("a", 1), ("b", 2)], N)


def hopf_with(H, **replacements):
    maps = {"unit": H.unit, "counit": H.counit, "mult": H.mult,
            "comult": H.comult}
    maps.update(replacements)
    return HopfData(H.A, maps["unit"], maps["counit"], maps["mult"],
                    maps["comult"])


def flipped(m: GradedMap, d: int, i: int, bit: int) -> GradedMap:
    rows = {dd: list(rr) for dd, rr in m.rows.items()}
    rows[d][i] ^= 1 << bit
    return GradedMap(m.name, m.source, m.target, rows)


def fixture_doc(name):
    with open(acceptance.fixture_path(name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spaces and maps

def test_graded_space_guards():
    with pytest.raises(InvalidStructure):
        GradedSpace("X", {5: ("x",)}, 4)
    with pytest.raises(InvalidStructure):
        GradedSpace("X", {1: ("x", "x")}, 4)
    sp = GradedSpace("X", {2: ("x", "y"), 1: ()}, 4)
    assert sp.degrees() == [2] and sp.dims() == {2: 2}
    assert sp.describe(2, 0b11) == "x + y" and sp.describe(2, 0) == "0"


def test_graded_map_guards():
    sp = GradedSpace("X", {1: ("x",)}, 3)
    with pytest.raises(InvalidStructure):
        GradedMap("f", sp, sp, {1: [0b10]})  # bit beyond target dim
    with pytest.raises(InvalidStructure):
        GradedMap("f", sp, sp, {1: [1, 1]})  # too many rows
    f = GradedMap("f", sp, sp, {})  # missing rows are zero
    assert f.rows[1] == [0]


def test_identity_and_zero_maps():
    sp = GradedSpace("X", {1: ("x", "y")}, 2)
    assert identity_map(sp).rows[1] == [0b01, 0b10]
    assert zero_map("z", sp, sp).rows[1] == [0, 0]


def test_tensor_space_enumeration():
    H = lambda_two()
    assert H.AA.labels(1) == ("1(x)a", "a(x)1")
    assert H.AA.labels(3) == ("1(x)a*b", "a(x)b", "b(x)a", "a*b(x)1")
    for d in range(5):
        for k, (da, i, db, j) in enumerate(H.AA.pairs(d)):
            assert H.AA.index(d, da, i, j) == k
        assert H.AA.dim(d) == len(H.AA.pairs(d))


# ---------------------------------------------------------------------------
# validators on clean input

@pytest.mark.parametrize("gens", [[("t", 1)], [("a", 1), ("b", 2)],
                                  [("a", 1), ("b", 2), ("c", 3)]])
def test_exterior_satisfies_all_axioms(gens):
    H = build.exterior_hopf(gens, 8)
    assert validate_hopf(H) == []
    assert validate_comodule(build.self_comodule(H)) == []


def test_planted_comodule_is_valid():
    H = lambda_two(8)
    C = build.square_zero_algebra("c", {2: 1, 3: 2}, 8)
    Mc, _ = build.planted_comodule(C, H)
    assert validate_comodule(Mc) == []


def test_comodule_validation_checks_associativity_of_m():
    # a * a = b in M but not in A: M stays unital, yet
    # (a * a) * c2 = c2|b while a * (a * c2) = c2|a*a = 0.
    H = lambda_two(6)
    C = build.square_zero_algebra("c", {2: 1, 3: 2}, 6)
    Mc, _ = build.planted_comodule(C, H)
    k = Mc.MM.pairs(2).index((1, 0, 1, 0))
    bad = dataclasses.replace(
        Mc, mult=flipped(Mc.mult, 2, k, Mc.M.labels(2).index("1|b")))
    violations = validate_comodule(bad)
    axioms = {v.axiom for v in violations}
    assert not axioms & {"left_unit", "right_unit"}
    assert Violation("associativity", 4, "1|a(x)1|a(x)c2_0|1") in violations


def test_violation_rendering():
    v = Violation("counit_left", 1, "t")
    assert str(v) == "counit_left violated in degree 1: t"


# ---------------------------------------------------------------------------
# mutation testing

def test_every_single_bit_flip_is_caught():
    H = lambda_one(4)
    maps = {"unit": H.unit, "counit": H.counit, "mult": H.mult,
            "comult": H.comult}
    flips = 0
    for name, m in maps.items():
        for d, rows in m.rows.items():
            for i in range(len(rows)):
                for bit in range(m.target.dim(d)):
                    mutated = hopf_with(H, **{name: flipped(m, d, i, bit)})
                    assert validate_hopf(mutated), (name, d, i, bit)
                    flips += 1
    assert flips == 8


def test_targeted_mutations_report_the_right_axiom():
    H = lambda_two()
    broken = hopf_with(H, unit=flipped(H.unit, 0, 0, 0))
    assert [v.axiom for v in validate_hopf(broken)] == ["unit"]

    broken = hopf_with(H, counit=flipped(H.counit, 0, 0, 0))
    assert validate_hopf(broken)[0].axiom == "counit_splits_unit"

    # Drop the 1(x)a term of comult(a): the counit law fails at a itself.
    bit = H.AA.pairs(1).index((0, 0, 1, 0))
    broken = hopf_with(H, comult=flipped(H.comult, 1, 0, bit))
    assert validate_hopf(broken)[0] == Violation("counit_left", 1, "a")

    # Zero the product a*b: comult no longer matches the multiplication.
    bit = H.AA.pairs(3).index((1, 0, 2, 0))
    broken = hopf_with(H, mult=flipped(H.mult, 3, bit, 0))
    violations = validate_hopf(broken)
    assert violations and all(v.axiom == "bialgebra" for v in violations)


def test_validator_accepts_a_genuinely_deformed_comultiplication():
    # Adding a(x)a to comult(b) yields a different but valid Hopf algebra
    # (the standard degree-2 deformation); the validator must not reject it.
    H = lambda_two(8)
    bit = H.AA.pairs(2).index((1, 0, 1, 0))
    deformed = hopf_with(H, comult=flipped(H.comult, 2, 0, bit))
    assert validate_hopf(deformed) == []


# ---------------------------------------------------------------------------
# primitives

def test_self_comodule_primitives_are_the_ground_field():
    prim = primitives(build.self_comodule(lambda_one(6)))
    assert prim.space.dims() == {0: 1}
    assert prim.space.labels(0) == ("pm0_0",)
    assert prim.inclusion.row(0, 0) == 1


def test_planted_primitives_match_the_planted_space():
    H = lambda_two(8)
    C = build.square_zero_algebra("c", {2: 1, 3: 2}, 8)
    Mc, _ = build.planted_comodule(C, H)
    assert primitives(Mc).space.dims() == C.dims()


def test_primitive_inclusions_lie_in_the_coaction_kernel():
    H = lambda_two(8)
    C = build.square_zero_algebra("c", {1: 2, 4: 1}, 8)
    Mc, _ = build.planted_comodule(C, H)
    prim = primitives(Mc)
    for d in prim.space.degrees():
        for i in range(prim.space.dim(d)):
            vec = prim.inclusion.row(d, i)
            expected = 0
            k = 0
            v = vec
            while v:
                if v & 1:
                    expected ^= 1 << Mc.MA.index(d, d, k, 0)
                v >>= 1
                k += 1
            assert Mc.coaction.apply(d, vec) == expected, (d, i)


# ---------------------------------------------------------------------------
# the cofree splitting

def test_identity_fixture_splits_to_the_ground_field():
    Mc = build.self_comodule(lambda_one(6))
    mm = mm_split(Mc, identity_map(Mc.M))
    assert mm.V.dims() == {0: 1}
    assert [c.degree for c in mm.certificate] == list(range(7))
    assert all(c.invertible for c in mm.certificate)


def test_planted_recovery_and_the_splitting_laws():
    H = lambda_two(10)
    C = build.square_zero_algebra("c", {2: 1, 3: 1}, 10)
    Mc, phi = build.planted_comodule(C, H)
    mm = mm_split(Mc, phi)
    assert mm.V.dims() == C.dims()
    assert all(c.invertible for c in mm.certificate)

    # alpha splits the inclusion: alpha o incl = id on V.
    for d in mm.V.degrees():
        back = gf2.mat_mul(mm.inclusion.rows[d], mm.alpha.rows[d])
        assert back == identity_map(mm.V).rows[d]

    # Projecting theta onto the degree-0 block of the right factor
    # recovers alpha.
    for d in range(11):
        pairs = mm.theta.target.pairs(d)
        for i in range(Mc.M.dim(d)):
            row = mm.theta.row(d, i)
            projected = 0
            for k, (dv, iv, da, ja) in enumerate(pairs):
                if da == 0 and (row >> k) & 1:
                    projected ^= 1 << iv
            assert projected == mm.alpha.row(d, i), (d, i)


def test_not_surjective_reports_the_lowest_failing_degree():
    Mc = build.self_comodule(lambda_one(6))
    with pytest.raises(NotSurjective) as exc:
        mm_split(Mc, zero_map("phi", Mc.M, Mc.hopf.A))
    assert exc.value.degree == 0

    rows = {d: [1 << i for i in range(Mc.M.dim(d))] for d in range(7)}
    rows[1] = [0]
    with pytest.raises(NotSurjective) as exc:
        mm_split(Mc, GradedMap("phi", Mc.M, Mc.hopf.A, rows))
    assert exc.value.degree == 1


def test_mm_split_rejects_a_non_algebra_map():
    H = lambda_two()
    C = build.square_zero_algebra("c", {1: 1}, 6)
    Mc, phi = build.planted_comodule(C, H)
    # Send the planted degree-1 generator to a on top of the projection:
    # still surjective, but products through it no longer match.
    bad = flipped(phi, 1, Mc.M.labels(1).index("c1_0|1"), 0)
    with pytest.raises(InvalidStructure, match="algebra map in degree 3"):
        mm_split(Mc, bad)


def test_mm_split_rejects_a_non_comodule_map():
    # phi(c) = a*b is surjective and an algebra map (everything c multiplies
    # with dies on both sides) but is not compatible with the coaction.
    H = lambda_two()
    C = build.square_zero_algebra("c", {3: 1}, 6)
    Mc, phi = build.planted_comodule(C, H)
    bad = flipped(phi, 3, Mc.M.labels(3).index("c3_0|1"),
                  H.A.labels(3).index("a*b"))
    with pytest.raises(InvalidStructure, match="comodule map in degree 3"):
        mm_split(Mc, bad)


def test_mm_split_requires_connectedness():
    H = lambda_one(4)
    M = GradedSpace("M", {0: ("1", "e")}, 4)
    Mc = ComoduleData(
        M,
        GradedMap("unit_M", k_space(4), M, {0: [1]}),
        zero_map("mult_M", TensorSpace(M, M), M),
        zero_map("psi_M", M, TensorSpace(M, H.A)),
        H,
    )
    with pytest.raises(NotConnected):
        mm_split(Mc, zero_map("phi", M, H.A))


# ---------------------------------------------------------------------------
# base-ring pipeline

def test_right_unit_fixture_pair():
    good = right_unit_descends(*build.right_unit_fixture(True))
    assert good.ok and good.first_failure is None
    assert all(eq for _, _, _, eq in good.table)

    bad = right_unit_descends(*build.right_unit_fixture(False))
    assert not bad.ok and bad.first_failure == 2
    by_degree = {d: eq for d, _, _, eq in bad.table}
    assert by_degree[1] is True and by_degree[2] is False
    assert bad.to_dict()["degrees"][2]["equal"] is False


@pytest.mark.parametrize(
    "builder",
    [build.cor22_identity, build.cor22_exterior, build.cor22_rank_two],
    ids=["identity", "exterior", "rank_two"],
)
def test_cor22_pipeline_on_shipped_inputs(builder):
    inp = builder(10)
    assert validate_algebroid(inp.alg) == []
    rep = cor22_pipeline(inp)
    assert rep.hypotheses == (
        "algebroid_axioms",
        "right_unit_descends",
        "phi_surjective",
        "freeness_witnesses",
        "comodule_structure",
        "connected_reduction",
        "reduced_axioms",
        "nakayama_reduction_iso",
    )
    assert rep.v_series == {0: 1}
    assert rep.N == 10
    assert rep.right_unit.ok
    assert all(c.invertible for c in rep.certificate)


def test_cor22_builds_each_witness_basis_once(monkeypatch):
    # Gamma's left and right witness data and M's: three, each built once.
    built = []
    init = algebroid.Witnesses.__init__

    def counting_init(self, name, *args):
        built.append(name)
        init(self, name, *args)

    monkeypatch.setattr(algebroid.Witnesses, "__init__", counting_init)
    cor22_pipeline(build.cor22_exterior(10))
    assert sorted(built) == ["BG", "BG", "BM"]


def test_cor22_rejects_a_dead_phi():
    inp = build.cor22_identity(6)
    bad = dataclasses.replace(
        inp, phi=zero_map("phi", inp.m.space, inp.alg.gamma.space)
    )
    with pytest.raises(HypothesisFailed) as exc:
        cor22_pipeline(bad)
    assert exc.value.which == "phi_surjective"


def test_cor22_rejects_broken_algebroid_axioms():
    inp = build.cor22_identity(6)
    alg = dataclasses.replace(
        inp.alg,
        eta_r=zero_map("eta_r", inp.alg.R.space, inp.alg.gamma.space),
    )
    with pytest.raises(HypothesisFailed) as exc:
        cor22_pipeline(dataclasses.replace(inp, alg=alg))
    assert exc.value.which == "algebroid_axioms"


# ---------------------------------------------------------------------------
# serialization and the shipped fixtures

def test_structure_doc_round_trip():
    H = lambda_two(8)
    doc = io.hopf_to_doc(H)
    H2 = io.hopf_from_file(io.load_doc(doc))
    assert io.hopf_to_doc(H2) == doc
    assert validate_hopf(H2) == []


def test_comodule_doc_round_trip():
    H = lambda_one(6)
    Mc = build.self_comodule(H)
    phi = GradedMap(
        "phi", Mc.M, H.A,
        {d: [1 << i for i in range(Mc.M.dim(d))] for d in range(7)},
    )
    doc = io.comodule_to_doc(Mc, phi)
    sf = io.load_doc(doc)
    assert io.comodule_to_doc(io.comodule_from_file(sf),
                              io.phi_from_file(sf)) == doc


def test_missing_map_is_invalid():
    doc = io.hopf_to_doc(lambda_one(4))
    del doc["maps"]["comult_A"]
    with pytest.raises(InvalidStructure, match="comult_A"):
        io.hopf_from_file(io.load_doc(doc))


def test_malformed_trunc_is_invalid():
    with pytest.raises(InvalidStructure, match="trunc"):
        io.load_doc({"spaces": {}, "maps": {}})


def test_shipped_fixtures_regenerate_from_the_builders():
    H = lambda_one(12)
    Mc = build.self_comodule(H)
    phi = GradedMap(
        "phi", Mc.M, H.A,
        {d: [1 << i for i in range(Mc.M.dim(d))] for d in range(13)},
    )
    assert io.comodule_to_doc(Mc, phi) == fixture_doc("lambda_t.json")

    C = build.square_zero_algebra("c", {2: 1, 3: 1}, 10)
    Mc, phi = build.planted_comodule(C, lambda_two(10))
    assert io.comodule_to_doc(Mc, phi) == fixture_doc("planted.json")

    for name, builder in [
        ("cor22_identity.json", build.cor22_identity),
        ("cor22_exterior.json", build.cor22_exterior),
        ("cor22_rank_two.json", build.cor22_rank_two),
    ]:
        assert io.cor22_to_doc(builder(10)) == fixture_doc(name)

    for flag, name in [(True, "right_unit_good.json"),
                       (False, "right_unit_bad.json")]:
        doc = io.right_unit_to_doc(*build.right_unit_fixture(flag, 4))
        assert doc == fixture_doc(name)


def test_broken_fixture_reports_the_planted_violation():
    sf = io.load_file(acceptance.fixture_path("lambda_t_broken.json"))
    violations = validate_hopf(io.hopf_from_file(sf))
    assert violations[0] == Violation("counit_left", 1, "t")


def test_notsurj_fixture_fails_surjectivity_in_degree_one():
    sf = io.load_file(acceptance.fixture_path("notsurj.json"))
    with pytest.raises(NotSurjective) as exc:
        mm_split(io.comodule_from_file(sf), io.phi_from_file(sf))
    assert exc.value.degree == 1


# ---------------------------------------------------------------------------
# golden digests: every single-bit mutation of small instances

def _single_bit_flips(m: GradedMap):
    for d, rows in m.rows.items():
        for i in range(len(rows)):
            for bit in range(m.target.dim(d)):
                yield (m.name, d, i, bit), flipped(m, d, i, bit)


def _outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the exception is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def _validator_lines():
    """(case, repr of the Violation list) for every single-bit mutation of
    the Hopf algebra, its planted comodule and the exterior algebroid."""
    H = lambda_two(6)
    for field in ("unit", "counit", "mult", "comult"):
        for case, m in _single_bit_flips(getattr(H, field)):
            yield ("hopf", *case), _outcome(
                lambda: validate_hopf(hopf_with(H, **{field: m})))

    C = build.square_zero_algebra("c", {2: 1, 3: 2}, 6)
    Mc, _ = build.planted_comodule(C, H)
    for field in ("unit", "mult", "coaction"):
        for case, m in _single_bit_flips(getattr(Mc, field)):
            mutated = dataclasses.replace(Mc, **{field: m})
            violations = validate_comodule(mutated)
            if field == "mult":
                # Left out of the digest, which was frozen before
                # validate_comodule checked M's associativity.
                violations = [v for v in violations
                              if v.axiom != "associativity"]
            yield ("comodule", *case), repr(violations)

    alg = build.exterior_algebroid(4)
    for field in ("eta_l", "eta_r", "comult", "counit", "antipode"):
        for case, m in _single_bit_flips(getattr(alg, field)):
            yield ("algebroid", field, *case), _outcome(
                lambda: validate_algebroid(
                    dataclasses.replace(alg, **{field: m})))


def _cor22_lines():
    """(case, outcome) of cor22_pipeline for every single-bit mutation of
    the exterior input's eta_m, psi and phi."""
    inp = build.cor22_exterior(4)
    for field in ("eta_m", "psi", "phi"):
        for case, m in _single_bit_flips(getattr(inp, field)):
            yield (field, *case), _outcome(
                lambda: cor22_pipeline(
                    dataclasses.replace(inp, **{field: m})).hypotheses)


def _digest(lines) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for case, outcome in lines:
        h.update(f"{case} {outcome}\n".encode())
        n += 1
    return n, h.hexdigest()


# Computed before the validators shared their axiom checkers.
VALIDATOR_CASES, VALIDATOR_DIGEST = (
    506, "cca3eb9fba1bf1f3930b3860fc80193f222c821f781b9183ec5633cb12898e16")
COR22_CASES, COR22_DIGEST = (
    57, "b81e59985b736257e81d98a17255abda774905053b5674f77a3c4e3cd7ac4ccd")


def test_validator_outputs_on_every_single_bit_mutation_are_frozen():
    assert _digest(_validator_lines()) == (
        VALIDATOR_CASES, VALIDATOR_DIGEST)


def test_cor22_outcomes_on_every_single_bit_mutation_are_frozen():
    assert _digest(_cor22_lines()) == (COR22_CASES, COR22_DIGEST)
