"""Carry-free splits, certified containers E_i, vanishing certificates, and
the cofree series division."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motalg.bigraded import S1, BiDegree, StarGrading, TateSum
from motalg.extpower import SMembershipViolation, d2_cell, d2_sum, s_member
from motalg.nsym import (
    InvalidInput,
    NegativeCoefficient,
    PowerOfTwo,
    ProductSum,
    binary_split,
    build_Ei,
    cofree_divide,
    iterated_d2_bound,
    load_generator_series,
    nsym_series,
    series_multiply,
    vanishing_certificate,
)

Q = "2/3"


# ---------------------------------------------------------------------------
# splits and towers

def test_binary_split_certificates():
    for i in range(2, 260):
        if i & (i - 1) == 0:
            with pytest.raises(PowerOfTwo):
                binary_split(i)
            continue
        s = binary_split(i)
        assert s.i1 + s.i2 == i
        assert s.i1 & (s.i1 - 1) == 0 and s.i1 > s.i2 >= 1
        assert s.carry_free and (s.i1 & s.i2) == 0
        assert s.binom_odd and comb(i, s.i1) % 2 == 1


def test_binary_split_rejects_small():
    with pytest.raises(InvalidInput):
        binary_split(1)


def test_iterated_bound_frozen_for_two_steps():
    assert iterated_d2_bound(S1, [1], 8) == d2_cell(S1, 8)
    assert iterated_d2_bound(S1, [2], 8) == d2_sum(d2_cell(S1, 8), 8)
    # Tower [1, 1] is the tensor square of the one-step expansion.
    one = d2_cell(S1, 8)
    assert iterated_d2_bound(S1, [1, 1], 8) == one.tensor(one)


# ---------------------------------------------------------------------------
# ProductSum

def test_product_sum_canonicalizes():
    E = ProductSum({((2, 1), (1, 0)): 1, ((1, 0), (2, 1)): 2}, 10)
    assert E.products == {(BiDegree(1, 0), BiDegree(2, 1)): 3}
    assert E.total() == 3 and len(E) == 1


def test_product_sum_guards():
    with pytest.raises(ValueError):
        ProductSum({((0, 0),): 1}, 10)
    with pytest.raises(ValueError):
        ProductSum({((1, 0),): -1}, 10)
    # Products over the truncation are dropped, not errors.
    assert len(ProductSum({((6, 0), (6, 0)): 1}, 10)) == 0


def test_product_sum_is_immutable():
    E = ProductSum({((1, 0),): 1}, 10)
    with pytest.raises(AttributeError):
        E.trunc = 4


def test_flatten_sums_factor_bidegrees():
    E = ProductSum({((1, 0), (2, 1)): 2, ((3, 1),): 1}, 10)
    assert E.flatten() == TateSum({BiDegree(3, 1): 3}, 10)


def test_tensor_concatenates_factor_lists():
    a = ProductSum({((1, 0),): 2}, 10)
    b = ProductSum({((2, 1),): 3, ((2, 1), (2, 1)): 1}, 10)
    ab = a.tensor(b)
    assert ab.products == {
        (BiDegree(1, 0), BiDegree(2, 1)): 6,
        (BiDegree(1, 0), BiDegree(2, 1), BiDegree(2, 1)): 2,
    }


def test_product_sum_json_round_trip():
    E = build_Ei(6, Q, 12)
    doc = E.to_dict()
    rebuilt = ProductSum(
        {
            tuple((f["p"], f["w"]) for f in rec["factors"]): rec["mult"]
            for rec in doc["products"]
        },
        doc["trunc"],
    )
    assert rebuilt == E


# ---------------------------------------------------------------------------
# build_Ei

def test_e1_is_the_single_circle():
    E = build_Ei(1, Q, 10)
    assert E.products == {(BiDegree(1, 0),): 1}


def test_e2_is_the_circle_expansion():
    E = build_Ei(2, Q, 12)
    assert E.flatten() == d2_cell(S1, 12)
    assert all(len(prod) == 1 for prod, _ in E)


def test_e3_factors_through_the_split():
    split = binary_split(3)
    assert (split.i1, split.i2) == (2, 1)
    E3 = build_Ei(3, Q, 12)
    assert E3 == build_Ei(1, Q, 12).tensor(build_Ei(2, Q, 12))


def test_all_factors_stay_in_the_family():
    for i in (2, 3, 4, 6, 8, 12, 16):
        E = build_Ei(i, Q, 16)
        for prod, _ in E:
            for cell in prod:
                assert s_member(cell, Q).ok, (i, cell)


def test_build_rejects_leaving_the_family():
    with pytest.raises(SMembershipViolation) as exc:
        build_Ei(4, "5/9", 12)
    assert exc.value.cell == (5, 3)


def test_build_is_deterministic():
    a = build_Ei(8, Q, 20)
    b = build_Ei(8, Q, 20)
    assert a == b and a.to_json() == b.to_json()


def test_flatten_commutes_with_tensor_on_splits():
    for i in (3, 5, 6, 9, 10, 12):
        s = binary_split(i)
        a = build_Ei(s.i1, Q, 16)
        b = build_Ei(s.i2, Q, 16)
        assert a.tensor(b).flatten() == a.flatten().tensor(b.flatten())


# ---------------------------------------------------------------------------
# the pruned quadratic step against an unpruned reference

def _reference_step(E, q, trunc):
    """The quadratic step without the 2p shift bound: every product of E
    distributed factor by factor, plus all unordered cross pairs, through
    the validating constructor."""
    acc = {}

    def add(prod, mult):
        key = tuple(sorted(prod))
        acc[key] = acc.get(key, 0) + mult

    def expand(cell):
        cells = [c for c, _ in d2_cell(cell, trunc)]
        for c in cells:
            res = s_member(c, q)
            if not res.ok:
                raise SMembershipViolation(c, res.failed)
        return cells

    for prod, m in E:
        partial = [((), 0)]
        for factor in prod:
            partial = [(chosen + (c,), s + c.p)
                       for chosen, s in partial for c in expand(factor)
                       if s + c.p <= trunc]
            if not partial:
                break
        for chosen, _ in partial:
            add(chosen, m)
    items = list(E)
    for a, (prod1, m1) in enumerate(items):
        add(prod1 + prod1, m1 * (m1 - 1) // 2)
        for prod2, m2 in items[a + 1:]:
            add(prod1 + prod2, m1 * m2)
    return ProductSum(acc, trunc)


def _reference_Ei(i, q, trunc):
    if i == 1:
        return ProductSum({((1, 0),): 1}, trunc)
    if i & (i - 1) == 0:
        return _reference_step(_reference_Ei(i // 2, q, trunc), q, trunc)
    s = binary_split(i)
    E1, E2 = _reference_Ei(s.i1, q, trunc), _reference_Ei(s.i2, q, trunc)
    acc = {}
    for prod1, m1 in E1:
        for prod2, m2 in E2:
            key = tuple(sorted(prod1 + prod2))
            acc[key] = acc.get(key, 0) + m1 * m2
    return ProductSum(acc, trunc)


def _outcome(build, i, q, trunc):
    try:
        return build(i, q, trunc).to_json()
    except SMembershipViolation as exc:
        return ("violation", exc.cell, exc.reason)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16),
       st.sampled_from(["2/3", "3/4", "5/7", "5/9", "1/2"]),
       st.integers(0, 22))
def test_build_matches_the_unpruned_reference(i, q, trunc):
    # Equal containers, or the same 𝒮 violation (5/9 and 1/2 leave the family).
    assert _outcome(build_Ei, i, q, trunc) == _outcome(_reference_Ei, i, q, trunc)


# ---------------------------------------------------------------------------
# vanishing certificates

def test_min_slack_table():
    # Honest enumeration at truncation 24; the container for i = 4 reaches
    # slack 1 on the singleton product [(5,3)].
    slacks = {}
    for i in (2, 3, 4, 6, 8, 16):
        cert = vanishing_certificate(build_Ei(i, Q, 24), Q)
        assert cert.ok
        slacks[i] = cert.min_slack
    assert slacks == {2: 1, 3: 3, 4: 1, 6: 2, 8: 2, 16: 4}


def test_e32_certifies_at_truncation_40():
    cert = vanishing_certificate(build_Ei(32, Q, 40), Q)
    assert cert.ok and cert.min_slack == 8
    assert cert.witness == (BiDegree(40, 24),)
    # Every product of E_64 has shift >= 64 > 40.
    assert len(build_Ei(64, Q, 40)) == 0


def test_certificate_witness_realizes_the_minimum():
    E = build_Ei(4, Q, 24)
    cert = vanishing_certificate(E, Q)
    g = StarGrading.from_slope(Q)
    total = BiDegree(
        sum(c.p for c in cert.witness), sum(c.w for c in cert.witness)
    )
    assert g.star(total) == cert.min_slack == 1
    assert cert.witness == (BiDegree(5, 3),)


def test_certificate_rejects_nonpositive_star():
    E = ProductSum({((1, 1),): 1}, 8)
    cert = vanishing_certificate(E, Q)
    assert not cert.ok and cert.min_slack == -1


def test_empty_container_is_vacuously_certified():
    cert = vanishing_certificate(ProductSum({}, 8), Q)
    assert cert.ok and cert.min_slack is None and cert.witness is None


def test_mediant_property():
    # Star additivity: factorwise positivity forces product positivity,
    # so a built container always certifies.
    for i in (2, 3, 5, 6, 7):
        E = build_Ei(i, Q, 16)
        g = StarGrading.from_slope(Q)
        for prod, _ in E:
            assert all(g.star(c) > 0 for c in prod)
        assert vanishing_certificate(E, Q).ok


def test_nsym_series_combined_is_row_sum():
    table = nsym_series(4, Q, 12)
    assert table["rows"][0] == {0: 1}
    assert table["rows"][1] == {2: 1}
    combined: dict[int, int] = {}
    for row in table["rows"].values():
        for d, c in row.items():
            combined[d] = combined.get(d, 0) + c
    assert table["combined"] == dict(sorted(combined.items()))


# ---------------------------------------------------------------------------
# series division

def test_series_multiply_truncates():
    assert series_multiply({0: 1, 1: 2}, {0: 1, 2: 1}, 2) == {0: 1, 1: 2, 2: 1}


@st.composite
def series_pairs(draw):
    v = {0: draw(st.integers(0, 3))}
    for d in range(1, draw(st.integers(1, 10)) + 1):
        c = draw(st.integers(0, 3))
        if c:
            v[d] = c
    a = {0: 1}
    for d in range(1, draw(st.integers(1, 6)) + 1):
        c = draw(st.integers(0, 3))
        if c:
            a[d] = c
    return {d: c for d, c in v.items() if c}, a


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_divide_inverts_multiply(pair):
    v, a = pair
    m = series_multiply(v, a, 20)
    assert cofree_divide(m, a, 20) == {d: c for d, c in v.items() if d <= 20}


def test_divide_reports_first_negative_degree():
    with pytest.raises(NegativeCoefficient) as exc:
        cofree_divide({0: 1, 1: 1}, {0: 1, 1: 2}, 20)
    assert exc.value.degree == 1 and exc.value.value == -1


def test_divide_validates_inputs():
    with pytest.raises(InvalidInput):
        cofree_divide({0: 1}, {0: 2}, 10)
    with pytest.raises(InvalidInput):
        cofree_divide({-1: 1}, {0: 1}, 10)


def test_generator_series_star_degrees():
    # tau_i sits in star degree 2^i + 1 and xi_i in 2^i - 1 at slope 2/3.
    data = {
        "generators": [
            {"name": "tau1", "p": 3, "w": 1, "square_zero": True},
            {"name": "xi1", "p": 2, "w": 1},
        ]
    }
    s = load_generator_series(data, Q, 6)
    # Monomials: 1, xi1^e (degree e), tau1 (degree 3), tau1*xi1^e.
    assert s == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2}


def test_generator_series_rejects_nonpositive_star():
    data = {"generators": [{"name": "bad", "p": 1, "w": 1}]}
    with pytest.raises(InvalidInput):
        load_generator_series(data, Q, 6)
