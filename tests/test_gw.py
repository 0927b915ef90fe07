"""Square-class bookkeeping: the group ring on unit classes, the power-map
class n_epsilon, the matrix identity behind the Euler-degree computation,
the trace derivation, and the torsion equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as strats

from motalg import gw
from motalg.gw import (
    GWElement,
    LaurentMatrix2,
    LaurentPoly,
    SquareClassGroup,
    integer,
    n_epsilon,
    unit_class,
)


def gw_elements():
    classes = gw.DEFAULT_GROUP.elements()
    coeff = strats.integers(min_value=-5, max_value=5)
    return strats.fixed_dictionaries({c: coeff for c in classes}).map(
        lambda d: GWElement(gw.DEFAULT_GROUP, d)
    )


# ---------------------------------------------------------------------------
# square classes

def test_square_class_group_basics():
    G = gw.DEFAULT_GROUP
    assert G.cls("-1", "-1") == G.one
    assert G.cls("-1", "2") == G.cls("2", "-1")
    assert [G.render(e) for e in G.elements()] == ["1", "⟨-1⟩", "⟨2⟩", "⟨-2⟩"]
    with pytest.raises(ValueError):
        G.cls("3")
    with pytest.raises(ValueError):
        SquareClassGroup(("a", "a"))


def test_unit_classes_square_to_one():
    for gens in [("-1",), ("2",), ("-1", "2")]:
        u = unit_class(*gens)
        assert u * u == integer(1)


def test_element_rendering():
    assert str(n_epsilon(7)) == "4 + 3⟨-1⟩"
    assert str(integer(1) - unit_class("-1")) == "1 - ⟨-1⟩"
    assert str(integer(0)) == "0"
    assert str(unit_class("-1", "2")) == "⟨-2⟩"


def test_mixed_groups_are_rejected():
    other = SquareClassGroup(("-1",))
    with pytest.raises(ValueError):
        integer(1) + integer(1, other)


def test_to_vector():
    basis = gw.DEFAULT_GROUP.elements()
    assert n_epsilon(3).to_vector(basis) == [2, 1, 0, 0]
    with pytest.raises(ValueError):
        n_epsilon(3).to_vector(basis[2:])


@given(x=gw_elements(), y=gw_elements(), z=gw_elements())
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * 1 == x and x + 0 == x and x - x == integer(0)


# ---------------------------------------------------------------------------
# the power-map class

@pytest.mark.parametrize("n", range(0, 21))
def test_n_epsilon_matches_the_alternating_sum(n):
    acc = integer(0)
    for i in range(n):
        acc = acc + (integer(1) if i % 2 == 0 else unit_class("-1"))
    assert n_epsilon(n) == acc


def test_n_epsilon_rejects_negative():
    with pytest.raises(ValueError):
        n_epsilon(-1)


def test_additivity_holds_only_with_an_even_summand():
    for n in range(0, 12, 2):
        for m in range(0, 12):
            assert n_epsilon(n) + n_epsilon(m) == n_epsilon(n + m)
    # Odd plus odd misses the switch class.
    assert n_epsilon(1) + n_epsilon(1) == integer(2)
    assert n_epsilon(2) == integer(1) + unit_class("-1")
    assert n_epsilon(1) + n_epsilon(1) != n_epsilon(2)


def test_multiplicativity_holds():
    for n in range(0, 16):
        for m in range(0, 16):
            assert n_epsilon(n) * n_epsilon(m) == n_epsilon(n * m), (n, m)


def test_aliases():
    assert gw.switch_class() == unit_class("-1")
    assert gw.power_map_class(6) == n_epsilon(6)


# ---------------------------------------------------------------------------
# Laurent polynomials and the matrix identity

def test_laurent_poly_arithmetic():
    a = LaurentPoly.monomial(1)
    a_inv = LaurentPoly.monomial(-1)
    assert a * a_inv == 1
    assert (1 - a) * (1 + a) == 1 - a * a
    assert (a + a_inv).at_one() == 2
    assert str(a_inv) == "a^-1"
    assert str(1 - a) == "-a + 1"
    assert not LaurentPoly()


def test_laurent_matrix_arithmetic():
    eye = LaurentMatrix2.identity()
    a = LaurentPoly.monomial(1)
    m = LaurentMatrix2([[a, 1], [0, a]])
    assert m * eye == m
    assert m.det() == a * a
    with pytest.raises(ValueError):
        LaurentMatrix2([[1, 2, 3], [4, 5, 6]])


def test_whitehead_identity():
    rep = gw.whitehead_check()
    assert rep.ok
    a = LaurentPoly.monomial(1)
    a_inv = LaurentPoly.monomial(-1)
    assert rep.product == LaurentMatrix2([[a_inv, 0], [0, a]])
    assert str(rep.product) == "[[a^-1, 0], [0, a]]"
    assert len(rep.factors) == 4
    assert rep.determinants_ok
    assert all(d == 1 for d in rep.determinants)
    # Each factor is unipotent at a = 1; only the product is the identity.
    assert rep.at_one_factors == (
        ((1, 1), (0, 1)),
        ((1, 0), (0, 1)),
        ((1, -1), (0, 1)),
        ((1, 0), (0, 1)),
    )
    assert rep.at_one_product_identity


# ---------------------------------------------------------------------------
# the trace derivation

def test_lefschetz_trace_derivation():
    rep = gw.lefschetz_trace_derivation()
    assert rep.ok
    assert str(rep.lhs) == "3 + ⟨-1⟩"
    assert str(rep.solved) == "⟨2⟩ + ⟨-2⟩"
    assert rep.consistency == rep.solved
    # Independent recomputation: multiplying the residue by the order-2
    # unit <-2> must solve the linear equation exactly.
    residue = rep.lhs - integer(2)
    assert unit_class("-1", "2") * residue == rep.solved
    assert rep.fixed_locus == (("0", 0), ("infinity", 0), ("S'", 3))
    assert rep.locus_units_ok
    assert rep.to_dict()["fixed_locus"] == {"0": 0, "infinity": 0, "S'": 3}


# ---------------------------------------------------------------------------
# torsion equivalence in the group ring

def test_torsion_equivalence_certificates():
    rep = gw.torsion_equivalence()
    assert rep.ok and rep.forward and rep.backward and rep.norm_identity
    assert rep.forward_witness == {"⟨2⟩*(r)": 1, "⟨2⟩*(2)": -1}
    assert rep.backward_witness == {"1*(r)": 1, "⟨2⟩*(2_eps)": -1}

    # Recompute both memberships from the witnesses.
    two = integer(2)
    two_eps = n_epsilon(2)
    relation = two + unit_class("2") * two_eps
    assert unit_class("2") * relation - unit_class("2") * two == two_eps
    assert relation - unit_class("2") * two_eps == two
