"""Mod-2 operator rewriting with coefficient bookkeeping, the bigraded
projective-space ring, and the Moore-object fixtures."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as strats

from motalg import acceptance, cli, steenrod as st


def records_digest(res):
    doc = json.dumps(res.to_records(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


# ---------------------------------------------------------------------------
# words

def test_word_normalization():
    assert st.word(1) == ("b",)
    assert st.word(2) == (("s", 2),)
    assert st.word(3) == ("b", ("s", 2))
    assert st.word(2, 2) == (("s", 2), ("s", 2))
    assert st.word(0) == ()
    assert st.word(1, 1) is None  # beta beta = 0
    with pytest.raises(ValueError):
        st.word(-1)


def test_word_degree_and_rendering():
    assert st.word_degree(st.word(3)) == 3
    assert st.word_degree(()) == 0
    assert st.render_word(st.word(5)) == "beta Sq^4"
    assert st.render_word(()) == "1"


def test_formal_operator_atoms():
    assert st.sq_of(0, st.X) == st.X
    assert st.render_mono(st.sq_of(2, st.X)) == "Sq^2(x)"
    assert st.beta_of(st.beta_of(st.X)) is None
    assert st.render_mono(st.mono_mul(st.TAU, st.sq_of(1, st.X))) == "Sq^1(x)*tau"
    assert st.render_mono(st.ONE) == "1"


def reference_mul(a, b):
    return tuple(sorted(a + b, key=st.render_factor))


# Canonical monomials: nested Sq^j(-) and beta(-) atoms over x and tau, in
# products sorted by rendering.  The indices reach the Sq^10..Sq^16 of the
# n = 8 rewrite, where rendered order (Sq^10 < Sq^2) is not integer order.
canonical_monos = strats.recursive(
    strats.sampled_from([st.ONE, st.X, st.TAU]),
    lambda inner: strats.one_of(
        strats.builds(st.sq_of, strats.integers(0, 20), inner),
        strats.builds(st.beta_of, inner).filter(lambda m: m is not None),
        strats.builds(reference_mul, inner, inner),
    ),
    max_leaves=8,
)


@given(canonical_monos, canonical_monos)
def test_mono_mul_sorts_factors_by_rendering(a, b):
    assert st.mono_mul(a, b) == reference_mul(a, b)


# One memo of each kind for every drawn monomial, so that a key which goes
# stale or collides between examples gives a wrong answer.
shared_render = st._mono_renderer()
shared_flagged = st._flag_checker()


@given(canonical_monos)
def test_memoized_rendering_equals_render_mono(m):
    assert shared_render(m) == st.render_mono(m)


@given(canonical_monos)
def test_memoized_flag_check_equals_mono_flagged(m):
    assert shared_flagged(m) == st.mono_flagged(m)


def test_memoized_flag_check_sees_unflagged_monomials():
    flagged = st._flag_checker()
    for m in (st.ONE, st.sq_of(2, st.ONE), st.beta_of(st.sq_of(3, st.ONE))):
        assert not flagged(m)
    assert flagged(st.mono_mul(st.sq_of(2, st.ONE), st.beta_of(st.X)))


# ---------------------------------------------------------------------------
# commuting coefficients across operator words

def test_commute_right_smallest_case_is_frozen():
    res = st.commute_right(1)
    assert [str(t) for t in res.terms] == [
        "[1] Sq^2(x)",
        "[1] beta(Sq^1(x)*tau)",
        "[beta] Sq^1(x)*tau",
        "[Sq^2] x",
    ]
    assert res.rules == 2
    assert res.right_coefficients_flagged()
    assert str(res) == (
        "[1] Sq^2(x) + [1] beta(Sq^1(x)*tau) + [beta] Sq^1(x)*tau + [Sq^2] x"
    )


def test_commute_left_smallest_case_is_frozen():
    res = st.commute_left(1)
    assert [str(t) for t in res.terms] == [
        "Sq^2(x) [1]",
        "Sq^1(x)*tau [beta]",
        "x [Sq^2]",
    ]
    assert res.rules == 1
    assert res.left_coefficients_flagged()


def test_bockstein_cases():
    res = st.commute_right_beta()
    assert [str(t) for t in res.terms] == ["[1] beta(x)", "[beta] x"]
    res = st.commute_left_beta()
    assert [str(t) for t in res.terms] == ["beta(x) [1]", "x [beta]"]


@pytest.mark.parametrize("n", range(1, 5))
def test_flag_closure_in_both_directions(n):
    assert st.commute_right(n).right_coefficients_flagged()
    assert st.commute_left(n).left_coefficients_flagged()
    # One unfolding on the left gives exactly 2n + 1 terms.
    assert len(st.commute_left(n).terms) == 2 * n + 1


@pytest.mark.parametrize("n", range(1, 6))
def test_pushing_coefficients_back_recovers_the_input(n):
    assert st.roundtrip_check(n)
    # A rewrite the caller already holds is checked as given.
    assert st.roundtrip_check(n, st.commute_right(n))
    if n > 1:
        assert not st.roundtrip_check(n, st.commute_right(n - 1))


# A coefficient c and a word w of degree <= 8: c * w pushed right and every
# (word, right coefficient) pair pushed back left is c * w again, since both
# directions read the same Cartan-tau and Bockstein identities.
coefficients = strats.sampled_from([
    st.X, st.TAU, st.sq_of(2, st.X), st.beta_of(st.X),
    st.mono_mul(st.TAU, st.sq_of(1, st.X)),
])
words = (
    strats.lists(strats.integers(0, 8), max_size=4)
    .filter(lambda squares: sum(squares) <= 8)
    .map(lambda squares: st.word(*squares))
    .filter(lambda w: w is not None)
)


@settings(max_examples=40, deadline=None)
@given(coefficients, words)
def test_pushing_right_then_left_recovers_any_product(c, w):
    log = st._Counter()
    back: set = set()
    for w2, r in st._push_right(c, w, log):
        back ^= st._push_left(st.ONE, w2, r, log)
    assert back == {(c, w)}


def rendered_order(t):
    # The order terms are listed in: word degree, then the text of the
    # word, the right and the left coefficient.
    return (st.word_degree(t.word), st.render_word(t.word),
            st.render_mono(t.right), st.render_mono(t.left))


@settings(max_examples=40, deadline=None)
@given(strats.one_of(strats.just(("b",)), words),
       strats.randoms(use_true_random=False))
def test_normal_forms_list_their_term_sets_in_rendered_order(w, rnd):
    for res in (st._right_normal_form(w), st._left_normal_form(w)):
        assert list(res.terms) == sorted(res.term_set, key=rendered_order)
        # The order comes from the terms alone, not from how they arrive.
        shuffled = list(res.terms)
        rnd.shuffle(shuffled)
        again = st.RewriteResult(tuple(shuffled), res.rules)
        assert again.terms == res.terms
        assert again.to_records() == res.to_records()
        assert str(again) == str(res)


def test_checks_render_nothing_and_output_renders_each_factor_once(
        monkeypatch, capsys):
    rendered = []
    render_factor = st.render_factor

    def counted(f, *mono):
        rendered.append(f)
        return render_factor(f, *mono)

    monkeypatch.setattr(st, "render_factor", counted)
    assert acceptance.check_steenrod_rewriter()[0]
    assert rendered == []
    assert cli.main(["steenrod", "commute", "--n", "8", "--format", "json",
                     "--side", "right"]) == 0
    capsys.readouterr()
    assert len(rendered) == len(set(rendered)) == 31166


@pytest.fixture(scope="module")
def right8():
    return st.commute_right(8)


def test_rule_counts_are_frozen(right8):
    rules = [st.commute_right(n).rules for n in range(1, 8)] + [right8.rules]
    assert rules == [2, 9, 37, 149, 597, 2389, 9557, 38229]


def test_n8_rewrites_are_frozen(right8):
    assert len(right8.terms) == 24057
    assert records_digest(right8) == (
        "e984ed8bb615101d54405e2e6289228c67a901efc36912902602d1bc99fd755d"
    )
    left8 = st.commute_left(8)
    assert len(left8.terms) == 17
    assert records_digest(left8) == (
        "3824df36f222e7ae7207eac3eca5db06ada1c1db0fa91f67455233b34eea9559"
    )


def test_flag_checks_reject_one_unflagged_coefficient():
    # Flagged terms first: the check has to reach the last one.
    unflagged = st.sq_of(2, st.ONE)
    right = st.RewriteResult((
        st.Term(st.ONE, (), st.X),
        st.Term(st.ONE, ("b",), st.TAU),
        st.Term(st.ONE, st.word(2), unflagged),
    ), 0)
    assert not right.right_coefficients_flagged()
    left = st.RewriteResult((
        st.Term(st.X, (), st.ONE),
        st.Term(st.beta_of(st.X), ("b",), st.ONE),
        st.Term(unflagged, st.word(2), st.ONE),
    ), 0)
    assert not left.left_coefficients_flagged()
    # Each side's check also needs the other side's coefficients to be ONE.
    assert not left.right_coefficients_flagged()
    assert not right.left_coefficients_flagged()


def test_rendered_forms_agree(right8):
    records = right8.to_records()
    assert records == [
        {"left": st.render_mono(t.left), "word": st.render_word(t.word),
         "right": st.render_mono(t.right)}
        for t in right8.terms
    ]
    assert list(right8.lines()) == [str(t) for t in right8.terms]
    res = st.commute_right(2)
    assert str(res) == " + ".join(str(t) for t in res.terms)
    assert str(st.RewriteResult((), 0)) == "0"


def test_commute_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        st.commute_right(0)
    with pytest.raises(ValueError):
        st.commute_left(0)


def test_rewrite_records_and_assumption():
    res = st.commute_right(1)
    recs = res.to_records()
    assert recs[0] == {"left": "1", "word": "1", "right": "Sq^2(x)"}
    assert all(set(r) == {"left", "word", "right"} for r in recs)
    assert "assumed" in res.assumption


# ---------------------------------------------------------------------------
# the projective-space ring

def brute_force_dims(maxdeg, closed):
    # Normal monomials u^e v^j tau^a rho^b with e <= 1 (and b = 0 when
    # closed), counted by bidegree over the grid.
    dims = {}
    for e, j, a, b in itertools.product(
        range(2), range(maxdeg + 1), range(maxdeg + 1),
        range(1 if closed else maxdeg + 1),
    ):
        p, w = e + 2 * j + b, e + j + a + b
        if 0 <= p <= maxdeg and 0 <= w <= maxdeg:
            dims[(p, w)] = dims.get((p, w), 0) + 1
    return dims


def test_rp_small_dimension_table_is_frozen():
    rp = st.rp_ring(2, "real")
    assert dict(rp.dims) == {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 1): 2, (1, 2): 2,
        (2, 1): 1, (2, 2): 3,
    }
    assert st.rp_ring(2, "closed").dims == {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 1): 1, (1, 2): 1,
        (2, 1): 1, (2, 2): 1,
    }


@pytest.mark.parametrize("variant", ["real", "closed"])
@pytest.mark.parametrize("maxdeg", [0, 1, 3, 6])
def test_rp_dims_match_direct_monomial_enumeration(maxdeg, variant):
    rp = st.rp_ring(maxdeg, variant)
    assert dict(rp.dims) == brute_force_dims(maxdeg, variant == "closed")


def test_rp_certificates_and_generator_action():
    for variant in ("real", "closed"):
        rp = st.rp_ring(5, variant)
        assert rp.relation_certificate
        assert rp.sq1_squared_zero
    rp = st.rp_ring(4, "real")
    u, v, tau = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    assert rp.sq1[u] == frozenset({v})
    assert rp.sq1[tau] == frozenset({(0, 0, 0, 1)})  # rho
    assert rp.sq1[v] == frozenset()
    closed = st.rp_ring(4, "closed")
    assert closed.sq1[tau] == frozenset()
    assert all(m[3] == 0 for m in closed.basis)


def test_rp_dim_accessor_and_dict_form():
    rp = st.rp_ring(2, "real")
    assert rp.dim(2, 2) == 3 and rp.dim(5, 5) == 0
    d = rp.to_dict()
    assert d["dims"]["(2,2)"] == 3
    assert d["sq1"]["u"] == ["v"]
    assert d["relation_certificate"] is True


def test_rp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        st.rp_ring(-1)
    with pytest.raises(ValueError):
        st.rp_ring(3, "complex")


def test_rp_mono_rendering():
    assert st.render_rp_mono((0, 0, 0, 0)) == "1"
    assert st.render_rp_mono((1, 2, 1, 0)) == "u v^2 tau"
    assert st.mono_bidegree((1, 1, 0, 0)) == (3, 2)


# ---------------------------------------------------------------------------
# Moore-object fixtures

def test_moore_models():
    std = st.moore_homology("standard")
    assert std.classes == {"1": (0, 0), "x": (1, 0)}
    assert std.alpha["x"] == (("tau0",),)
    assert std.homogeneous

    xu = st.moore_homology("xu")
    assert xu.alpha["x"] == (("tau0",), ("rho", "xi1"))
    assert xu.homogeneous
    assert xu.to_dict()["alpha"]["x"] == ["tau0", "rho xi1"]

    with pytest.raises(ValueError, match="unknown model"):
        st.moore_homology("bogus")
