"""Formal rewriting that moves coefficients past Steenrod operations, plus
two small cohomology fixtures (a projective-space ring with one relation and
the rank-2 Moore-object module).

Coefficients are formal: products of the generators x and tau and of opaque
operator applications Sq^j(-) and beta(-).  A factor carries the coefficient
ideal flag when it is x, tau, or an operator applied to a flagged argument;
a product is flagged iff some factor is.  Words are sequences of beta and
even squares; odd squares normalize as Sq^(2n+1) = beta Sq^(2n) and two
adjacent betas annihilate the word.

The central identity (char 2), the motivic Cartan formula with its tau-term,
is, for any coefficient c,

  c Sq^(2n) = Sq^(2n) c + sum_{a+b=n, a>0} Sq^(2a)(c) Sq^(2b)
                        + sum_{a+b=n-1} tau Sq^(2a+1)(c) Sq^(2b+1)

together with the Bockstein rule c beta = beta c + beta(c).  _cartan_terms
yields the two correction sums; _push_right reads the identity left to
right and _push_left reads it right to left, so the right normal form
(commute_right), the left normal form (commute_left) and the round trip
between them all come from that one statement.

A normal form is the mod-2 set of terms the push returns; RewriteResult
keeps it as that set.  The order of its terms matters only to output, so
it is worked out the first time output asks for it, never by the checks.
"""

from __future__ import annotations

from typing import NamedTuple

X = (("x",),)
TAU = (("tau",),)

ONE: tuple = ()  # the empty coefficient monomial

FLAG_ASSUMPTION = (
    "operator atoms Sq^j(c) and beta(c) inherit the coefficient ideal flag "
    "from c; this closure is assumed, not derived"
)


def render_mono(m: tuple) -> str:
    return "*".join(render_factor(f) for f in m) if m else "1"


def render_factor(f, mono=render_mono) -> str:
    """One factor as text; mono renders the monomial inside an operator."""
    kind = f[0]
    if kind == "x":
        return "x"
    if kind == "tau":
        return "tau"
    if kind == "Sq":
        return f"Sq^{f[1]}({mono(f[2])})"
    if kind == "beta":
        return f"beta({mono(f[1])})"
    raise ValueError(f"unknown factor {f!r}")


def _mono_renderer():
    """A render_mono that renders each distinct factor, nested ones too,
    once; the memo lives as long as the returned function."""
    memo: dict = {}

    def factor(f) -> str:
        text = memo.get(f)
        if text is None:
            text = memo[f] = render_factor(f, mono)
        return text

    def mono(m: tuple) -> str:
        return "*".join(map(factor, m)) if m else "1"

    return mono


# The first letter of each kind's rendering: "Sq^", "beta(", "tau", "x".
_KIND_LETTER = {"Sq": "S", "beta": "b", "tau": "t", "x": "x"}


def mono_mul(a: tuple, b: tuple) -> tuple:
    """Product of two canonical monomials: factors sorted by rendering."""
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1 and a[0][0] != b[0][0]:
        # Factors of different kinds differ in the first letter of their
        # rendering, so that letter alone decides the order.
        if _KIND_LETTER[a[0][0]] < _KIND_LETTER[b[0][0]]:
            return a + b
        return b + a
    return tuple(sorted(a + b, key=render_factor))


def mono_flagged(m: tuple) -> bool:
    return any(factor_flagged(f) for f in m)


def factor_flagged(f, mono=mono_flagged) -> bool:
    """Whether a factor carries the flag; mono checks the monomial inside
    an operator."""
    kind = f[0]
    if kind in ("x", "tau"):
        return True
    if kind == "Sq":
        return mono(f[2])
    if kind == "beta":
        return mono(f[1])
    raise ValueError(f"unknown factor {f!r}")


def _flag_checker():
    """A mono_flagged that checks each distinct factor, nested ones too,
    once; the memo lives as long as the returned function."""
    memo: dict = {}

    def factor(f) -> bool:
        flag = memo.get(f)
        if flag is None:
            flag = memo[f] = factor_flagged(f, mono)
        return flag

    def mono(m: tuple) -> bool:
        return any(map(factor, m))

    return mono


def sq_of(j: int, m: tuple) -> tuple:
    """The formal operator Sq^j applied to a whole coefficient monomial."""
    if j == 0:
        return m
    return (("Sq", j, m),)


def beta_of(m: tuple) -> tuple | None:
    """beta applied to a monomial; None encodes zero (beta of a lone
    beta-atom vanishes)."""
    if len(m) == 1 and m[0][0] == "beta":
        return None
    return (("beta", m),)


# Words: "b" for the Bockstein, ("s", 2n) for the even square Sq^(2n).

def word(*squares: int) -> tuple:
    """Normalize a sequence of square indices into a word; Sq^1 = beta,
    Sq^(2n+1) = beta Sq^(2n), Sq^0 omitted.  Returns None for a word that
    dies by beta beta = 0."""
    items: list = []
    for j in squares:
        if j < 0:
            raise ValueError("negative square index")
        if j == 0:
            continue
        if j % 2:
            items.append("b")
            if j > 1:
                items.append(("s", j - 1))
        else:
            items.append(("s", j))
    return _word_reduce(tuple(items))


def _word_reduce(w: tuple) -> tuple | None:
    for i in range(len(w) - 1):
        if w[i] == "b" and w[i + 1] == "b":
            return None
    return w


def word_degree(w: tuple) -> int:
    return sum(1 if it == "b" else it[1] for it in w)


def render_word(w: tuple) -> str:
    if not w:
        return "1"
    return " ".join("beta" if it == "b" else f"Sq^{it[1]}" for it in w)


def _term_line(left: str, word: str, right: str) -> str:
    """A rendered term as one line; a coefficient ONE (rendered "1") is
    left out."""
    parts = [] if left == "1" else [left]
    parts.append(f"[{word}]")
    if right != "1":
        parts.append(right)
    return " ".join(parts)


class Term(NamedTuple):
    left: tuple
    word: tuple
    right: tuple

    def __str__(self):
        return _term_line(render_mono(self.left), render_word(self.word),
                          render_mono(self.right))


class RewriteResult:
    """A normal form as the mod-2 set of its distinct terms, with the number
    of rule applications that produced it.

    The set is the answer: the flag checks and roundtrip_check iterate it
    as it is.  Order is an output concern.  The first use of terms,
    rendered(), lines(), to_records() or str() sorts the terms once, by
    word degree and then by the text of the word, the right and the left
    coefficient; the sort and the output share that one rendering, which
    renders each distinct factor once.  Rendering is injective on canonical
    monomials, so no two terms tie."""

    def __init__(self, terms, rules: int, assumption: str = FLAG_ASSUMPTION):
        self.term_set = frozenset(terms)
        self.rules = rules
        self.assumption = assumption
        self._rows = None

    def _sorted_rows(self) -> list:
        """(word degree, word, right, left text, term) per term, sorted on
        first use."""
        if self._rows is None:
            mono = _mono_renderer()
            words: dict = {}
            rows = []
            for t in self.term_set:
                w = words.get(t.word)
                if w is None:
                    w = words[t.word] = (word_degree(t.word), render_word(t.word))
                rows.append((*w, mono(t.right), mono(t.left), t))
            rows.sort()
            self._rows = rows
        return self._rows

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(row[4] for row in self._sorted_rows())

    def __str__(self):
        return " + ".join(self.lines()) if self.term_set else "0"

    def right_coefficients_flagged(self) -> bool:
        flagged = _flag_checker()
        return all(t.left == ONE and flagged(t.right) for t in self.term_set)

    def left_coefficients_flagged(self) -> bool:
        flagged = _flag_checker()
        return all(t.right == ONE and flagged(t.left) for t in self.term_set)

    def rendered(self):
        """The (left, word, right) text of each term in order."""
        return ((left, word, right)
                for _, word, right, left, _ in self._sorted_rows())

    def lines(self):
        """str(t) for each term t in order."""
        return (_term_line(*r) for r in self.rendered())

    def to_records(self) -> list[dict]:
        return [{"left": left, "word": word, "right": right}
                for left, word, right in self.rendered()]


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _cartan_terms(c: tuple, n: int):
    """The correction terms of c Sq^(2n) = Sq^(2n) c + ..., as (coefficient,
    word) pairs: (Sq^(2a)(c), Sq^(2b)) for a + b = n, a > 0, and
    (tau Sq^(2a+1)(c), Sq^(2b+1)) for a + b = n - 1."""
    for a in range(1, n + 1):
        b = n - a
        yield sq_of(2 * a, c), ((("s", 2 * b),) if b else ())
    for a in range(n):
        b = n - 1 - a
        yield (mono_mul(TAU, sq_of(2 * a + 1, c)),
               ("b", ("s", 2 * b)) if b else ("b",))


def _push_right(c: tuple, w: tuple, log: _Counter) -> set:
    """All-right normal form of the product c * w, as a mod-2 set of
    (word, right coefficient) pairs.  Terminates because each recursive
    call strictly decreases the degree of the word still to the right of
    the moving coefficient."""
    if c == ONE or not w:
        return {(w, c)}
    log.n += 1
    head, rest = w[0], w[1:]
    if head == "b":
        # c beta = beta c + beta(c)
        out = {
            (("b",) + w2, r2) for w2, r2 in _push_right(c, rest, log)
            if not (w2 and w2[0] == "b")
        }
        bc = beta_of(c)
        if bc is not None:
            out ^= _push_right(bc, rest, log)
    else:
        out = set()
        for c2, mid in _cartan_terms(c, head[1] // 2):
            out ^= _push_right(c2, mid + rest, log)
        out ^= {((head,) + w2, r2) for w2, r2 in _push_right(c, rest, log)}
    return out


def _append_word(pairs: set, mid: tuple) -> set:
    """The (left coefficient, word) pairs with mid appended to each word;
    words that die by beta beta = 0 drop out."""
    out = set()
    for l2, w2 in pairs:
        joined = _word_reduce(w2 + mid)
        if joined is not None:
            out.add((l2, joined))
    return out


def _push_left(l: tuple, w: tuple, c: tuple, log: _Counter) -> set:
    """Mirror of _push_right: all-left normal form of l * w * c as a mod-2
    set of (left coefficient, word) pairs."""
    if c == ONE or not w:
        return {(mono_mul(l, c), w)}
    log.n += 1
    last, rest = w[-1], w[:-1]
    if last == "b":
        # beta c = c beta + beta(c)
        out = {
            (l2, w2 + ("b",)) for l2, w2 in _push_left(l, rest, c, log)
            if not (w2 and w2[-1] == "b")
        }
        bc = beta_of(c)
        if bc is not None:
            out ^= _push_left(l, rest, bc, log)
    else:
        out = set()
        for c2, mid in _cartan_terms(c, last[1] // 2):
            out ^= _append_word(_push_left(l, rest, c2, log), mid)
        out ^= _append_word(_push_left(l, rest, c, log), (last,))
    return out


def _right_normal_form(w: tuple) -> RewriteResult:
    """Normal form of x * w with every coefficient on the right."""
    log = _Counter()
    pairs = _push_right(X, w, log)
    return RewriteResult((Term(ONE, w2, r) for w2, r in pairs), log.n)


def _left_normal_form(w: tuple) -> RewriteResult:
    """Normal form of w * x with every coefficient on the left."""
    log = _Counter()
    pairs = _push_left(ONE, w, X, log)
    return RewriteResult((Term(l, w2, ONE) for l, w2 in pairs), log.n)


def commute_right(n: int) -> RewriteResult:
    """Normal form of x * Sq^(2n) with every coefficient on the right."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _right_normal_form(word(2 * n))


def commute_right_beta() -> RewriteResult:
    """The i = 1 Bockstein case: x beta = beta x + beta(x)."""
    return _right_normal_form(("b",))


def commute_left(n: int) -> RewriteResult:
    """One unfolding of the identity read right to left: the normal form of
    Sq^(2n) * x with every coefficient on the left."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _left_normal_form(word(2 * n))


def commute_left_beta() -> RewriteResult:
    """beta x = x beta + beta(x)."""
    return _left_normal_form(("b",))


def roundtrip_check(n: int, res: RewriteResult | None = None) -> bool:
    """Push the right coefficients of commute_right(n) back to the left with
    the mirror identity set; the reduced sum must be exactly x * Sq^(2n).
    A caller that already holds commute_right(n) passes it as res."""
    if res is None:
        res = commute_right(n)
    log = _Counter()
    acc: set = set()
    for t in res.term_set:
        acc ^= _push_left(t.left, t.word, t.right, log)
    return acc == {(X, word(2 * n))}


# ---------------------------------------------------------------------------
# Projective-space cohomology fixture: generators u:(1,1), v:(2,1),
# tau:(0,1), rho:(1,1), single relation u^2 = tau v + rho u.  Normal basis
# u^e v^j tau^a rho^b with e <= 1.  The closed variant sets rho = 0.

_GEN_BIDEG = {"u": (1, 1), "v": (2, 1), "tau": (0, 1), "rho": (1, 1)}

Mono = tuple[int, int, int, int]  # exponents (e, j, a, b) of (u, v, tau, rho)


def mono_bidegree(m: Mono) -> tuple[int, int]:
    e, j, a, b = m
    return (e + 2 * j + b, e + j + a + b)


def render_rp_mono(m: Mono) -> str:
    e, j, a, b = m
    parts = []
    for name, exp in (("u", e), ("v", j), ("tau", a), ("rho", b)):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def _normalize_rp(m: Mono, closed: bool) -> set[Mono]:
    """Reduce u-exponent below 2 through the relation; mod-2 set of normal
    monomials."""
    e, j, a, b = m
    if closed and b:
        return set()
    if e < 2:
        return {m}
    # u^e = u^(e-2) (tau v + rho u)
    out: set[Mono] = set()
    out ^= _normalize_rp((e - 2, j + 1, a + 1, b), closed)
    if not closed:
        out ^= _normalize_rp((e - 1, j, a, b + 1), closed)
    return out


def _rp_mono_mul(m1: Mono, m2: Mono, closed: bool) -> set[Mono]:
    raw = tuple(x + y for x, y in zip(m1, m2))
    return _normalize_rp(raw, closed)


def _rp_sq1(m: Mono, closed: bool) -> set[Mono]:
    """Derivation with Sq1(u) = v, Sq1(tau) = rho (0 in the closed
    variant), Sq1(v) = Sq1(rho) = 0, by the Leibniz rule on the normal
    form."""
    e, j, a, b = m
    out: set[Mono] = set()
    if e % 2:
        out ^= {(e - 1, j + 1, a, b)}
    if a % 2 and not closed:
        out ^= _normalize_rp((e, j, a - 1, b + 1), closed)
    return out


class RPRing(NamedTuple):
    variant: str
    maxdeg: int
    basis: tuple[Mono, ...]
    dims: dict[tuple[int, int], int]
    sq1: dict[Mono, frozenset[Mono]]
    relation_certificate: bool
    sq1_squared_zero: bool

    def dim(self, p: int, w: int) -> int:
        return self.dims.get((p, w), 0)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "maxdeg": self.maxdeg,
            "dims": {
                f"({p},{w})": n for (p, w), n in sorted(self.dims.items())
            },
            "sq1": {
                render_rp_mono(m): sorted(render_rp_mono(t) for t in ts)
                for m, ts in sorted(self.sq1.items())
            },
            "relation_certificate": self.relation_certificate,
            "sq1_squared_zero": self.sq1_squared_zero,
        }


def _rp_relation_certificate(closed: bool) -> bool:
    """Sq1 applied to the free monomials u*u + tau*v + rho*u of the relation
    through _rp_sq1 reduces to zero in the normal form."""
    relation = [(2, 0, 0, 0), (0, 1, 1, 0)] + ([] if closed else [(1, 0, 0, 1)])
    total: set[Mono] = set()
    for m in relation:
        for t in _rp_sq1(m, closed):
            total ^= _normalize_rp(t, closed)
    return total == set()


def rp_ring(maxdeg: int, variant: str = "real") -> RPRing:
    """The bigraded ring on u, v, tau, rho with u^2 = tau v + rho u, its
    dimension table on the grid 0 <= p, w <= maxdeg, the Sq1 action table,
    and the well-definedness certificates.

    The basis is grown multiplicatively from 1 by the four generators, so
    the table is an independent check against direct monomial enumeration.
    """
    if maxdeg < 0:
        raise ValueError("need maxdeg >= 0")
    if variant not in ("real", "closed"):
        raise ValueError(f"unknown variant {variant!r}")
    closed = variant == "closed"

    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    if not closed:
        gens.append((0, 0, 0, 1))

    def in_grid(m: Mono) -> bool:
        p, w = mono_bidegree(m)
        return 0 <= p <= maxdeg and 0 <= w <= maxdeg

    basis: set[Mono] = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                for prod in _rp_mono_mul(m, g, closed):
                    if in_grid(prod) and prod not in basis:
                        basis.add(prod)
                        nxt.append(prod)
        frontier = nxt

    ordered = tuple(sorted(basis))
    dims: dict[tuple[int, int], int] = {}
    for m in ordered:
        key = mono_bidegree(m)
        dims[key] = dims.get(key, 0) + 1

    sq1 = {}
    squared_zero = True
    for m in ordered:
        img = _rp_sq1(m, closed)
        sq1[m] = frozenset(img)
        second: set[Mono] = set()
        for t in img:
            second ^= _rp_sq1(t, closed)
        if second:
            squared_zero = False

    return RPRing(
        variant, maxdeg, ordered, dims, sq1,
        _rp_relation_certificate(closed), squared_zero,
    )


# ---------------------------------------------------------------------------
# Moore-object homology fixture: the rank-2 free module on 1:(0,0), x:(1,0)
# with the image classes of the comparison map in two models, and the dual
# operation Sq1(1) = x.

_TARGET_BIDEG = {"tau0": (1, 0), "rho": (-1, -1), "xi1": (2, 1)}

_MODELS = {
    "standard": {"1": (("1",),), "x": (("tau0",),)},
    "xu": {"1": (("1",),), "x": (("tau0",), ("rho", "xi1"))},
}


class MooreFixture(NamedTuple):
    model: str
    classes: dict[str, tuple[int, int]]
    alpha: dict[str, tuple[tuple[str, ...], ...]]
    sq1: dict[str, tuple[str, ...]]
    homogeneous: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "classes": {k: list(v) for k, v in self.classes.items()},
            "alpha": {
                k: [" ".join(mono) for mono in v] for k, v in self.alpha.items()
            },
            "sq1": {k: list(v) for k, v in self.sq1.items()},
            "homogeneous": self.homogeneous,
        }


def moore_homology(model: str) -> MooreFixture:
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; choose standard or xu")
    classes = {"1": (0, 0), "x": (1, 0)}
    alpha = _MODELS[model]

    def mono_deg(mono: tuple[str, ...]) -> tuple[int, int]:
        p = w = 0
        for g in mono:
            if g == "1":
                continue
            gp, gw = _TARGET_BIDEG[g]
            p += gp
            w += gw
        return (p, w)

    homogeneous = all(
        mono_deg(mono) == classes[src]
        for src, monos in alpha.items()
        for mono in monos
    )
    sq1 = {"1": ("x",), "x": ()}
    return MooreFixture(model, classes, dict(alpha), sq1, homogeneous)
