"""Independent reference for the coefficient-commutation rewriter.

Coefficients are formal commutative monomials in x, tau and the opaque
atoms Sq^j(m) and beta(m).  Here a monomial is a sorted tuple of canonical
factor strings, so two monomials are equal exactly when their canonical
renderings are.  Words are tuples whose letters are "b" (the Bockstein)
and ("s", k) (the even square Sq^k).

The rewriter works forwards: a state (emitted word, coefficient, word still
to cross) is expanded one letter at a time with

  c Sq^(2m) = sum_{a=1..m} Sq^(2a)(c) Sq^(2m-2a)
            + sum_{a=0..m-1} tau Sq^(2a+1)(c) Sq^(2m-2a-1)
            + Sq^(2m) c
  c beta    = beta c + beta(c),       beta(beta(m)) = 0,   beta beta = 0,

and states are merged with mod-2 parities in a dictionary.  It shares no
code with the program's recursive rewriter.
"""

from __future__ import annotations

X = ("x",)


def render(mono: tuple) -> str:
    return "*".join(mono) if mono else "1"


def mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def sq(j: int, c: tuple) -> tuple:
    return c if j == 0 else (f"Sq^{j}({render(c)})",)


def beta(c: tuple) -> tuple | None:
    if len(c) == 1 and c[0].startswith("beta("):
        return None
    return (f"beta({render(c)})",)


def word(j: int) -> tuple:
    """Sq^j as a word: Sq^(2k+1) = beta Sq^(2k), Sq^1 = beta, Sq^0 = 1."""
    if j == 0:
        return ()
    if j % 2 == 0:
        return (("s", j),)
    return ("b",) if j == 1 else ("b", ("s", j - 1))


def render_word(w: tuple) -> str:
    if not w:
        return "1"
    return " ".join("beta" if it == "b" else f"Sq^{it[1]}" for it in w)


def commute_right_terms(n: int) -> set[tuple[str, str]]:
    """The all-right normal form of x Sq^(2n) as a set of
    (rendered word, canonical right coefficient)."""
    pending: dict[tuple, int] = {((), X, word(2 * n)): 1}
    final: dict[tuple, int] = {}
    while pending:
        (done, c, rest), parity = pending.popitem()
        if not parity:
            continue
        if not rest:
            final[(done, c)] = final.get((done, c), 0) ^ 1
            continue
        head, tail = rest[0], rest[1:]
        children = []
        if head == "b":
            if not (done and done[-1] == "b"):
                children.append((done + ("b",), c, tail))
            bc = beta(c)
            if bc is not None:
                children.append((done, bc, tail))
        else:
            m = head[1] // 2
            for a in range(1, m + 1):
                children.append((done, sq(2 * a, c), word(2 * (m - a)) + tail))
            for a in range(m):
                children.append(
                    (done, mul(("tau",), sq(2 * a + 1, c)),
                     word(2 * (m - a) - 1) + tail)
                )
            children.append((done + (head,), c, tail))
        for child in children:
            pending[child] = pending.get(child, 0) ^ 1
    return {(render_word(w), render(c)) for (w, c), p in final.items() if p}


def commute_left_terms(n: int) -> set[tuple[str, str]]:
    """The 2n+1 terms of Sq^(2n) x with every coefficient on the left, read
    off the identity: (canonical left coefficient, rendered word)."""
    terms = {(render(X), render_word(word(2 * n)))}
    for a in range(1, n + 1):
        terms.add((render(sq(2 * a, X)), render_word(word(2 * (n - a)))))
    for a in range(n):
        terms.add((render(mul(("tau",), sq(2 * a + 1, X))),
                   render_word(word(2 * (n - a) - 1))))
    return terms
