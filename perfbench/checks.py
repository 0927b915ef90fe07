"""Output checks, made apart from the program.

Each check takes the program's decoded output and raises CheckFailed with
a witness when the output is wrong.  The checks recompute what they need
from first principles (the S conditions, star values, convolutions, the
commutation identity) or compare with reference.py; they import nothing
from motalg.  Rendered coefficients are parsed and put into the
benchmark's own canonical order first, so a change that only reorders the
factors in the rendering is not reported as wrong.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import reference


class CheckFailed(Exception):
    pass


#: What reading an output of the wrong shape raises (a missing key, a
#: string where a number belongs); a check reports these as wrong output.
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def load_json(out: bytes, what: str):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"{what}: stdout is not JSON: {exc}")


# ---------------------------------------------------------------------------
# verify-all

ACCEPTANCE_CHECKS = (
    "d2-tables", "thom-periodicity", "suspension-relation", "s-closure",
    "vanishing-certificates", "cross-effect", "planted-recovery",
    "not-surjective", "cor22-fixtures", "gw-identities", "steenrod-rewriter",
    "rp-ring", "cofree-divide",
)

_VERDICT = re.compile(r"^\[\s*(\d+)/(\d+)\] (\S+)\s+(PASS|FAIL)$")


def check_verify_all(out: bytes) -> None:
    """13 PASS lines, in order, then the closing line."""
    lines = out.decode().splitlines()
    total = len(ACCEPTANCE_CHECKS)
    require(len(lines) == total + 1,
            f"verify-all printed {len(lines)} lines, expected {total + 1}")
    for idx, (line, name) in enumerate(zip(lines, ACCEPTANCE_CHECKS), 1):
        m = _VERDICT.match(line)
        require(m is not None, f"verify-all line {idx} unreadable: {line!r}")
        require((int(m[1]), int(m[2]), m[3], m[4]) == (idx, total, name, "PASS"),
                f"verify-all line {idx}: {line!r}")
    require(lines[-1] == f"all {total} acceptance checks passed",
            f"verify-all closing line {lines[-1]!r}")


# ---------------------------------------------------------------------------
# steenrod commute

class _Parser:
    """Recursive descent over the rendered coefficient grammar
    mono := "1" | factor ("*" factor)*;
    factor := "x" | "tau" | "Sq^" int "(" mono ")" | "beta(" mono ")".
    A factor parses to (kind, j, mono) with mono a tuple of factors."""

    def __init__(self, text: str):
        self.s = text
        self.i = 0

    def parse(self) -> tuple:
        mono = self.mono()
        require(self.i == len(self.s), f"trailing text in {self.s!r}")
        return mono

    def eat(self, tok: str) -> bool:
        if self.s.startswith(tok, self.i):
            self.i += len(tok)
            return True
        return False

    def mono(self) -> tuple:
        if self.eat("1"):
            return ()
        out = [self.factor()]
        while self.eat("*"):
            out.append(self.factor())
        return tuple(out)

    def factor(self) -> tuple:
        if self.eat("x"):
            return ("x", 0, ())
        if self.eat("tau"):
            return ("tau", 0, ())
        if self.eat("beta("):
            inner = self.mono()
            require(self.eat(")"), f"unclosed beta( in {self.s!r}")
            return ("beta", 1, inner)
        if self.eat("Sq^"):
            m = re.compile(r"\d+").match(self.s, self.i)
            require(m is not None, f"Sq^ without index in {self.s!r}")
            self.i = m.end()
            require(self.eat("("), f"Sq^{m[0]} without argument in {self.s!r}")
            inner = self.mono()
            require(self.eat(")"), f"unclosed Sq^ in {self.s!r}")
            return ("Sq", int(m[0]), inner)
        raise CheckFailed(f"unknown factor at {self.s[self.i:]!r}")


def parse_mono(text: str) -> tuple:
    return _Parser(text).parse()


def canonical(mono: tuple) -> str:
    """The benchmark's canonical rendering: factors sorted at every level."""
    parts = []
    for kind, j, inner in mono:
        if kind in ("x", "tau"):
            parts.append(kind)
        elif kind == "beta":
            parts.append(f"beta({canonical(inner)})")
        else:
            parts.append(f"Sq^{j}({canonical(inner)})")
    return "*".join(sorted(parts)) if parts else "1"


def flagged(mono: tuple) -> bool:
    """In the coefficient ideal: some factor is x or tau, or an operator
    applied to a flagged argument."""
    return any(kind in ("x", "tau") or flagged(inner) for kind, _, inner in mono)


def mono_bidegree(mono: tuple) -> tuple[int, int, int]:
    """(p, w, occurrences of x): Sq^j counts (j, j // 2), beta (1, 0),
    tau (0, 1); x is counted, not weighed."""
    p = w = xs = 0
    for kind, j, inner in mono:
        if kind == "x":
            xs += 1
            continue
        if kind == "tau":
            w += 1
        elif kind == "beta":
            p += 1
        else:
            p, w = p + j, w + j // 2
        ip, iw, ix = mono_bidegree(inner)
        p, w, xs = p + ip, w + iw, xs + ix
    return p, w, xs


def word_bidegree(text: str) -> tuple[int, int]:
    if text == "1":
        return 0, 0
    letters = text.split(" ")
    require(all(a != "beta" or b != "beta" for a, b in zip(letters, letters[1:])),
            f"word {text!r} contains beta beta")
    p = w = 0
    for letter in letters:
        if letter == "beta":
            p += 1
            continue
        m = re.fullmatch(r"Sq\^(\d+)", letter)
        require(m is not None and int(m[1]) % 2 == 0 and int(m[1]) > 0,
                f"word letter {letter!r} is not beta or an even square")
        p, w = p + int(m[1]), w + int(m[1]) // 2
    return p, w


def check_commute(out: bytes, n: int, side: str) -> None:
    doc = load_json(out, f"commute {side}")
    require(doc.get("n") == n and doc.get("side") == side,
            f"commute echoes n={doc.get('n')} side={doc.get('side')}")
    terms = doc["terms"]
    seen: set[tuple[str, str, str]] = set()
    for t in terms:
        left, right = parse_mono(t["left"]), parse_mono(t["right"])
        lp, lw, lx = mono_bidegree(left)
        rp, rw, rx = mono_bidegree(right)
        wp, ww = word_bidegree(t["word"])
        require(lx + rx == 1, f"x occurs {lx + rx} times in {t}")
        require((lp + rp + wp, lw + rw + ww) == (2 * n, n),
                f"term {t} has bidegree ({lp + rp + wp},{lw + rw + ww}) + |x|, "
                f"expected ({2 * n},{n}) + |x|")
        if side == "right":
            require(left == () and flagged(right),
                    f"right-side term {t} has a left coefficient or an "
                    "unflagged right one")
        else:
            require(right == () and flagged(left),
                    f"left-side term {t} has a right coefficient or an "
                    "unflagged left one")
        key = (canonical(left), t["word"], canonical(right))
        require(key not in seen, f"term {t} repeats")
        seen.add(key)
    if side == "right":
        got = {(w, r) for _, w, r in seen}
        want = reference.commute_right_terms(n)
    else:
        got = {(l, w) for l, w, _ in seen}
        want = reference.commute_left_terms(n)
    require(got == want,
            f"{side} side differs from the reference: "
            f"{len(got - want)} extra, {len(want - got)} missing "
            f"(e.g. {sorted(got ^ want)[:1]})")


# ---------------------------------------------------------------------------
# containers

SLOPE_U, SLOPE_V = 2, 3   # star(p, w) = 2p - 3w at slope 2/3


def star(p: int, w: int) -> int:
    return SLOPE_U * p - SLOPE_V * w


def s_failure(p: int, w: int) -> str | None:
    """The first of the four S conditions that the cell (p, w) fails."""
    if 2 * w - p < -1:
        return "shift_range"
    if not (w >= 0 and p >= 1):
        return "positive_cell"
    if not star(p, w) > 0:
        return "below_line"
    if not (w >= 1 or p == 2 * w + 1):
        return "weight_positive"
    return None


def load_row(out: bytes, trunc: int) -> dict[tuple, int]:
    """An `ei` document as {canonical product: multiplicity}, after checking
    the truncation, the multiplicities and every factor's S membership."""
    doc = load_json(out, "ei")
    require(doc.get("trunc") == trunc, f"ei trunc {doc.get('trunc')} != {trunc}")
    row: dict[tuple, int] = {}
    for rec in doc["products"]:
        prod = tuple(sorted((f["p"], f["w"]) for f in rec["factors"]))
        require(prod not in row, f"product {prod} listed twice")
        require(rec["mult"] > 0, f"product {prod} has multiplicity {rec['mult']}")
        require(sum(p for p, _ in prod) <= trunc,
                f"product {prod} has total shift above {trunc}")
        for p, w in prod:
            bad = s_failure(p, w)
            require(bad is None, f"factor ({p},{w}) of {prod} is not in S: {bad}")
        row[prod] = rec["mult"]
    require(bool(row), "empty container row")
    return row


def total(prod: tuple) -> tuple[int, int]:
    return sum(p for p, _ in prod), sum(w for _, w in prod)


def cut(row: dict[tuple, int], trunc: int) -> dict[tuple, int]:
    return {prod: m for prod, m in row.items() if total(prod)[0] <= trunc}


def check_cut(high: dict, low: dict, trunc: int, what: str) -> None:
    require(cut(high, trunc) == low,
            f"{what} cut to {trunc} differs from the row built at {trunc}")


def shift_histogram(row: dict[tuple, int]) -> Counter:
    h: Counter = Counter()
    for prod, m in row.items():
        h[total(prod)[0]] += m
    return h


def star_histogram(row: dict[tuple, int]) -> dict[int, int]:
    h: Counter = Counter()
    for prod, m in row.items():
        h[star(*total(prod))] += m
    return dict(h)


def check_tensor(row: dict, half1: dict, half2: dict, trunc: int,
                 what: str) -> None:
    h1, h2 = shift_histogram(half1), shift_histogram(half2)
    conv: Counter = Counter()
    for s1, m1 in h1.items():
        for s2, m2 in h2.items():
            if s1 + s2 <= trunc:
                conv[s1 + s2] += m1 * m2
    require(shift_histogram(row) == conv,
            f"{what}: shift histogram is not the truncated convolution of "
            "its halves")


def check_vanish(out: bytes, row: dict) -> None:
    doc = load_json(out, "vanish")
    want = min(star(*total(prod)) for prod in row)
    cert = doc["certificate"]
    require(want > 0, f"the row's minimum star is {want}")
    require(cert["ok"] and cert["min_slack"] == want,
            f"min_slack {cert['min_slack']} (ok={cert['ok']}), expected {want}")
    witness = tuple(sorted((f["p"], f["w"]) for f in cert["witness"]))
    require(witness in row and star(*total(witness)) == want,
            f"witness {witness} is not a product of minimum star")
    flat = doc["flattened"]
    require(flat["ok"] and flat["min_star"] == want,
            f"flattened min_star {flat['min_star']}, expected {want}")


def load_nsym(out: bytes, max_i: int) -> dict[int, dict[int, int]]:
    """An `nsym` document as {row: {star: count}}, after checking that the
    combined series is the sum of the rows."""
    doc = load_json(out, "nsym")
    rows = {int(i): {int(s): c for s, c in row.items()}
            for i, row in doc["rows"].items()}
    require(sorted(rows) == list(range(max_i + 1)),
            f"nsym rows {sorted(rows)}, expected 0..{max_i}")
    summed: Counter = Counter()
    for row in rows.values():
        summed.update(row)
    combined = {int(s): c for s, c in doc["combined"].items()}
    require(combined == {s: c for s, c in summed.items() if c},
            "combined nsym series is not the sum of its rows")
    return rows


# ---------------------------------------------------------------------------
# structures

def exterior_series(gen_degrees: list[int], N: int) -> dict[int, int]:
    """prod_g (1 + t^(d_g)) truncated at N."""
    series = {0: 1}
    for g in gen_degrees:
        grown = dict(series)
        for d, c in series.items():
            if d + g <= N:
                grown[d + g] = grown.get(d + g, 0) + c
        series = grown
    return series


def convolve(a: dict[int, int], b: dict[int, int], N: int) -> dict[int, int]:
    out: Counter = Counter()
    for da, ca in a.items():
        for db, cb in b.items():
            if da + db <= N:
                out[da + db] += ca * cb
    return {d: c for d, c in out.items() if c}


def check_validate_ok(out: bytes, kind: str) -> None:
    doc = load_json(out, "validate")
    require(doc.get("kind") == kind, f"validate kind {doc.get('kind')}, expected {kind}")
    require(doc.get("ok") is True and doc.get("violations") == [],
            f"intact {kind} rejected: {doc.get('violations', [])[:2]}")


def check_validate_flipped(out: bytes, degree: int) -> None:
    """A flipped counit-side coaction bit in `degree` must show up as a
    coaction_counital violation in that degree."""
    doc = load_json(out, "validate")
    require(doc.get("ok") is False and doc.get("violations"),
            "flipped comodule accepted")
    require(any(v["axiom"] == "coaction_counital" and v["degree"] == degree
                for v in doc["violations"]),
            f"no coaction_counital violation in degree {degree}: "
            f"{doc['violations'][:2]}")


def check_mm_split(out: bytes, planted: dict[int, int],
                   gen_degrees: list[int], N: int) -> None:
    doc = load_json(out, "mm-split")
    v = {int(d): c for d, c in doc["v_dims"].items()}
    require(v == planted, f"V dims {v}, planted {planted}")
    dim_m = convolve(planted, exterior_series(gen_degrees, N), N)
    cert = doc["certificate"]
    require([c["degree"] for c in cert] == list(range(N + 1)),
            f"certificate covers degrees {[c['degree'] for c in cert][:4]}..., "
            f"expected 0..{N}")
    for c in cert:
        d = c["degree"]
        require(c["dim_source"] == dim_m.get(d, 0),
                f"dim M_{d} = {c['dim_source']}, expected {dim_m.get(d, 0)}")
        require(c["dim_target"] == c["dim_source"] and c["invertible"],
                f"theta not certified in degree {d}: {c}")


def check_cor22(out: bytes, N: int) -> None:
    doc = load_json(out, "cor22")
    require(doc.get("v_series") == {"0": 1},
            f"W series {doc.get('v_series')}, expected {{0: 1}}")
    require(doc.get("trunc") == N, f"cor22 trunc {doc.get('trunc')} != {N}")
    degrees = doc["degrees"]
    require([c["degree"] for c in degrees] == list(range(N + 1)),
            f"iso certificate does not cover 0..{N}")
    for c in degrees:
        require(c["invertible"] and c["dim_M"] == c["dim_WGamma"],
                f"iso fails in degree {c['degree']}: {c}")
