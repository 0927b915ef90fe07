"""The thirteen acceptance checks, shared by the CLI verify-all verb and
the test suite.  Every check is exact; each carries a wall-clock budget in
seconds.  Expected values are frozen from the printed decompositions and
identities the workbench reproduces, or recomputed through an independent
route inside the check itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from importlib import resources
from typing import Callable, NamedTuple

from . import gw, nsym, steenrod
from .bigraded import BiDegree, TateSum
from .extpower import d2_cell, d2_sum, s_cells, s_closure_check
from .extpower import suspension_relation_check, thom_check
from .hopf import NotSurjective, build, cor22_pipeline, mm_split
from .hopf.algebroid import right_unit_descends
from .hopf.io import (
    comodule_from_file,
    cor22_from_file,
    load_file,
    phi_from_file,
)
from .nsym import NegativeCoefficient, build_Ei, cofree_divide
from .nsym import series_multiply, vanishing_certificate

Q = "2/3"
SEED = 0x5EED


def fixture_dir() -> str:
    override = os.environ.get("MOTALG_FIXTURE_DIR")
    if override:
        return override
    return str(resources.files("motalg") / "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(fixture_dir(), name)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    elapsed: float
    budget: float


# ---------------------------------------------------------------------------
# 1. printed quadratic-power decompositions

def _printed_pattern(start: BiDegree, weights: str, trunc: int) -> TateSum:
    """Cells start + {(2n, n)} plus the odd column; weights selects whether
    the odd cell (2n+1, *) carries weight n ("low") or n+1 ("high")."""
    cells = {}
    n = 0
    while start.p + 2 * n <= trunc:
        cells[BiDegree(start.p + 2 * n, start.w + n)] = 1
        odd = BiDegree(
            start.p + 2 * n + 1,
            start.w + n + (1 if weights == "high" else 0),
        )
        if odd.p <= trunc:
            cells[odd] = 1
        n += 1
    return TateSum(cells, trunc)


def check_d2_tables() -> tuple[bool, str]:
    trunc = 12
    table = [
        ("S^0", BiDegree(0, 0), _printed_pattern(BiDegree(0, 0), "high", trunc)),
        ("S^1", BiDegree(1, 0), _printed_pattern(BiDegree(2, 1), "low", trunc)),
        ("T", BiDegree(2, 1), _printed_pattern(BiDegree(4, 2), "high", trunc)),
    ]
    for label, cell, expected in table:
        got = d2_cell(cell, trunc)
        if got != expected:
            return False, f"D2({label}) != printed pattern: {got!r}"
    return True, "three printed decompositions reproduced to shift 12"


# 2. Thom periodicity

def check_thom() -> tuple[bool, str]:
    trunc = 40
    count = 0
    for p in range(-8, 9):
        for w in range(math.ceil((p - 1) / 2), 21):
            d = BiDegree(p, w)
            for e in range(0, 5):
                if not thom_check(d, e, trunc):
                    return False, f"thom_check failed at d={tuple(d)}, e={e}"
                count += 1
    return True, f"{count} (cell, e) pairs verified at truncation {trunc}"


# 3. suspension series relation

def check_suspension() -> tuple[bool, str]:
    for j in range(-6, 1):
        if not suspension_relation_check(j, 30):
            return False, f"suspension relation failed at j={j}"
    return True, "suspension series relation holds for -6 <= j <= 0"


# 4. S-closure at the default slope, with the documented failing slope

def _closure_violations(q: str, max_p: int, trunc: int):
    out = []
    for seed in s_cells(q, max_p):
        rep = s_closure_check(seed, q, trunc)
        for cell, code in rep.violations:
            out.append((seed, cell, code))
    return out

def check_s_closure() -> tuple[bool, str]:
    good = _closure_violations("2/3", 12, 30)
    if good:
        return False, f"unexpected violation at q=2/3: {good[0]}"
    bad = _closure_violations("5/9", 12, 30)
    if not bad:
        return False, "q=5/9 run produced no violation"
    seed, cell, code = bad[0]
    if tuple(cell) != (5, 3):
        return False, f"first q=5/9 violation is {tuple(cell)}, not (5, 3)"
    return True, (
        f"q=2/3 closed; q=5/9 first violation ({seed.p},{seed.w}) -> "
        f"({cell.p},{cell.w}) [{code}] as documented"
    )


# 5. vanishing-line certificates for the container rows

def check_vanishing_certificates() -> tuple[bool, str]:
    slacks = {}
    for i in (2, 3, 4, 6, 8, 16):
        E = build_Ei(i, Q, 24)
        again = build_Ei(i, Q, 24)
        if E.to_json() != again.to_json():
            return False, f"E_{i} serialization not reproducible"
        cert = vanishing_certificate(E, Q)
        if not cert.ok or cert.min_slack is None or cert.min_slack < 1:
            return False, f"E_{i} certificate failed: {cert.to_dict()}"
        slacks[i] = cert.min_slack
    return True, "min_slack " + ", ".join(
        f"E{i}={s}" for i, s in sorted(slacks.items())
    )


# 6. cross-effect series identity

def _random_cells(rng: random.Random) -> dict[BiDegree, int]:
    cells: dict[BiDegree, int] = {}
    for _ in range(rng.randint(1, 8)):
        p = rng.randint(-2, 8)
        w = math.ceil((p - 1) / 2) + rng.randint(0, 4)
        cell = BiDegree(p, w)
        cells[cell] = cells.get(cell, 0) + rng.randint(1, 3)
    return cells

def _series_add(*hs: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for h in hs:
        for d, c in h.items():
            out[d] = out.get(d, 0) + c
    return {d: c for d, c in sorted(out.items()) if c}

def check_cross_effect() -> tuple[bool, str]:
    rng = random.Random(SEED)
    trunc = 30
    for trial in range(100):
        a_cells = _random_cells(rng)
        b_cells = _random_cells(rng)
        combined = dict(a_cells)
        for c, m in b_cells.items():
            combined[c] = combined.get(c, 0) + m
        lhs = d2_sum(combined, trunc).series(Q)
        A = TateSum(a_cells, trunc)
        B = TateSum(b_cells, trunc)
        # shifts are <= 8 per cell, so no cross product hits the truncation
        # and the star-series convolution is exact
        rhs = _series_add(
            d2_sum(a_cells, trunc).series(Q),
            d2_sum(b_cells, trunc).series(Q),
            series_multiply(A.series(Q), B.series(Q), 10 ** 9),
        )
        if lhs != rhs:
            return False, f"cross-effect mismatch on trial {trial}"
    return True, "100 random pairs satisfy the cross-effect series identity"


# 7. planted cofree recovery

def _random_planted(rng: random.Random, N: int):
    ngens = rng.randint(1, 3)
    gens = [(f"g{k}", rng.randint(1, 5)) for k in range(ngens)]
    H = build.exterior_hopf(gens, N)
    dims = {}
    for d in rng.sample(range(1, 6), rng.randint(0, 3)):
        dims[d] = rng.randint(1, 3)
    C = build.square_zero_algebra("c", dims, N)
    return C, H

def check_planted_recovery() -> tuple[bool, str]:
    rng = random.Random(SEED + 7)
    N = 12
    for trial in range(50):
        C, H = _random_planted(rng, N)
        Mc, phi = build.planted_comodule(C, H)
        mm = mm_split(Mc, phi)
        v_dims = {d: mm.V.dim(d) for d in mm.V.degrees()}
        c_dims = {d: C.dim(d) for d in C.degrees()}
        if v_dims != c_dims:
            return False, (
                f"trial {trial}: recovered {v_dims}, planted {c_dims}"
            )
        if not all(c.invertible for c in mm.certificate):
            return False, f"trial {trial}: theta not degreewise invertible"
    return True, "50 planted comodules recovered with invertible theta"


# 8. non-surjective rejection

def check_not_surjective() -> tuple[bool, str]:
    sf = load_file(fixture_path("notsurj.json"))
    try:
        mm_split(comodule_from_file(sf), phi_from_file(sf))
    except NotSurjective as exc:
        if exc.degree == 1:
            return True, "NotSurjective raised at lowest failing degree 1"
        return False, f"NotSurjective at degree {exc.degree}, expected 1"
    return False, "mm_split accepted a non-surjective phi"


# 9. base-change pipeline fixtures and the right-unit counterexample

def check_cor22() -> tuple[bool, str]:
    for name in ("cor22_identity", "cor22_exterior", "cor22_rank_two"):
        inp = cor22_from_file(load_file(fixture_path(f"{name}.json")))
        rep = cor22_pipeline(inp)
        if len(rep.hypotheses) != 8:
            return False, f"{name}: {len(rep.hypotheses)} hypotheses recorded"
        if rep.v_series != {0: 1}:
            return False, f"{name}: W series {rep.v_series}, expected {{0: 1}}"
        if rep.N != 10 or not all(c.invertible for c in rep.certificate):
            return False, f"{name}: iso not certified to N = 10"
    R, gens, gamma, eta_l, eta_r = build.right_unit_fixture(False, 4)
    ru = right_unit_descends(R, gens, gamma, eta_l, eta_r)
    if ru.ok or ru.first_failure != 2:
        return False, f"counterexample failed at {ru.first_failure}, expected 2"
    return True, (
        "three fixtures certified to N = 10 with W series {0: 1}; "
        "right-unit counterexample fails first at degree 2"
    )


# 10. square-class arithmetic identities

def check_gw() -> tuple[bool, str]:
    w = gw.whitehead_check()
    if not (w.ok and w.determinants_ok):
        return False, "whitehead factorization failed"
    for n in range(21):
        alt = gw.integer(0)
        for i in range(n):
            alt = alt + (gw.integer(1) if i % 2 == 0 else gw.unit_class("-1"))
        if gw.n_epsilon(n) != alt:
            return False, f"n_epsilon({n}) != alternating definition"
    l = gw.lefschetz_trace_derivation()
    expected = gw.unit_class("2") + gw.unit_class("-1", "2")
    if not (l.ok and l.solved == expected):
        return False, f"lefschetz solved to {l.solved}"
    t = gw.torsion_equivalence()
    if not t.ok:
        return False, f"torsion equivalence: {t.to_dict()}"
    return True, (
        "whitehead ok; n_epsilon table n <= 20; tr solved to "
        f"{l.solved}; torsion equivalence both directions"
    )


# 11. coefficient-commutation rewriter

def check_steenrod_rewriter() -> tuple[bool, str]:
    total_rules = 0
    for n in range(1, 9):
        res = steenrod.commute_right(n)
        total_rules += res.rules
        if not res.right_coefficients_flagged():
            return False, f"commute_right({n}): unflagged right coefficient"
        if not steenrod.roundtrip_check(n, res):
            return False, f"roundtrip_check({n}) failed"
        if not steenrod.commute_left(n).left_coefficients_flagged():
            return False, f"commute_left({n}): unflagged left coefficient"
    return True, (
        f"n <= 8 all terminate ({total_rules} rule applications), "
        "flags and roundtrips exact"
    )


# 12. projective-space ring

def check_rp_ring() -> tuple[bool, str]:
    for variant in ("real", "closed"):
        R = steenrod.rp_ring(10, variant)
        brute: dict[tuple[int, int], int] = {}
        for e in range(2):
            for j in range(6):
                for a in range(11):
                    for b in range(11 if variant == "real" else 1):
                        p, w = e + 2 * j + b, e + j + a + b
                        if p <= 10 and w <= 10:
                            brute[(p, w)] = brute.get((p, w), 0) + 1
        if R.dims != brute:
            return False, f"{variant}: dims differ from brute force"
        if not R.relation_certificate:
            return False, f"{variant}: Sq1(relation) != 0"
        if not R.sq1_squared_zero:
            return False, f"{variant}: Sq1 . Sq1 != 0"
    return True, (
        "dimension tables match brute force; relation certificate and "
        "Sq1 . Sq1 = 0 hold in both variants"
    )


# 13. series division round-trip

def check_cofree_divide() -> tuple[bool, str]:
    rng = random.Random(SEED + 13)
    bound = 20
    for trial in range(100):
        V = {d: rng.randint(0, 3) for d in range(0, 11)}
        V = {d: c for d, c in V.items() if c}
        A = {0: 1}
        for d in range(1, 7):
            c = rng.randint(0, 3)
            if c:
                A[d] = c
        M = series_multiply(V, A, bound)
        if cofree_divide(M, A, bound) != V:
            return False, f"round-trip failed on trial {trial}"
    try:
        cofree_divide({0: 1, 1: 1}, {0: 1, 1: 2}, bound)
    except NegativeCoefficient as exc:
        if exc.degree == 1:
            return True, (
                "100 round-trips exact; NegativeCoefficient(degree=1) on "
                "the documented fixture"
            )
        return False, f"NegativeCoefficient at degree {exc.degree}"
    return False, "documented failing fixture did not raise"


# ---------------------------------------------------------------------------

CHECKS: tuple[tuple[str, float, Callable[[], tuple[bool, str]]], ...] = (
    ("d2-tables", 1.0, check_d2_tables),
    ("thom-periodicity", 5.0, check_thom),
    ("suspension-relation", 1.0, check_suspension),
    ("s-closure", 5.0, check_s_closure),
    ("vanishing-certificates", 60.0, check_vanishing_certificates),
    ("cross-effect", 10.0, check_cross_effect),
    ("planted-recovery", 30.0, check_planted_recovery),
    ("not-surjective", 5.0, check_not_surjective),
    ("cor22-fixtures", 5.0, check_cor22),
    ("gw-identities", 1.0, check_gw),
    ("steenrod-rewriter", 5.0, check_steenrod_rewriter),
    ("rp-ring", 1.0, check_rp_ring),
    ("cofree-divide", 5.0, check_cofree_divide),
)


def run_check(name: str) -> CheckResult:
    for cname, budget, fn in CHECKS:
        if cname == name:
            t0 = time.perf_counter()
            ok, detail = fn()
            return CheckResult(name, ok, detail, time.perf_counter() - t0, budget)
    raise KeyError(f"unknown check {name!r}")


def run_all() -> list[CheckResult]:
    return [run_check(name) for name, _, _ in CHECKS]
