"""Command-line workbench: deterministic table/JSON front end for every
operation, plus a verify-all mode that runs the acceptance checks.

Exit codes: 0 success / all checks pass, 1 failed verification (witness
printed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import acceptance, gw, steenrod
from .bigraded import COEFFICIENT_MODELS, BiDegree, TateSum, has_vanishing_line
from .extpower import (
    OutOfFormulaRange,
    SMembershipViolation,
    d2_cell,
    s_closure_check,
    suspension_relation_check,
    thom_check,
)
from .hopf import (
    FreenessFailed,
    HypothesisFailed,
    InvalidStructure,
    IsoFailed,
    MalformedStructure,
    NotConnected,
    NotSurjective,
    SplitFailed,
    cor22_pipeline,
    mm_split,
    primitives,
    right_unit_descends,
    validate_algebroid,
    validate_comodule,
    validate_hopf,
)
from .hopf.io import (
    algebroid_from_file,
    comodule_from_file,
    cor22_from_file,
    degree_key,
    expect_json,
    hopf_from_file,
    is_json_int,
    load_file,
    phi_from_file,
    right_unit_from_file,
)
from .nsym import (
    InvalidInput,
    NegativeCoefficient,
    build_Ei,
    cofree_divide,
    load_generator_series,
    nsym_series,
    vanishing_certificate,
)

OK, FAIL, USAGE = 0, 1, 2

FORMATS = ("table", "json")

VERIFY_ERRORS = (
    SMembershipViolation,
    NotConnected,
    NotSurjective,
    SplitFailed,
    InvalidStructure,
    HypothesisFailed,
    IsoFailed,
    FreenessFailed,
    NegativeCoefficient,
)

INPUT_ERRORS = (InvalidInput, OutOfFormulaRange, ValueError, KeyError)


@dataclass
class RunConfig:
    slope: str = "2/3"
    max_shift: int = 24
    coeffs: str = "field_closed"
    dual_steenrod: str | None = None
    format: str = "table"


def _check_slope(text: str) -> str:
    q = Fraction(text)
    if not 0 < q < 1:
        raise ValueError(f"slope must satisfy 0 < q < 1, got {text}")
    return text


def _non_negative(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False))


def _emit_product_sum_json(E) -> None:
    """Print _emit_json(E.to_dict()) byte for byte, one product at a time,
    rendering each distinct cell once."""
    write = sys.stdout.write
    if not E.products:
        write(f'{{\n "products": [],\n "trunc": {E.trunc}\n}}\n')
        return
    cell_text: dict = {}
    write('{\n "products": [\n')
    sep = ""
    for prod, m in E:
        texts = []
        for c in prod:
            text = cell_text.get(c)
            if text is None:
                text = cell_text[c] = (f'    {{\n     "p": {c.p},\n'
                                       f'     "w": {c.w}\n    }}')
            texts.append(text)
        factors = ("[\n" + ",\n".join(texts) + "\n   ]") if texts else "[]"
        write(f'{sep}  {{\n   "factors": {factors},\n   "mult": {m}\n  }}')
        sep = ",\n"
    write(f'\n ],\n "trunc": {E.trunc}\n}}\n')


def _emit_commute_json(n: int, side: str, res) -> None:
    """Print _emit_json of the `steenrod commute` document byte for byte,
    one term at a time, in the order of res.rendered()."""
    write = sys.stdout.write
    enc = json.encoder.encode_basestring
    head = (f'{{\n "assumption": {enc(res.assumption)},\n "n": {n},\n'
            f' "rules": {res.rules},\n "side": {enc(side)},\n "terms": ')
    if not res.term_set:
        write(head + "[]\n}\n")
        return
    write(head + "[\n")
    sep = ""
    for left, word, right in res.rendered():
        write(f'{sep}  {{\n   "left": {enc(left)},\n   "right": {enc(right)},'
              f'\n   "word": {enc(word)}\n  }}')
        sep = ",\n"
    write("\n ]\n}\n")


def _json_file(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read(path: str, what: str, load):
    """load(path), or None after saying on stderr why the file cannot be
    used: it cannot be read, is not JSON, or is not a well-formed `what`
    file (load raised ValueError, KeyError or MalformedStructure)."""
    try:
        return load(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON in {path}: {exc.msg} at line "
            f"{exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
    except (ValueError, KeyError, MalformedStructure) as exc:
        print(f"error: bad {what} file {path}: {exc}", file=sys.stderr)
    return None


def _series_file(path: str) -> dict[int, int]:
    """{"series": {"<degree>": coefficient}} with integer coefficients."""
    doc = expect_json(_json_file(path), dict, "series file")
    series = {}
    for key, c in expect_json(doc["series"], dict, "'series'").items():
        d = degree_key(key)
        if d is None or not is_json_int(c):
            raise ValueError(f"entry {key!r}: {c!r} is not a degree and an integer")
        series[d] = c
    return series


def _generator_file(path: str) -> dict:
    """{"generators": [{"name", "p", "w"[, "square_zero"]}, ...]} with a
    string name, integer p and w, and a boolean square_zero."""
    doc = expect_json(_json_file(path), dict, "generator file")
    for gen in expect_json(doc.get("generators"), list, "'generators'"):
        gen = expect_json(gen, dict, "generator")
        if not (isinstance(gen.get("name"), str) and is_json_int(gen.get("p"))
                and is_json_int(gen.get("w"))
                and type(gen.get("square_zero", False)) is bool):
            raise ValueError(f"generator {gen!r} needs a string name, integer "
                             "p and w, and a boolean square_zero")
    return doc


def _structure_file(args):
    """The structure file args.input, or None after saying on stderr why it
    cannot be used or does not have the truncation --trunc expects."""
    sf = _read(args.input, "structure", load_file)
    if sf is not None and args.trunc is not None and args.trunc != sf.trunc:
        print(
            f"error: --trunc {args.trunc} does not match fixture truncation "
            f"{sf.trunc}",
            file=sys.stderr,
        )
        return None
    return sf


# ---------------------------------------------------------------------------
# bigraded / extpower verbs

def cmd_d2(args) -> int:
    ts = d2_cell(BiDegree(args.p, args.w), args.max_shift)
    if args.format == "json":
        _emit_json({"trunc": ts.trunc, "cells": ts.to_records()})
    else:
        print(ts.render())
    return OK


def cmd_s_check(args) -> int:
    try:
        rep = s_closure_check(BiDegree(args.p, args.w), args.slope, args.max_shift)
    except SMembershipViolation as exc:
        print(f"error: seed not in the closure family: {exc}", file=sys.stderr)
        return USAGE
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        print(f"seed ({args.p},{args.w})  slope {args.slope}  "
              f"expansion {len(rep.expansion)} cells")
        for cell, code in rep.violations:
            print(f"violation ({cell.p},{cell.w}): {code}")
        print("ok" if rep.ok else "closure fails")
    return OK if rep.ok else FAIL


def cmd_thom(args) -> int:
    ok = thom_check(BiDegree(args.p, args.w), args.e, args.max_shift)
    if args.format == "json":
        _emit_json({"p": args.p, "w": args.w, "e": args.e,
                    "trunc": args.max_shift, "ok": ok})
    else:
        print("ok" if ok else
              f"periodicity fails at ({args.p},{args.w}), e={args.e}")
    return OK if ok else FAIL


def cmd_suspension(args) -> int:
    ok = suspension_relation_check(args.j, args.max_shift)
    if args.format == "json":
        _emit_json({"j": args.j, "trunc": args.max_shift, "ok": ok})
    else:
        print("ok" if ok else f"suspension relation fails at j={args.j}")
    return OK if ok else FAIL


# ---------------------------------------------------------------------------
# nsym verbs

def cmd_ei(args) -> int:
    E = build_Ei(args.i, args.slope, args.max_shift)
    if args.format == "json":
        _emit_product_sum_json(E)
    else:
        print(f"E_{args.i}  slope {args.slope}  trunc {E.trunc}  "
              f"{E.total()} products")
        for prod, m in E:
            cells = " ".join(f"({c.p},{c.w})" for c in prod)
            print(f"[{cells}] x{m}")
    return OK


def cmd_nsym(args) -> int:
    table = nsym_series(args.max_i, args.slope, args.max_shift)
    if args.format == "json":
        _emit_json({
            "rows": {str(i): row for i, row in table["rows"].items()},
            "combined": table["combined"],
        })
    else:
        for i, row in sorted(table["rows"].items()):
            body = "  ".join(f"{d}:{c}" for d, c in sorted(row.items()))
            print(f"i={i}  {body}")
        body = "  ".join(f"{d}:{c}" for d, c in sorted(table["combined"].items()))
        print(f"combined  {body}")
    return OK


def cmd_vanish(args) -> int:
    E = build_Ei(args.i, args.slope, args.max_shift)
    cert = vanishing_certificate(E, args.slope)
    model = COEFFICIENT_MODELS[args.coeffs]
    flat = has_vanishing_line(E.flatten(), args.slope, model)
    ok = cert.ok and flat.ok
    if args.format == "json":
        _emit_json({"certificate": cert.to_dict(),
                    "flattened": flat.to_dict(), "coeffs": model.name})
    else:
        w = ("none" if cert.witness is None else
             " ".join(f"({c.p},{c.w})" for c in cert.witness))
        print(f"E_{args.i}  slope {args.slope}  trunc {E.trunc}")
        print(f"min_slack {cert.min_slack}  witness [{w}]")
        print(f"coefficients {model.name}: min_star {flat.min_star}")
        print("ok" if ok else "vanishing line fails")
    return OK if ok else FAIL


def cmd_divide(args) -> int:
    gen_path = args.dual_steenrod or acceptance.fixture_path("dual_steenrod.json")
    gens = _read(gen_path, "generator", _generator_file)
    if gens is None:
        return USAGE
    bound = args.max_shift
    abar = load_generator_series(gens, args.slope, bound)
    if args.numerator is None:
        mbar = dict(abar)
    else:
        mbar = _read(args.numerator, "series", _series_file)
        if mbar is None:
            return USAGE
    try:
        v = cofree_divide(mbar, abar, bound)
    except NegativeCoefficient as exc:
        if args.format == "json":
            _emit_json({"ok": False, "degree": exc.degree, "value": exc.value})
        else:
            print(f"not cofree: coefficient {exc.value} in degree {exc.degree}")
        return FAIL
    if args.format == "json":
        _emit_json({"ok": True, "bound": bound,
                    "quotient": {str(d): c for d, c in sorted(v.items())}})
    else:
        body = "  ".join(f"{d}:{c}" for d, c in sorted(v.items())) or "0"
        print(f"quotient  {body}")
    return OK


# ---------------------------------------------------------------------------
# hopf verbs

def _print_violations(violations) -> None:
    for v in violations:
        print(f"violation {v.axiom} degree {v.degree}: {v.detail}")


def cmd_validate(args) -> int:
    sf = _structure_file(args)
    if sf is None:
        return USAGE
    names = set(sf.spaces)
    if "BG" in names:
        kind = "algebroid"
        violations = validate_algebroid(algebroid_from_file(sf))
    elif "A" in names:
        kind = "hopf"
        H = hopf_from_file(sf)
        violations = list(validate_hopf(H))
        if "M" in names:
            kind = "comodule"
            violations += validate_comodule(comodule_from_file(sf))
    elif "RP" in names:
        rep = right_unit_descends(*right_unit_from_file(sf))
        if args.format == "json":
            _emit_json({"kind": "right_unit", "report": rep.to_dict()})
        else:
            print("kind right_unit")
            for deg, left, right, eq in rep.table:
                print(f"degree {deg}: rank_left {left} rank_right {right} "
                      f"{'equal' if eq else 'DIFFER'}")
            print("ok" if rep.ok else
                  f"right unit fails to descend first at degree "
                  f"{rep.first_failure}")
        return OK if rep.ok else FAIL
    else:
        print("error: unrecognized structure file (no A, BG, or RP space)",
              file=sys.stderr)
        return USAGE
    if args.format == "json":
        _emit_json({
            "kind": kind,
            "ok": not violations,
            "violations": [
                {"axiom": v.axiom, "degree": v.degree, "detail": v.detail}
                for v in violations
            ],
        })
    else:
        print(f"kind {kind}")
        _print_violations(violations)
        print("ok" if not violations else f"{len(violations)} violations")
    return OK if not violations else FAIL


def cmd_primitives(args) -> int:
    sf = _structure_file(args)
    if sf is None:
        return USAGE
    Mc = comodule_from_file(sf)
    prim = primitives(Mc)
    if args.format == "json":
        _emit_json({
            "dims": {str(d): prim.space.dim(d) for d in prim.space.degrees()},
            "vectors": {
                str(d): [
                    Mc.M.describe(d, prim.inclusion.row(d, i))
                    for i in range(prim.space.dim(d))
                ]
                for d in prim.space.degrees()
            },
        })
    else:
        for d in prim.space.degrees():
            for i in range(prim.space.dim(d)):
                vec = Mc.M.describe(d, prim.inclusion.row(d, i))
                print(f"degree {d}: {vec}")
    return OK


def cmd_mm_split(args) -> int:
    sf = _structure_file(args)
    if sf is None:
        return USAGE
    mm = mm_split(comodule_from_file(sf), phi_from_file(sf))
    if args.format == "json":
        _emit_json({
            "v_dims": {str(d): mm.V.dim(d) for d in mm.V.degrees()},
            "certificate": [
                {"degree": c.degree, "dim_source": c.dim_source,
                 "dim_target": c.dim_target, "invertible": c.invertible}
                for c in mm.certificate
            ],
        })
    else:
        dims = "  ".join(f"{d}:{mm.V.dim(d)}" for d in mm.V.degrees())
        print(f"V dims  {dims}")
        bad = [c for c in mm.certificate if not c.invertible]
        print("theta degreewise invertible" if not bad else
              f"theta fails in degree {bad[0].degree}")
    return OK


def cmd_cor22(args) -> int:
    sf = _structure_file(args)
    if sf is None:
        return USAGE
    rep = cor22_pipeline(cor22_from_file(sf))
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        series = "  ".join(f"{d}:{c}" for d, c in sorted(rep.v_series.items()))
        print(f"W series  {series}")
        gens = ", ".join(f"{lab}@{d}" for d, lab in rep.w_generators) or "none"
        print(f"W generators  {gens}")
        print(f"hypotheses verified  {', '.join(rep.hypotheses)}")
        ok = all(c.invertible for c in rep.certificate)
        print(f"iso certified to degree {rep.N}" if ok else "iso fails")
    return OK


# ---------------------------------------------------------------------------
# steenrod verbs

def cmd_steenrod_commute(args) -> int:
    res = (steenrod.commute_right(args.n) if args.side == "right"
           else steenrod.commute_left(args.n))
    if args.format == "json":
        _emit_commute_json(args.n, args.side, res)
    else:
        for line in res.lines():
            print(line)
        print(f"terms {len(res.term_set)}  rule applications {res.rules}")
    return OK


def cmd_steenrod_rp(args) -> int:
    R = steenrod.rp_ring(args.maxdeg, args.variant)
    if args.format == "json":
        _emit_json(R.to_dict())
    else:
        for (p, w), n in sorted(R.dims.items()):
            print(f"({p},{w})  {n}")
        print(f"relation certificate {'ok' if R.relation_certificate else 'FAIL'}")
        print(f"sq1 squared zero {'ok' if R.sq1_squared_zero else 'FAIL'}")
    ok = R.relation_certificate and R.sq1_squared_zero
    return OK if ok else FAIL


def cmd_steenrod_moore(args) -> int:
    fx = steenrod.moore_homology(args.model)
    if args.format == "json":
        _emit_json(fx.to_dict())
    else:
        for name, monos in sorted(fx.alpha.items()):
            img = " + ".join(" ".join(m) for m in monos)
            print(f"alpha({name}) = {img}")
        for name, targets in sorted(fx.sq1.items()):
            img = " + ".join(targets) if targets else "0"
            print(f"Sq1({name}) = {img}")
        print(f"bidegree homogeneous {'ok' if fx.homogeneous else 'FAIL'}")
    return OK if fx.homogeneous else FAIL


# ---------------------------------------------------------------------------
# gw verbs

def cmd_gw_neps(args) -> int:
    e = gw.n_epsilon(args.n)
    if args.format == "json":
        _emit_json({"n": args.n, "value": str(e)})
    else:
        print(f"{args.n}_eps = {e}")
    return OK


def cmd_gw_whitehead(args) -> int:
    rep = gw.whitehead_check()
    ok = rep.ok and rep.determinants_ok and rep.at_one_product_identity
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        for f in rep.factors:
            print(f"factor {f}")
        print(f"product {rep.product}")
        print(f"determinants {'all 1' if rep.determinants_ok else 'FAIL'}")
        print("ok" if ok else "factorization fails")
    return OK if ok else FAIL


def cmd_gw_trace(args) -> int:
    rep = gw.lefschetz_trace_derivation()
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        print(f"tr = {rep.solved}")
        print(f"lhs 1 + 3_eps = {rep.lhs}")
        print(f"consistency <2>.2_eps = {rep.consistency}")
        locus = "  ".join(f"{n}:{df}" for n, df in rep.fixed_locus)
        print(f"fixed locus derivatives  {locus}  "
              f"(1 - df units: {'ok' if rep.locus_units_ok else 'FAIL'})")
    return OK if rep.ok else FAIL


def cmd_gw_torsion(args) -> int:
    rep = gw.torsion_equivalence()
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        def show(witness):
            return "  ".join(f"{c} . {lab}" for lab, c in witness.items())
        print(f"forward  2_eps in (r, 2): {'ok' if rep.forward else 'FAIL'}"
              f"  [{show(rep.forward_witness or {})}]")
        print(f"backward 2 in (r, 2_eps): {'ok' if rep.backward else 'FAIL'}"
              f"  [{show(rep.backward_witness or {})}]")
        print(f"norm bookkeeping N(1+1) = 2 + <2>.2_eps: "
              f"{'ok' if rep.norm_identity else 'FAIL'}")
    return OK if rep.ok else FAIL


# ---------------------------------------------------------------------------
# verify-all

def cmd_verify_all(args) -> int:
    total = len(acceptance.CHECKS)
    for idx, (name, _, _) in enumerate(acceptance.CHECKS, 1):
        res = acceptance.run_check(name)
        status = "PASS" if res.ok else "FAIL"
        print(f"[{idx:2d}/{total}] {name:<24s} {status}")
        # The same test as the pytest gate: a check must finish under its
        # budget.  Stdout stays byte-stable, so an overrun shows on stderr.
        over = "  OVER" if res.elapsed >= res.budget else ""
        print(f"        {name}: {res.elapsed:.2f}s (budget {res.budget:.0f}s)"
              f"{over}", file=sys.stderr)
        if not res.ok:
            print(f"        witness: {res.detail}")
            return FAIL
    print(f"all {total} acceptance checks passed")
    return OK


# ---------------------------------------------------------------------------
# parser

def _build_parser(cfg: RunConfig) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="motalg",
        description="exact workbench for quadratic extended powers, graded "
                    "Hopf-comodule splitting, coefficient commutation, and "
                    "square-class arithmetic",
    )
    top.add_argument("--config", help=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="verb", required=True, metavar="verb")

    def common(p, *, slope=False, shift=None, fmt=True):
        if slope:
            p.add_argument("--slope", type=_check_slope, default=cfg.slope,
                           help="star slope u/v (default %(default)s)")
        if shift is not None:
            # A string default goes through the type check too, so a config
            # file's max_shift is held to the same rule as the flag.
            p.add_argument("--max-shift", type=_non_negative, default=str(shift),
                           help="shift truncation (default %(default)s)")
        if fmt:
            p.add_argument("--format", choices=FORMATS, default=cfg.format)

    p = sub.add_parser("d2", help="quadratic power of one cell")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    common(p, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_d2)

    p = sub.add_parser("s-check", help="closure of one cell's expansion in S")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    common(p, slope=True, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_s_check)

    p = sub.add_parser("thom", help="periodicity of the quadratic power")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    common(p, shift=40)
    p.set_defaults(fn=cmd_thom)

    p = sub.add_parser("suspension", help="suspension series relation")
    p.add_argument("--j", type=int, required=True)
    common(p, shift=30)
    p.set_defaults(fn=cmd_suspension)

    p = sub.add_parser("ei", help="certified container for one row")
    p.add_argument("--i", type=int, required=True)
    common(p, slope=True, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_ei)

    p = sub.add_parser("nsym", help="star histograms of the container rows")
    p.add_argument("--max-i", type=int, required=True)
    common(p, slope=True, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_nsym)

    p = sub.add_parser("vanish", help="vanishing-line certificate for E_i")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--coeffs", choices=sorted(COEFFICIENT_MODELS),
                   default=cfg.coeffs)
    common(p, slope=True, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_vanish)

    p = sub.add_parser("divide", help="cofree series division")
    p.add_argument("--numerator", help="JSON file with {\"series\": {deg: coeff}}")
    p.add_argument("--dual-steenrod", default=cfg.dual_steenrod,
                   help="generator table for the denominator series")
    common(p, slope=True, shift=cfg.max_shift)
    p.set_defaults(fn=cmd_divide)

    for name, fn, help_ in (
        ("validate", cmd_validate, "check structure-constant axioms"),
        ("primitives", cmd_primitives, "coaction primitives of a comodule"),
        ("mm-split", cmd_mm_split, "certified splitting over a Hopf algebra"),
        ("cor22", cmd_cor22, "base-change splitting pipeline"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", required=True)
        p.add_argument("--trunc", type=int, default=None,
                       help="expected fixture truncation (checked)")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("steenrod", help="coefficient commutation and fixtures")
    ssub = p.add_subparsers(dest="subverb", required=True, metavar="op")
    q = ssub.add_parser("commute", help="move a coefficient past Sq^(2n)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--side", choices=("left", "right"), default="right")
    common(q)
    q.set_defaults(fn=cmd_steenrod_commute)
    q = ssub.add_parser("rp", help="projective-space ring table")
    q.add_argument("--maxdeg", type=int, required=True)
    q.add_argument("--variant", choices=("real", "closed"), default="real")
    common(q)
    q.set_defaults(fn=cmd_steenrod_rp)
    q = ssub.add_parser("moore", help="rank-2 module homology fixture")
    q.add_argument("--model", required=True)
    common(q)
    q.set_defaults(fn=cmd_steenrod_moore)

    p = sub.add_parser("gw", help="square-class arithmetic")
    gsub = p.add_subparsers(dest="subverb", required=True, metavar="op")
    q = gsub.add_parser("neps", help="the alternating class sum")
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(fn=cmd_gw_neps)
    q = gsub.add_parser("whitehead", help="elementary factorization certificate")
    common(q)
    q.set_defaults(fn=cmd_gw_whitehead)
    q = gsub.add_parser("trace", help="trace bookkeeping derivation")
    common(q)
    q.set_defaults(fn=cmd_gw_trace)
    q = gsub.add_parser("torsion", help="2-torsion vs 2_eps-torsion")
    common(q)
    q.set_defaults(fn=cmd_gw_torsion)

    p = sub.add_parser("verify-all", help="run the acceptance checks")
    p.set_defaults(fn=cmd_verify_all)

    return top


def _config_value(key: str, value):
    """A config file's value for key, held to the check of its flag.  The
    parser runs the type checks of --slope and --max-shift on their
    defaults, so here a value needs only its JSON type and, for a flag with
    choices, to be one of them."""
    kind, kind_name = (int, "integer") if key == "max_shift" else (str, "string")
    if type(value) is not kind:
        raise ValueError(f"{key} must be a JSON {kind_name}, got {value!r}")
    choices = {"coeffs": COEFFICIENT_MODELS, "format": FORMATS}.get(key, ())
    if choices and value not in choices:
        raise ValueError(f"{key} must be one of {', '.join(sorted(choices))}, "
                         f"got {value!r}")
    return value


def _load_config(argv: list[str]) -> RunConfig:
    """Defaults from the file after --config; keys other than the fields of
    RunConfig are ignored."""
    cfg = RunConfig()
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 < len(argv):
            doc = _json_file(argv[idx + 1])
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {doc!r}")
            for key in ("slope", "max_shift", "coeffs", "dual_steenrod", "format"):
                if key in doc:
                    setattr(cfg, key, _config_value(key, doc[key]))
    return cfg


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = _load_config(list(argv))
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return USAGE
    parser = _build_parser(cfg)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MalformedStructure as exc:
        # A subclass of InvalidStructure: bad input, not a failed axiom.
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except VERIFY_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
