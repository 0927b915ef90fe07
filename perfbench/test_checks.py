"""The benchmark's checks pass on the program's real outputs and fail on
corrupted ones.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from motalg import cli  # noqa: E402


def run_cli(*argv: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue().encode()


def commute(n: int, side: str) -> dict:
    rc, out = run_cli("steenrod", "commute", "--n", str(n), "--side", side,
                      "--format", "json")
    assert rc == 0
    return json.loads(out)


def ei(i: int, trunc: int) -> dict:
    rc, out = run_cli("ei", "--i", str(i), "--max-shift", str(trunc),
                      "--format", "json")
    assert rc == 0
    return json.loads(out)


def enc(doc) -> bytes:
    return json.dumps(doc).encode()


# -- steenrod ---------------------------------------------------------------

@pytest.mark.parametrize("side", ["right", "left"])
def test_commute_passes_and_ignores_factor_order(side):
    doc = commute(4, side)
    checks.check_commute(enc(doc), 4, side)
    for t in doc["terms"]:
        mono = checks.parse_mono(t[side])
        t[side] = "*".join(reversed([checks.canonical((f,)) for f in mono])) or "1"
    checks.check_commute(enc(doc), 4, side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_dropped_term_fails(side):
    doc = commute(4, side)
    del doc["terms"][len(doc["terms"]) // 2]
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_commute(enc(doc), 4, side)


def test_repeated_and_misweighted_terms_fail():
    doc = commute(3, "right")
    doc["terms"].append(doc["terms"][0])
    with pytest.raises(CheckFailed, match="repeats"):
        checks.check_commute(enc(doc), 3, "right")
    doc = commute(3, "right")
    term = next(t for t in doc["terms"] if t["word"] != "1")
    term["word"] = "Sq^2 " + term["word"]
    with pytest.raises(CheckFailed, match="bidegree"):
        checks.check_commute(enc(doc), 3, "right")


def test_reference_matches_small_cases_by_hand():
    # x Sq^2 = Sq^2(x) + tau Sq^1(x) beta + Sq^2 x
    assert reference.commute_right_terms(1) == {
        ("1", "Sq^2(x)"), ("Sq^2", "x"),
        ("beta", "Sq^1(x)*tau"), ("1", "beta(Sq^1(x)*tau)"),
    }
    assert len(reference.commute_left_terms(5)) == 11


def test_verify_all_fail_line_fails():
    lines = [f"[{k:2d}/13] {name:<24s} PASS"
             for k, name in enumerate(checks.ACCEPTANCE_CHECKS, 1)]
    good = "\n".join(lines + ["all 13 acceptance checks passed"]) + "\n"
    checks.check_verify_all(good.encode())
    with pytest.raises(CheckFailed):
        checks.check_verify_all(good.replace("PASS", "FAIL", 1).encode())


# -- containers -------------------------------------------------------------

def test_factor_outside_s_fails():
    doc = ei(6, 16)
    checks.load_row(enc(doc), 16)
    doc["products"][0]["factors"][0] = {"p": 3, "w": 2}   # star 2*3 - 3*2 = 0
    with pytest.raises(CheckFailed, match="below_line"):
        checks.load_row(enc(doc), 16)


def test_cut_tensor_and_vanish():
    rows = {(i, t): checks.load_row(enc(ei(i, t)), t)
            for i, t in ((7, 20), (7, 16), (4, 20), (3, 20))}
    checks.check_cut(rows[7, 20], rows[7, 16], 16, "E_7")
    checks.check_tensor(rows[7, 20], rows[4, 20], rows[3, 20], 20, "E_7")
    with pytest.raises(CheckFailed):
        checks.check_cut(rows[7, 20], rows[7, 16], 15, "E_7")
    bumped = dict(rows[7, 20])
    first = next(iter(bumped))
    bumped[first] += 1
    with pytest.raises(CheckFailed, match="convolution"):
        checks.check_tensor(bumped, rows[4, 20], rows[3, 20], 20, "E_7")

    rc, out = run_cli("vanish", "--i", "7", "--max-shift", "20", "--format", "json")
    assert rc == 0
    checks.check_vanish(out, rows[7, 20])
    doc = json.loads(out)
    doc["certificate"]["min_slack"] += 1
    with pytest.raises(CheckFailed, match="min_slack"):
        checks.check_vanish(enc(doc), rows[7, 20])


def test_nsym_combined_must_be_the_sum():
    rc, out = run_cli("nsym", "--max-i", "5", "--max-shift", "12", "--format", "json")
    assert rc == 0
    checks.load_nsym(out, 5)
    doc = json.loads(out)
    key = next(iter(doc["combined"]))
    doc["combined"][key] += 1
    with pytest.raises(CheckFailed, match="sum"):
        checks.load_nsym(enc(doc), 5)


# -- structures -------------------------------------------------------------

def test_structures_round_passes_and_wrong_v_dimension_fails(tmp_path):
    wl = workloads.structures(7, str(tmp_path))
    outs = {}
    for op in wl.ops:
        rc, out = run_cli(*op.argv)
        assert rc == op.expect, op.name
        outs[op.name] = out
    wl.check(outs)

    doc = json.loads(outs["mm-split0"])
    degree = next(d for d in doc["v_dims"] if d != "0")
    doc["v_dims"][degree] += 1
    with pytest.raises(CheckFailed, match="V dims"):
        wl.check({**outs, "mm-split0": enc(doc)})

    accepted = enc({"kind": "comodule", "ok": True, "violations": []})
    with pytest.raises(CheckFailed, match="accepted"):
        wl.check({**outs, "validate-flipped0": accepted})

    doc = json.loads(outs["cor22-cor22_exterior"])
    doc["v_series"] = {"0": 1, "1": 1}
    with pytest.raises(CheckFailed, match="W series"):
        wl.check({**outs, "cor22-cor22_exterior": enc(doc)})


def test_planted_inputs_follow_the_seed():
    assert workloads.planted_inputs(3) == workloads.planted_inputs(3)
    orders = {tuple(p.gen_degrees) for s in range(8) for p in workloads.planted_inputs(s)[:1]}
    assert len(orders) > 1
    for p, (gens, planted) in zip(workloads.planted_inputs(3), workloads.PLANTED_SHAPES):
        assert sorted(p.gen_degrees) == sorted(gens)
        assert sum(p.dims.values()) == 1 + len(planted)
        assert p.N == 2 * (sum(gens) + max(planted))
