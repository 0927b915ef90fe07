"""End-to-end exercise of the command-line interface: exit codes, output
shapes, error channels, and byte stability of the verification run."""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motalg import acceptance, cli, steenrod
from motalg.hopf.io import comodule_from_file, load_file
from motalg.bigraded import BiDegree
from motalg.extpower import d2_cell
from motalg.nsym import ProductSum, build_Ei


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return acceptance.fixture_path(name)


# ---------------------------------------------------------------------------
# cell verbs

def test_d2_table_and_json(capsys):
    code, out, _ = run(capsys, ["d2", "--p", "0", "--w", "0",
                                "--max-shift", "4"])
    assert code == 0
    assert out.strip() == d2_cell(BiDegree(0, 0), 4).render()

    code, out, _ = run(capsys, ["d2", "--p", "0", "--w", "0",
                                "--max-shift", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["trunc"] == 4
    assert doc["cells"] == d2_cell(BiDegree(0, 0), 4).to_records()


def test_s_check_pass_fail_and_bad_seed(capsys):
    code, out, _ = run(capsys, ["s-check", "--p", "2", "--w", "1"])
    assert code == 0 and out.splitlines()[-1] == "ok"

    code, out, _ = run(capsys, ["s-check", "--p", "2", "--w", "1",
                                "--slope", "5/9", "--max-shift", "12"])
    assert code == 1
    assert "violation (5,3): below_line" in out
    assert out.splitlines()[-1] == "closure fails"

    # A seed outside the family is caller error, not a verification failure.
    code, _, err = run(capsys, ["s-check", "--p", "0", "--w", "0"])
    assert code == 2
    assert "seed not in the closure family" in err
    assert "positive_cell" in err


def test_thom_and_suspension(capsys):
    code, out, _ = run(capsys, ["thom", "--p", "1", "--w", "1", "--e", "2"])
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, ["suspension", "--j", "-3", "--format", "json"])
    assert code == 0 and json.loads(out)["ok"] is True
    # The suspension relation only makes sense for nonpositive j.
    code, _, err = run(capsys, ["suspension", "--j", "3"])
    assert code == 2 and "error:" in err


def test_ei_listing_and_membership_failure(capsys):
    code, out, _ = run(capsys, ["ei", "--i", "3", "--max-shift", "12"])
    assert code == 0
    assert out.splitlines()[0] == "E_3  slope 2/3  trunc 12  10 products"

    code, _, err = run(capsys, ["ei", "--i", "4", "--slope", "5/9",
                                "--max-shift", "12"])
    assert code == 1
    assert err.strip() == "verification failed: cell (5,3) not in S: below_line"

    # The benchmark's E_16 row at truncation 28, byte for byte.
    code, out, _ = run(capsys, ["ei", "--i", "16", "--slope", "2/3",
                                "--max-shift", "28", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e1d9ab67280da7b88b9ccc19856a237589cdba886e4648503cab6bd424d83921")


@pytest.mark.parametrize("make", [
    lambda: build_Ei(3, "2/3", 12),
    lambda: build_Ei(6, "2/3", 16),
    lambda: build_Ei(8, "2/3", 20),
    lambda: ProductSum({}, 3),
    lambda: ProductSum({(): 2, ((1, 0), (2, 1)): 1}, 3),
], ids=["E3", "E6", "E8", "empty", "empty-product"])
def test_streamed_container_json_equals_json_dumps(make, capsys):
    E = make()
    cli._emit_product_sum_json(E)
    assert capsys.readouterr().out == json.dumps(
        E.to_dict(), indent=1, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n", range(1, 6))
def test_streamed_commute_json_equals_json_dumps(n, side, capsys):
    res = (steenrod.commute_right(n) if side == "right"
           else steenrod.commute_left(n))
    code, out, _ = run(capsys, ["steenrod", "commute", "--n", str(n),
                                "--side", side, "--format", "json"])
    assert code == 0
    assert out == json.dumps(
        {"n": n, "side": side, "rules": res.rules,
         "assumption": res.assumption, "terms": res.to_records()},
        indent=1, sort_keys=True, ensure_ascii=False) + "\n"

    code, out, _ = run(capsys, ["steenrod", "commute", "--n", str(n),
                                "--side", side])
    assert code == 0
    assert out.splitlines() == [str(t) for t in res.terms] + [
        f"terms {len(res.terms)}  rule applications {res.rules}"]


@pytest.mark.parametrize("res", [
    steenrod.RewriteResult((), 0),
    steenrod.RewriteResult(
        (steenrod.Term(steenrod.ONE, ("b",), steenrod.X),), 1,
        'a "quoted"\tnote \u2295 \\ end'),
], ids=["no-terms", "escaped-assumption"])
def test_streamed_commute_writer_edge_cases(res, capsys):
    cli._emit_commute_json(3, "right", res)
    assert capsys.readouterr().out == json.dumps(
        {"n": 3, "side": "right", "rules": res.rules,
         "assumption": res.assumption, "terms": res.to_records()},
        indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def test_nsym_table(capsys):
    code, out, _ = run(capsys, ["nsym", "--max-i", "3", "--max-shift", "12"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i=0  0:1"
    assert lines[1].startswith("i=1  2:1")
    assert lines[-1].startswith("combined  ")

    code, out, _ = run(capsys, ["nsym", "--max-i", "3", "--max-shift", "12",
                                "--format", "json"])
    doc = json.loads(out)
    assert doc["rows"]["0"] == {"0": 1}
    assert doc["rows"]["1"] == {"2": 1}

    # The benchmark's nsym table, byte for byte.
    code, out, _ = run(capsys, ["nsym", "--max-i", "16", "--slope", "2/3",
                                "--max-shift", "24", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f89017f8e2b7a2fa7a9c28c08ec2bace3d917980072ae55d4a4eb93be647e560")


def test_vanish_certificate(capsys):
    code, out, _ = run(capsys, ["vanish", "--i", "4", "--max-shift", "24",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["min_slack"] == 1
    assert doc["flattened"]["ok"] is True
    assert doc["coeffs"] == "field_closed"


# ---------------------------------------------------------------------------
# series division

def test_divide_defaults_to_the_unit_quotient(capsys):
    code, out, _ = run(capsys, ["divide"])
    assert code == 0 and out.strip() == "quotient  0:1"
    code, out, _ = run(capsys, ["divide", "--format", "json"])
    doc = json.loads(out)
    assert doc["ok"] is True and doc["quotient"] == {"0": 1}


def test_divide_flags_a_non_cofree_numerator(capsys, tmp_path):
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"series": {"0": 1, "1": 1}}))
    code, out, _ = run(capsys, ["divide", "--numerator", str(series)])
    assert code == 1
    assert out.strip() == "not cofree: coefficient -2 in degree 2"

    code, out, _ = run(capsys, ["divide", "--numerator", str(series),
                                "--format", "json"])
    assert code == 1
    assert json.loads(out) == {"ok": False, "degree": 2, "value": -2}


@pytest.mark.parametrize("flag, doc", [
    ("--numerator", {"series": [1, 2]}),
    ("--numerator", [1]),
    ("--numerator", {"series": {"0": None}}),
    ("--numerator", {"series": {"0": 1.5}}),
    ("--numerator", {"series": {"0": True}}),
    ("--numerator", {"series": {"01": 1}}),
    ("--dual-steenrod", {"generators": 3}),
    ("--dual-steenrod", []),
    ("--dual-steenrod", {"generators": [{"name": "a", "p": "1", "w": 0}]}),
], ids=["series-list", "doc-list", "coeff-null", "coeff-float", "coeff-bool",
        "degree-key-padded", "generators-scalar", "generators-doc-list",
        "generator-p-string"])
def test_malformed_series_and_generator_files_exit_two(flag, doc, capsys,
                                                       tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["divide", flag, str(path)])
    kind = "series" if flag == "--numerator" else "generator"
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {kind} file") and "Traceback" not in err


# ---------------------------------------------------------------------------
# structure-file verbs

def test_validate_detects_fixture_kinds(capsys):
    code, out, _ = run(capsys, ["validate", "--input", fixture("lambda_t.json")])
    assert code == 0
    assert out.splitlines() == ["kind comodule", "ok"]

    code, out, _ = run(capsys, ["validate", "--input",
                                fixture("cor22_identity.json")])
    assert code == 0 and out.splitlines()[0] == "kind algebroid"

    code, out, _ = run(capsys, ["validate", "--input",
                                fixture("right_unit_good.json")])
    assert code == 0 and out.splitlines()[0] == "kind right_unit"


def test_validate_reports_planted_violations(capsys):
    code, out, _ = run(capsys, ["validate", "--input",
                                fixture("lambda_t_broken.json")])
    assert code == 1
    assert "violation counit_left degree 1: t" in out

    code, out, _ = run(capsys, ["validate", "--input",
                                fixture("right_unit_bad.json")])
    assert code == 1
    assert out.splitlines()[-1].endswith("first at degree 2")


def test_validate_checks_the_expected_truncation(capsys):
    code, _, err = run(capsys, ["validate", "--input",
                                fixture("lambda_t.json"), "--trunc", "10"])
    assert code == 2 and "trunc" in err


def test_primitives_output(capsys):
    code, out, _ = run(capsys, ["primitives", "--input",
                                fixture("planted.json"), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"0": 1, "2": 1, "3": 1}
    assert doc["vectors"]["0"] == ["1|1"]


def test_mm_split_pass_and_failure(capsys):
    code, out, _ = run(capsys, ["mm-split", "--input", fixture("planted.json")])
    assert code == 0
    assert out.splitlines()[-1] == "theta degreewise invertible"

    code, _, err = run(capsys, ["mm-split", "--input", fixture("notsurj.json")])
    assert code == 1
    assert err.strip() == ("verification failed: map fails to surject "
                           "in degree 1")


def test_cor22_pipeline_verbs(capsys):
    code, out, _ = run(capsys, ["cor22", "--input",
                                fixture("cor22_rank_two.json")])
    assert code == 0
    assert any(line.startswith("hypotheses verified") for line in out.splitlines())
    assert out.splitlines()[-1] == "iso certified to degree 10"

    code, _, err = run(capsys, ["cor22", "--input",
                                fixture("cor22_identity.json"), "--trunc", "5"])
    assert code == 2 and "trunc" in err


# ---------------------------------------------------------------------------
# steenrod and gw verbs

def test_steenrod_commute_output(capsys):
    code, out, _ = run(capsys, ["steenrod", "commute", "--n", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[1] Sq^2(x)"
    assert lines[-1] == "terms 4  rule applications 2"

    code, out, _ = run(capsys, ["steenrod", "commute", "--n", "1",
                                "--side", "left", "--format", "json"])
    doc = json.loads(out)
    assert doc["rules"] == 1 and len(doc["terms"]) == 3


def test_steenrod_rp_and_moore(capsys):
    code, out, _ = run(capsys, ["steenrod", "rp", "--maxdeg", "2"])
    assert code == 0
    assert "(2,2)  3" in out
    assert "relation certificate ok" in out

    code, out, _ = run(capsys, ["steenrod", "moore", "--model", "xu"])
    assert code == 0
    assert "alpha(x) = tau0 + rho xi1" in out

    code, _, err = run(capsys, ["steenrod", "moore", "--model", "bogus"])
    assert code == 2 and "unknown model" in err


def test_gw_verbs(capsys):
    code, out, _ = run(capsys, ["gw", "neps", "--n", "7"])
    assert code == 0 and out.strip() == "7_eps = 4 + 3⟨-1⟩"

    code, out, _ = run(capsys, ["gw", "trace"])
    assert code == 0
    assert out.splitlines()[0] == "tr = ⟨2⟩ + ⟨-2⟩"

    code, out, _ = run(capsys, ["gw", "whitehead", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["product"] == "[[a^-1, 0], [0, a]]"

    code, out, _ = run(capsys, ["gw", "torsion"])
    assert code == 0
    assert "forward  2_eps in (r, 2): ok" in out


# ---------------------------------------------------------------------------
# error plumbing

def test_malformed_json_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "trunc": }')
    code, _, err = run(capsys, ["validate", "--input", str(bad)])
    assert code == 2
    assert "malformed JSON" in err and "line 2" in err


def test_missing_input_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["validate", "--input", "does_not_exist.json"])
    assert code == 2 and "cannot read" in err


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["d2", "--p", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["d2", "--p", "0", "--w", "0"],
    ["thom", "--p", "0", "--w", "0", "--e", "1"],
    ["suspension", "--j", "1"],
    ["ei", "--i", "2"],
    ["divide"],
])
def test_negative_max_shift_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--max-shift", "-3"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_negative_max_shift_from_config_exits_two(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_shift": -3}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "d2", "--p", "0", "--w", "0"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_zero_max_shift_is_accepted(capsys):
    code, out, _ = run(capsys, ["d2", "--p", "0", "--w", "0",
                                "--max-shift", "0"])
    assert code == 0 and out.strip() == "Z/2[0](0)^1"


def flipped_fixture(tmp_path, name, edit):
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    edit(doc["maps"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("verb", ["validate", "primitives", "mm-split"])
def test_malformed_structure_exits_two(verb, capsys, tmp_path):
    # A row bit outside the 1-dimensional degree-0 part of A.
    def edit(maps):
        maps["unit_A"]["entries"] = [{"deg": 0, "bits": [5]}]
    path = flipped_fixture(tmp_path, "lambda_t.json", edit)
    code, out, err = run(capsys, [verb, "--input", path])
    assert code == 2 and out == ""
    assert "row out of range in degree 0" in err

    def drop(maps):
        del maps["psi_M"]
    path = flipped_fixture(tmp_path, "lambda_t.json", drop)
    code, _, err = run(capsys, [verb, "--input", path])
    assert code == 2 and "missing map 'psi_M'" in err


def _entry(key, value):
    def edit(doc):
        doc["maps"]["eta_l"]["entries"][0][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _entry("deg", None),
    _entry("deg", "0"),
    _entry("deg", True),
    _entry("deg", 99),
    _entry("bits", ["1"]),
    _entry("bits", 1),
    lambda doc: doc.update(trunc="4"),
    lambda doc: doc.update(maps=[]),
    lambda doc: doc["maps"]["eta_l"].update(entries={}),
    lambda doc: doc["maps"]["eta_l"]["entries"].append({"deg": 0, "bits": [1]}),
    lambda doc: doc["maps"]["eta_l"].pop("source"),
    lambda doc: doc["spaces"]["R"].update(degrees=[]),
    lambda doc: doc["spaces"]["R"]["degrees"].update(x=["z"]),
    lambda doc: doc["spaces"]["R"]["degrees"].update({"01": ["z"]}),
    # A counit row in degree 1: k has no basis there.
    lambda doc: doc["maps"].update(counit_G={
        "source": "G", "target": "k", "entries": [{"deg": 1, "bits": [1, 0]}]}),
    # Basis labels are JSON strings.
    lambda doc: doc["spaces"]["G"]["degrees"].update({"1": [None, "g"]}),
    lambda doc: doc["spaces"]["G"]["degrees"].update({"1": [{"a": 1}, "g"]}),
    lambda doc: doc["spaces"]["R"]["degrees"].update({"1": [1]}),
], ids=["deg-null", "deg-string", "deg-bool", "deg-outside", "bits-string",
        "bits-scalar", "trunc-string", "maps-list", "entries-object",
        "duplicate-degree", "no-source", "degrees-list", "degree-key",
        "degree-key-padded", "counit-degree-one", "label-null", "label-object",
        "label-integer"])
def test_hostile_structure_documents_exit_two(edit, capsys, tmp_path):
    with open(fixture("right_unit_good.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["validate", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: bad structure file") and "Traceback" not in err


def test_axiom_failures_still_exit_one(capsys, tmp_path):
    # psi(1) = 1 (x) 1 flipped to 0 stays inside the target basis.
    def edit(maps):
        for entry in maps["psi_M"]["entries"]:
            if entry["deg"] == 0:
                entry["bits"] = [entry["bits"][0] ^ 1]
    path = flipped_fixture(tmp_path, "planted.json", edit)
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 1 and "violation" in out

    code, _, err = run(capsys, ["mm-split", "--input", path])
    assert code == 1 and err.startswith("verification failed")


def test_validate_flags_a_non_associative_comodule(capsys, tmp_path):
    # a * a = b in M but not in A: M stays unital, yet
    # (a * a) * c2 = c2|b while a * (a * c2) = c2|a*a = 0.
    Mc = comodule_from_file(load_file(fixture("planted.json")))
    k = Mc.MM.pairs(2).index((1, 0, 1, 0))
    b = Mc.M.labels(2).index("1|b")

    def edit(maps):
        entry = next(e for e in maps["mult_M"]["entries"] if e["deg"] == 2)
        entry["bits"][k] ^= 1 << b
    path = flipped_fixture(tmp_path, "planted.json", edit)
    code, out, _ = run(capsys, ["validate", "--input", path, "--format", "json"])
    assert code == 1
    axioms = {v["axiom"] for v in json.loads(out)["violations"]}
    assert "associativity" in axioms
    assert not axioms & {"left_unit", "right_unit"}


# Hostile edits of a structure document, for the exit-code property below.
_ODD_VALUES = [None, True, False, "1", 1.5, -1, 0, 2**70, [], {}, [1], {"deg": 0}]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _mutate(doc, draw):
    """Apply one drawn edit: flip a bit of a row mask, put a value of
    another JSON type somewhere, or drop a key or list element."""
    paths = list(_paths(doc))[1:]
    path = paths[draw(st.integers(0, len(paths) - 1))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = draw(st.sampled_from(["flip", "swap", "drop"]))
    if kind == "flip" and type(parent[key]) is int:
        parent[key] ^= 1 << draw(st.integers(0, 8))
    elif kind == "drop":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))


# Fixture, and the command line that reads it.
_MUTATED = {
    "lambda_t.json": ["validate", "--input"],
    "right_unit_good.json": ["validate", "--input"],
    "dual_steenrod.json": ["divide", "--dual-steenrod"],
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_MUTATED)), data=st.data())
def test_mutated_structure_documents_keep_the_exit_code_contract(name, data):
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(_MUTATED[name] + [path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_config_file_merges_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"slope": "5/9", "max_shift": 12}))
    code, out, _ = run(capsys, ["--config", str(cfg),
                                "s-check", "--p", "2", "--w", "1"])
    assert code == 1 and "closure fails" in out

    cfg.write_text("{broken")
    code, _, err = run(capsys, ["--config", str(cfg),
                                "s-check", "--p", "2", "--w", "1"])
    assert code == 2 and "bad config file" in err

    # A key that no flag reads is ignored.
    cfg.write_text(json.dumps({"trunc": 3, "format": "json"}))
    code, out, _ = run(capsys, ["--config", str(cfg),
                                "s-check", "--p", "2", "--w", "1"])
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("doc", [
    {"slope": 5},
    {"format": 3},
    {"format": "xml"},
    {"coeffs": "complex"},
    {"max_shift": "12"},
    [1],
], ids=["slope-number", "format-number", "format-unknown", "coeffs-unknown",
        "max-shift-string", "doc-list"])
def test_malformed_config_values_exit_two(doc, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["--config", str(cfg),
                                  "vanish", "--i", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: bad config file") and "Traceback" not in err


# ---------------------------------------------------------------------------
# the full verification run

def test_verify_all_passes_and_is_byte_stable(capsys):
    code, out1, err1 = run(capsys, ["verify-all"])
    assert code == 0
    lines = out1.splitlines()
    assert len(lines) == len(acceptance.CHECKS) + 1
    for idx, (name, _, _) in enumerate(acceptance.CHECKS, 1):
        assert lines[idx - 1] == f"[{idx:2d}/{len(acceptance.CHECKS)}] {name:<24s} PASS"
    assert lines[-1] == f"all {len(acceptance.CHECKS)} acceptance checks passed"
    # Timings go to stderr so stdout stays byte-stable across runs.
    assert "budget" in err1 and "budget" not in out1

    code, out2, _ = run(capsys, ["verify-all"])
    assert code == 0 and out2 == out1


def test_verify_all_marks_a_budget_overrun(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        (("instant", 0.0, lambda: (True, "ok")),))
    code, out, err = run(capsys, ["verify-all"])
    # Only stderr shows the overrun; stdout and the exit code are unchanged.
    assert code == 0
    assert out.splitlines() == ["[ 1/1] instant                  PASS",
                                "all 1 acceptance checks passed"]
    assert "instant:" in err and err.rstrip().endswith("OVER")

    monkeypatch.setattr(acceptance, "CHECKS",
                        (("instant", 60.0, lambda: (True, "ok")),))
    code, _, err = run(capsys, ["verify-all"])
    assert code == 0 and "OVER" not in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "motalg.cli", "gw", "neps", "--n", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7_eps = 4 + 3⟨-1⟩"
