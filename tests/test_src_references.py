"""No dead library code: every module-level function under src/motalg is
used somewhere in src/motalg, or is on the allowlist below with its reason.

A use is an identifier read as a name or an attribute; an import is not a
use, so a re-export from a package's __init__.py keeps nothing alive.  Uses
are matched by bare name, so a name defined in two modules counts as used
in both once either is used (gf2.mat_mul and lattice.mat_mul)."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "motalg"

TRACER = "tracer-named, waits for ROADMAP item 3"
FIXTURE = "fixture writer"
ORACLE = "test oracle"

ALLOWED = {
    "gf2.in_rowspan": TRACER,
    "gf2.solve": TRACER,
    "gw.power_map_class": TRACER,
    "gw.switch_class": TRACER,
    "hopf.build.self_comodule": TRACER,
    "nsym.iterated_d2_bound": TRACER,
    "steenrod.commute_left_beta": TRACER,
    "steenrod.commute_right_beta": TRACER,
    "hopf.build.cor22_exterior": FIXTURE,
    "hopf.build.cor22_identity": FIXTURE,
    "hopf.build.cor22_rank_two": FIXTURE,
    "hopf.io.comodule_to_doc": FIXTURE,
    "hopf.io.cor22_to_doc": FIXTURE,
    "hopf.io.hopf_to_doc": FIXTURE,
    "hopf.io.right_unit_to_doc": FIXTURE,
    "hopf.core.identity_map": ORACLE,
    "hopf.core.zero_map": ORACLE,
    "lattice.det": ORACLE,
}


def _unused_functions() -> set[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[f"{module}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qual for qual, name in defined.items() if name not in used}


def test_every_library_function_is_used_or_allowed():
    unused = _unused_functions()
    assert sorted(unused - set(ALLOWED)) == [], "unused outside the allowlist"
    assert sorted(set(ALLOWED) - unused) == [], "allowed but now used"
