"""Structure-constant files.

Format: {"trunc": N,
         "spaces": {name: {"degrees": {"<d>": [labels...]}}},
         "maps": {name: {"source": "A" | ["A", "B"],
                         "target": "A" | ["A", "B"],
                         "entries": [{"deg": d, "bits": [row ints]}]}}}

Rows follow the package convention: bit j of row i is the coefficient of
the j-th target basis vector in the image of the i-th source basis vector.
Omitted degrees are zero maps.  A one-dimensional ground space "k" in
degree 0 is always available without being listed.

Assemblers expect maps by conventional names: a Hopf algebra is
(unit_A, counit_A, mult_A, comult_A) on space A; a comodule adds
(unit_M, mult_M, psi_M) on M and optionally phi: M -> A.  Algebroid
inputs use spaces R, G, M with witness spaces BG, BM, generator space RP,
and maps (unit_R, mult_R, unit_G, mult_G, unit_M, mult_M, eta_l, eta_r,
eta_M, counit_G, comult_G, psi_M, phi, rplus, bg, bm[, antipode]).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .algebroid import AlgebroidData, Cor22Input
from .core import (
    ComoduleData,
    GradedAlgebra,
    GradedMap,
    GradedSpace,
    HopfData,
    MalformedStructure,
    TensorSpace,
    k_space,
    least_N,
)


class StructureFile(NamedTuple):
    trunc: int
    spaces: dict[str, GradedSpace]
    maps: dict[str, GradedMap]


def is_json_int(value) -> bool:
    # json.load gives exactly int for a JSON integer; true/false come back as
    # bool, an int subclass, and numeric strings stay str.
    return type(value) is int


def degree_key(text: str) -> int | None:
    """The degree an object key names, or None.  Object keys are strings in
    JSON; only the plain decimal form is a degree, so "01" and "1" cannot
    both name degree 1."""
    try:
        d = int(text)
    except ValueError:
        return None
    return d if str(d) == text else None


def expect_json(value, kind: type, what: str):
    """value, if it has the JSON container type kind (dict or list)."""
    if not isinstance(value, kind):
        raise MalformedStructure(f"{what} has the wrong JSON type: {value!r}")
    return value


def load_doc(doc: dict) -> StructureFile:
    expect_json(doc, dict, "structure file")
    N = doc.get("trunc")
    if not is_json_int(N):
        raise MalformedStructure("missing or malformed 'trunc'")
    spaces: dict[str, GradedSpace] = {"k": k_space(N)}
    for name, body in expect_json(doc.get("spaces", {}), dict, "'spaces'").items():
        body = expect_json(body, dict, f"space {name}")
        degrees = {}
        for dstr, labels in expect_json(body.get("degrees", {}), dict,
                                        f"space {name} degrees").items():
            d = degree_key(dstr)
            if d is None:
                raise MalformedStructure(f"space {name}: degree key {dstr!r}")
            labels = expect_json(labels, list, f"space {name} labels")
            for x in labels:
                if not isinstance(x, str):
                    raise MalformedStructure(f"space {name}: non-string label {x!r}")
            degrees[d] = labels
        spaces[name] = GradedSpace(name, degrees, N)

    def resolve(ref):
        if isinstance(ref, str):
            if ref not in spaces:
                raise MalformedStructure(f"unknown space {ref!r}")
            return spaces[ref]
        if isinstance(ref, list) and len(ref) == 2:
            return TensorSpace(resolve(ref[0]), resolve(ref[1]))
        raise MalformedStructure(f"malformed space reference {ref!r}")

    maps: dict[str, GradedMap] = {}
    for name, body in expect_json(doc.get("maps", {}), dict, "'maps'").items():
        body = expect_json(body, dict, f"map {name}")
        if "source" not in body or "target" not in body:
            raise MalformedStructure(f"map {name}: needs 'source' and 'target'")
        src = resolve(body["source"])
        dst = resolve(body["target"])
        rows: dict[int, list[int]] = {}
        for entry in expect_json(body.get("entries", []), list,
                                 f"map {name} entries"):
            if not isinstance(entry, dict) or not {"deg", "bits"} <= entry.keys():
                raise MalformedStructure(
                    f"map {name}: entry {entry!r} needs 'deg' and 'bits'")
            d, bits = entry["deg"], entry["bits"]
            if not (is_json_int(d) and 0 <= d <= N):
                raise MalformedStructure(
                    f"map {name}: entry degree {d!r} is not an integer in 0..{N}")
            if d in rows:
                raise MalformedStructure(f"map {name}: two entries for degree {d}")
            if not (isinstance(bits, list) and all(map(is_json_int, bits))):
                raise MalformedStructure(
                    f"map {name}: rows in degree {d} must be JSON integers")
            rows[d] = bits
        maps[name] = GradedMap(name, src, dst, rows)
    return StructureFile(N, spaces, maps)


def load_file(path: str) -> StructureFile:
    with open(path) as fh:
        return load_doc(json.load(fh))


def _space_ref(space) -> object:
    if isinstance(space, TensorSpace):
        return [_space_ref(space.left), _space_ref(space.right)]
    return space.name


def dump_doc(spaces: dict[str, GradedSpace],
             maps: dict[str, GradedMap]) -> dict:
    """The document of these spaces and maps, truncated at their least N."""
    trunc = least_N(*spaces.values(), *maps.values())
    doc: dict = {"trunc": trunc, "spaces": {}, "maps": {}}
    for name, sp in sorted(spaces.items()):
        if name == "k":
            continue
        doc["spaces"][name] = {
            "degrees": {str(d): list(sp.labels(d)) for d in sp.degrees()}
        }
    for name, mp in sorted(maps.items()):
        entries = [
            {"deg": d, "bits": list(rows)}
            for d, rows in sorted(mp.rows.items())
            if any(rows)
        ]
        doc["maps"][name] = {
            "source": _space_ref(mp.source),
            "target": _space_ref(mp.target),
            "entries": entries,
        }
    return doc


def _require(sf: StructureFile, *names: str) -> list[GradedMap]:
    out = []
    for n in names:
        if n not in sf.maps:
            raise MalformedStructure(f"fixture is missing map {n!r}")
        out.append(sf.maps[n])
    return out


def hopf_from_file(sf: StructureFile) -> HopfData:
    if "A" not in sf.spaces:
        raise MalformedStructure("fixture is missing space 'A'")
    unit, counit, mult, comult = _require(
        sf, "unit_A", "counit_A", "mult_A", "comult_A"
    )
    return HopfData(sf.spaces["A"], unit, counit, mult, comult)


def comodule_from_file(sf: StructureFile) -> ComoduleData:
    H = hopf_from_file(sf)
    if "M" not in sf.spaces:
        raise MalformedStructure("fixture is missing space 'M'")
    unit, mult, psi = _require(sf, "unit_M", "mult_M", "psi_M")
    return ComoduleData(sf.spaces["M"], unit, mult, psi, H)


def phi_from_file(sf: StructureFile) -> GradedMap:
    return _require(sf, "phi")[0]


def _witnesses_from(sf: StructureFile, space_name: str, incl_name: str):
    bar = sf.spaces[space_name]
    incl = sf.maps[incl_name]
    out = []
    for d in bar.degrees():
        for i, label in enumerate(bar.labels(d)):
            out.append((d, label, incl.row(d, i)))
    return out


def _gens_from(sf: StructureFile, incl_name: str):
    incl = sf.maps[incl_name]
    return [
        (d, row)
        for d, rows in sorted(incl.rows.items())
        for row in rows
        if row
    ]


def algebra_from_file(sf: StructureFile, name: str) -> GradedAlgebra:
    sp = sf.spaces[name]
    unit, mult = _require(sf, f"unit_{name}", f"mult_{name}")
    return GradedAlgebra(sp, unit, mult)


def right_unit_from_file(sf: StructureFile):
    """(R, gens, gamma, eta_l, eta_r) for right_unit_descends."""
    R = algebra_from_file(sf, "R")
    gamma = algebra_from_file(sf, "G")
    eta_l, eta_r = _require(sf, "eta_l", "eta_r")
    return R, _gens_from(sf, "rplus"), gamma, eta_l, eta_r


def algebroid_from_file(sf: StructureFile) -> AlgebroidData:
    R = algebra_from_file(sf, "R")
    gamma = algebra_from_file(sf, "G")
    eta_l, eta_r, comult, counit = _require(
        sf, "eta_l", "eta_r", "comult_G", "counit_G"
    )
    antipode = sf.maps.get("antipode")
    return AlgebroidData(
        R, _gens_from(sf, "rplus"), gamma, eta_l, eta_r,
        _witnesses_from(sf, "BG", "bg"), comult, counit, antipode,
    )


def cor22_from_file(sf: StructureFile) -> Cor22Input:
    alg = algebroid_from_file(sf)
    m = algebra_from_file(sf, "M")
    eta_m, psi, phi = _require(sf, "eta_M", "psi_M", "phi")
    return Cor22Input(alg, m, eta_m, _witnesses_from(sf, "BM", "bm"), psi, phi)


# --------------------------------------------------------------------------
# Serializers matching the assemblers above.

def _hopf_parts(H: HopfData):
    spaces = {"A": H.A}
    maps = {
        "unit_A": H.unit, "counit_A": H.counit,
        "mult_A": H.mult, "comult_A": H.comult,
    }
    return spaces, maps


def hopf_to_doc(H: HopfData) -> dict:
    return dump_doc(*_hopf_parts(H))


def comodule_to_doc(Mc: ComoduleData, phi: GradedMap | None = None) -> dict:
    spaces, maps = _hopf_parts(Mc.hopf)
    spaces["M"] = Mc.M
    maps.update(unit_M=Mc.unit, mult_M=Mc.mult, psi_M=Mc.coaction)
    if phi is not None:
        maps["phi"] = phi
    return dump_doc(spaces, maps)


def _witness_space_and_map(name, incl_name, witnesses, target):
    degrees: dict[int, list[str]] = {}
    rows: dict[int, list[int]] = {}
    for d, label, vec in witnesses:
        degrees.setdefault(d, []).append(label)
        rows.setdefault(d, []).append(vec)
    bar = GradedSpace(name, degrees, target.N)
    return bar, GradedMap(incl_name, bar, target, rows)


def _gens_space_and_map(gens, R: GradedAlgebra):
    """The generators of R_+ as the space RP, labelled g0, g1, ..., with
    their inclusion rplus."""
    witnesses = [(d, f"g{j}", vec) for j, (d, vec) in enumerate(gens)]
    return _witness_space_and_map("RP", "rplus", witnesses, R.space)


def right_unit_to_doc(R: GradedAlgebra, gens, gamma: GradedAlgebra,
                      eta_l: GradedMap, eta_r: GradedMap) -> dict:
    RP, rplus = _gens_space_and_map(gens, R)
    spaces = {"R": R.space, "G": gamma.space, "RP": RP}
    maps = {
        "unit_R": R.unit, "mult_R": R.mult,
        "unit_G": gamma.unit, "mult_G": gamma.mult,
        "eta_l": eta_l, "eta_r": eta_r, "rplus": rplus,
    }
    return dump_doc(spaces, maps)


def cor22_to_doc(inp: Cor22Input) -> dict:
    alg = inp.alg
    RP, rplus = _gens_space_and_map(alg.r_plus, alg.R)
    BG, bg = _witness_space_and_map(
        "BG", "bg", alg.gamma_witnesses, alg.gamma.space
    )
    BM, bm = _witness_space_and_map("BM", "bm", inp.m_witnesses, inp.m.space)
    spaces = {
        "R": alg.R.space, "G": alg.gamma.space, "M": inp.m.space,
        "RP": RP, "BG": BG, "BM": BM,
    }
    maps = {
        "unit_R": alg.R.unit, "mult_R": alg.R.mult,
        "unit_G": alg.gamma.unit, "mult_G": alg.gamma.mult,
        "unit_M": inp.m.unit, "mult_M": inp.m.mult,
        "eta_l": alg.eta_l, "eta_r": alg.eta_r, "eta_M": inp.eta_m,
        "counit_G": alg.counit, "comult_G": alg.comult,
        "psi_M": inp.psi, "phi": inp.phi,
        "rplus": rplus, "bg": bg, "bm": bm,
    }
    if alg.antipode is not None:
        maps["antipode"] = alg.antipode
    return dump_doc(spaces, maps)
