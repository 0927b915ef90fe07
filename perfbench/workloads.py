"""The three workloads: their inputs, their operations and the checks on
one round of outputs.

A workload is a fixed list of CLI operations (one round) and a check over
the outputs of a round.  Only `structures` draws its inputs from the seed;
`verify_all` and `containers` run fixed parameters, chosen so that one
module does most of the work (see README.md).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from checks import CheckFailed


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect: int = 0   # the exit code of a correct verdict


@dataclass
class Workload:
    ops: list[Op]
    # Checks one round: {op name: stdout} for every op that gave a verdict.
    check: Callable[[dict[str, bytes]], None]


def _have(outs: dict, *names: str) -> bool:
    return all(n in outs for n in names)


# ---------------------------------------------------------------------------
# verify_all: the acceptance checks end to end, then the rewriter at n = 8.

REWRITE_N = 8


def verify_all(seed: int, work: str) -> Workload:
    commute = ("steenrod", "commute", "--n", str(REWRITE_N), "--format", "json")
    ops = [
        Op("verify-all", ("verify-all",)),
        Op("commute-right", commute + ("--side", "right")),
        Op("commute-left", commute + ("--side", "left")),
    ]

    def check(outs: dict[str, bytes]) -> None:
        if _have(outs, "verify-all"):
            checks.check_verify_all(outs["verify-all"])
        for side in ("right", "left"):
            if _have(outs, f"commute-{side}"):
                checks.check_commute(outs[f"commute-{side}"], REWRITE_N, side)

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# containers: a power-of-two row (built by _d2_step) and a row with several
# set bits (built by ProductSum.tensor), with what their checks need.

TRUNC = 36
POW2_ROW, POW2_CUT = 16, 28          # E_16 at 36, and at 28 for the cut check
TENSOR_ROW, TENSOR_CUT = 15, 26      # E_15 = E_8 (x) E_7
HALVES = (8, 7)
NSYM_MAX_I, NSYM_TRUNC = 16, 24


def _ei(i: int, trunc: int) -> Op:
    return Op(f"ei{i}@{trunc}", ("ei", "--i", str(i), "--slope", "2/3",
                                 "--max-shift", str(trunc), "--format", "json"))


def containers(seed: int, work: str) -> Workload:
    ops = [
        _ei(POW2_ROW, TRUNC),
        _ei(POW2_ROW, POW2_CUT),
        Op("vanish", ("vanish", "--i", str(POW2_ROW), "--slope", "2/3",
                      "--max-shift", str(POW2_CUT), "--format", "json")),
        _ei(TENSOR_ROW, TRUNC),
        _ei(TENSOR_ROW, TENSOR_CUT),
        *(_ei(i, TRUNC) for i in HALVES),
        Op("nsym", ("nsym", "--max-i", str(NSYM_MAX_I), "--slope", "2/3",
                    "--max-shift", str(NSYM_TRUNC), "--format", "json")),
    ]
    trunc_of = {op.name: int(op.name.split("@")[1]) for op in ops if "@" in op.name}

    def check(outs: dict[str, bytes]) -> None:
        rows = {name: checks.load_row(outs[name], trunc_of[name])
                for name in trunc_of if name in outs}
        high, low = f"ei{POW2_ROW}@{TRUNC}", f"ei{POW2_ROW}@{POW2_CUT}"
        if _have(rows, high, low):
            checks.check_cut(rows[high], rows[low], POW2_CUT, f"E_{POW2_ROW}")
        if _have(rows, low) and _have(outs, "vanish"):
            checks.check_vanish(outs["vanish"], rows[low])
        high, low = f"ei{TENSOR_ROW}@{TRUNC}", f"ei{TENSOR_ROW}@{TENSOR_CUT}"
        if _have(rows, high, low):
            checks.check_cut(rows[high], rows[low], TENSOR_CUT, f"E_{TENSOR_ROW}")
        halves = [f"ei{i}@{TRUNC}" for i in HALVES]
        if _have(rows, high, *halves):
            checks.check_tensor(rows[high], rows[halves[0]], rows[halves[1]],
                                TRUNC, f"E_{TENSOR_ROW}")
        if _have(outs, "nsym"):
            series = checks.load_nsym(outs["nsym"], NSYM_MAX_I)
            for i in (POW2_ROW, TENSOR_ROW, *HALVES):
                name = f"ei{i}@{TRUNC}"
                if name in rows:
                    want = checks.star_histogram(checks.cut(rows[name], NSYM_TRUNC))
                    if series[i] != want:
                        raise CheckFailed(
                            f"nsym row {i} differs from the star histogram of "
                            f"E_{i} cut to {NSYM_TRUNC}")

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# structures: planted comodules (intact and with one flipped coaction bit)
# and the three cor22 fixtures, written as structure files.

# The planted comodules of a round: (exterior generator degrees, degrees of
# the planted positive-degree classes).  One, so that a run repeats each
# operation often enough for its best time to settle.
PLANTED_SHAPES = (
    ((1, 2, 4, 5), (1, 2, 2, 4, 6)),
)
COR22_N = 22
COR22_FIXTURES = ("cor22_identity", "cor22_exterior", "cor22_rank_two")


@dataclass(frozen=True)
class Planted:
    gen_degrees: list[int]
    dims: dict[int, int]      # planted dimensions, degree 0 included
    N: int


def planted_inputs(seed: int) -> list[Planted]:
    """The seed's planted comodules.  The seed orders the generators, which
    fixes the basis order of A, of M and of every map; the degree
    multisets are fixed, so every seed asks for the same work.  Each is
    truncated at twice its top degree, so every product is checked."""
    rng = random.Random(seed)
    out = []
    for gens, planted in PLANTED_SHAPES:
        gens = rng.sample(gens, len(gens))
        dims = {0: 1}
        for d in planted:
            dims[d] = dims.get(d, 0) + 1
        out.append(Planted(gens, dims, 2 * (sum(gens) + max(planted))))
    return out


def _flip_counit_bit(doc: dict, rng: random.Random) -> int:
    """Flip the coefficient of m' (x) 1 in psi(m) for random basis vectors
    m, m' of one random degree d; (id (x) counit) psi(m) = m then fails in
    degree d.  Returns d.  The bit stays inside the target basis of M (x) A,
    enumerated by ascending left degree as the file format prescribes."""
    def dims(space):
        return {int(d): len(ls) for d, ls in doc["spaces"][space]["degrees"].items()}
    dim_m, dim_a = dims("M"), dims("A")
    d = rng.choice(sorted(dim_m))
    i, j = rng.randrange(dim_m[d]), rng.randrange(dim_m[d])
    offset = sum(dim_m.get(e, 0) * dim_a.get(d - e, 0) for e in range(d))
    bit = offset + j * dim_a[0]
    entry = next(e for e in doc["maps"]["psi_M"]["entries"] if e["deg"] == d)
    entry["bits"][i] ^= 1 << bit
    return d


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def structures(seed: int, work: str) -> Workload:
    from motalg.hopf import build, io

    rng = random.Random(seed ^ 0x5F1)
    ops: list[Op] = []
    expect_planted: dict[str, Planted] = {}
    flipped_degree: dict[str, int] = {}
    for k, p in enumerate(planted_inputs(seed)):
        H = build.exterior_hopf([(f"g{g}", d) for g, d in enumerate(p.gen_degrees)], p.N)
        C = build.square_zero_algebra("c", {d: n for d, n in p.dims.items() if d}, p.N)
        doc = io.comodule_to_doc(*build.planted_comodule(C, H))
        intact = os.path.join(work, f"planted{k}.json")
        _write(intact, doc)
        flipped_degree[f"validate-flipped{k}"] = _flip_counit_bit(doc, rng)
        flipped = os.path.join(work, f"flipped{k}.json")
        _write(flipped, doc)
        ops += [
            Op(f"validate-planted{k}", ("validate", "--input", intact, "--format", "json")),
            Op(f"validate-flipped{k}", ("validate", "--input", flipped, "--format", "json"),
               expect=1),
            Op(f"mm-split{k}", ("mm-split", "--input", intact, "--format", "json")),
        ]
        expect_planted[f"mm-split{k}"] = p
    for name in COR22_FIXTURES:
        path = os.path.join(work, f"{name}.json")
        _write(path, io.cor22_to_doc(getattr(build, name)(COR22_N)))
        ops += [
            Op(f"cor22-{name}", ("cor22", "--input", path, "--format", "json")),
            Op(f"validate-{name}", ("validate", "--input", path, "--format", "json")),
        ]

    def check(outs: dict[str, bytes]) -> None:
        for op in ops:
            if op.name not in outs:
                continue
            out = outs[op.name]
            if op.name.startswith("validate-planted"):
                checks.check_validate_ok(out, "comodule")
            elif op.name.startswith("validate-flipped"):
                checks.check_validate_flipped(out, flipped_degree[op.name])
            elif op.name.startswith("mm-split"):
                p = expect_planted[op.name]
                checks.check_mm_split(out, p.dims, p.gen_degrees, p.N)
            elif op.name.startswith("cor22-"):
                checks.check_cor22(out, COR22_N)
            else:
                checks.check_validate_ok(out, "algebroid")

    return Workload(ops, check)


WORKLOADS = {
    "verify_all": verify_all,
    "containers": containers,
    "structures": structures,
}
