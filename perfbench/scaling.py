"""Scaling figures for perfbench/README.md, measured in one process:

    python3 perfbench/scaling.py

Prints the machine facts (nproc, Python, a fixed calibration loop), then the
rewriter for n = 5..9, E_16 for truncations 28..40 and the first planted
comodule shape of the structures workload for N = 12..24.  Each figure is
one call timed with perf_counter; the tracer is not installed.
"""

import json
import os
import platform
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from motalg import nsym, steenrod  # noqa: E402
from motalg.hopf import build, mm_split, validate_comodule, validate_hopf  # noqa: E402


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def calibration() -> float:
    """Best of five runs of a fixed integer loop."""
    def loop():
        s = 0
        for k in range(3_000_000):
            s += k * k
        return s
    return min(timed(loop)[1] for _ in range(5))


def main() -> None:
    print(f"nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"calibration {calibration():.3f}s")
    print("\n| n | commute_right | terms | rules |\n| --- | --- | --- | --- |")
    for n in range(5, 10):
        res, t = timed(steenrod.commute_right, n)
        print(f"| {n} | {t:.2f}s | {len(res.terms)} | {res.rules} |")
    print("\n| trunc | build_Ei(16) | products | JSON bytes | JSON time |\n"
          "| --- | --- | --- | --- | --- |")
    for trunc in (28, 32, 36, 40):
        E, t = timed(nsym.build_Ei, 16, "2/3", trunc)
        text, tj = timed(lambda: json.dumps(E.to_dict(), indent=1, sort_keys=True))
        print(f"| {trunc} | {t:.2f}s | {len(E)} | {len(text.encode())} | {tj:.2f}s |")
        del E, text
    p = workloads.planted_inputs(0)[0]
    print(f"\nplanted generators {p.gen_degrees}, planted dims {p.dims}\n"
          "| N | dim M | validate | mm_split |\n| --- | --- | --- | --- |")
    for N in (12, 16, 20, 24):
        H = build.exterior_hopf([(f"g{g}", d) for g, d in enumerate(p.gen_degrees)], N)
        C = build.square_zero_algebra("c", {d: c for d, c in p.dims.items() if d}, N)
        Mc, phi = build.planted_comodule(C, H)
        _, tv = timed(lambda: validate_hopf(Mc.hopf) + validate_comodule(Mc))
        _, tm = timed(mm_split, Mc, phi)
        dim = sum(Mc.M.dims().values())
        print(f"| {N} | {dim} | {tv:.2f}s | {tm:.3f}s |")


if __name__ == "__main__":
    main()
