"""Traced mode: spans and counters around calls into motalg's modules.

Tracer.install() replaces each listed function under every name a motalg
module binds it to (so `nsym.d2_cell` is traced as well as
`extpower.d2_cell`, and `gf2.rank` as `hopf.core` reaches it).  Functions
called once per term or per cell only count calls.  A span records a name,
a start, an end, its parent span and an optional size; spans stay in
memory until the run writes them out.  Only run.py --trace 1 imports this
module.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from checks import ACCEPTANCE_CHECKS

# module -> (span prefix, functions wrapped in spans)
SPANS = {
    "motalg.cli": ("cli", ("main",)),
    "motalg.steenrod": ("steenrod", (
        "commute_right", "commute_left", "roundtrip_check", "commute_right_beta",
        "commute_left_beta", "rp_ring", "moore_homology")),
    "motalg.nsym": ("nsym", (
        "build_Ei", "vanishing_certificate", "nsym_series", "cofree_divide",
        "series_multiply", "load_generator_series", "iterated_d2_bound")),
    "motalg.extpower": ("extpower", (
        "d2_cell", "d2_sum", "s_closure_check", "thom_check",
        "suspension_relation_check", "s_cells")),
    "motalg.bigraded": ("bigraded", ("has_vanishing_line",)),
    "motalg.hopf.core": ("hopf", (
        "validate_hopf", "validate_comodule", "primitives", "mm_split")),
    "motalg.hopf.algebroid": ("hopf", (
        "validate_algebroid", "cor22_pipeline", "right_unit_descends")),
    "motalg.hopf.io": ("hopf.io", (
        "load_file", "hopf_from_file", "comodule_from_file", "phi_from_file",
        "algebroid_from_file", "cor22_from_file", "right_unit_from_file",
        "comodule_to_doc", "cor22_to_doc")),
    "motalg.hopf.build": ("hopf.build", (
        "exterior_hopf", "self_comodule", "square_zero_algebra",
        "planted_comodule", "polynomial_base", "identity_algebroid",
        "exterior_algebroid", "cor22_identity", "cor22_exterior",
        "cor22_rank_two", "right_unit_fixture")),
    "motalg.gf2": ("gf2", (
        "rank", "rref", "kernel_basis", "solve", "inverse", "is_invertible",
        "complete_basis", "spans_equal", "in_rowspan")),
    "motalg.lattice": ("lattice", ("smith_normal_form", "lattice_member")),
    "motalg.gw": ("gw", (
        "integer", "unit_class", "n_epsilon", "switch_class", "power_map_class",
        "whitehead_check", "lefschetz_trace_derivation", "torsion_equivalence")),
}

# (module, class, method, span name); the spans of class methods.
METHOD_SPANS = (
    ("motalg.nsym", "ProductSum", "tensor", "nsym.ProductSum.tensor"),
    ("motalg.nsym", "ProductSum", "to_dict", "nsym.ProductSum.to_dict"),
    ("motalg.nsym", "ProductSum", "flatten", "nsym.ProductSum.flatten"),
    ("motalg.bigraded", "TateSum", "tensor", "bigraded.TateSum.tensor"),
)

# Called once per term or per cell: counted, not spanned.
COUNTED = (
    ("motalg.steenrod", None, "render_factor", "steenrod.render_factor"),
    ("motalg.hopf.core", None, "pair_apply", "hopf.pair_apply"),
    ("motalg.gf2", None, "mat_vec", "gf2.mat_vec"),
    ("motalg.extpower", None, "s_member", "extpower.s_member"),
    ("motalg.nsym", "ProductSum", "__init__", "nsym.ProductSum.init"),
    ("motalg.bigraded", "StarGrading", "from_slope", "bigraded.StarGrading.from_slope"),
)


def _rows(args, result) -> int:
    return len(args[0]) + (len(args[1]) if len(args) > 1 and isinstance(args[1], list) else 0)


def _rules(args, result) -> int:
    return 0 if result is None else result.rules


SIZES = {"gf2": _rows, "steenrod.commute_right": _rules,
         "steenrod.commute_left": _rules}


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, size); id 0 is the root.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next = 1

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name, size=None, name_of=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name_of(args) if name_of else name, t0, t1,
                              parent, size(args, result) if size else 0))
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function under each name that a motalg module
        binds it to, and the listed methods on their classes."""
        importlib.import_module("motalg.cli")
        replace: dict = {}
        for modname, (prefix, names) in SPANS.items():
            mod = sys.modules[modname]
            for n in names:
                fn = getattr(mod, n)
                span = "cli" if prefix == "cli" else f"{prefix}.{n}"
                size = SIZES.get(span) or SIZES.get(prefix)
                replace[fn] = self._spanned(fn, span, size)
        acceptance = importlib.import_module("motalg.acceptance")
        replace[acceptance.run_check] = self._spanned(
            acceptance.run_check, None, name_of=lambda a: f"acceptance.{a[0]}")
        for modname, cls, attr, name in COUNTED:
            if cls is None:
                fn = getattr(sys.modules[modname], attr)
                replace[fn] = self._counted(fn, name)
        for mod in [m for n, m in sys.modules.items()
                    if n == "motalg" or n.startswith("motalg.")]:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in replace:
                    setattr(mod, attr, replace[val])
        for modname, cls, attr, name in METHOD_SPANS:
            klass = getattr(sys.modules[modname], cls)
            setattr(klass, attr, self._spanned(getattr(klass, attr), name))
        for modname, cls, attr, name in COUNTED:
            if cls is None:
                continue
            klass = getattr(sys.modules[modname], cls)
            raw = klass.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(klass, attr, classmethod(self._counted(raw.__func__, name)))
            else:
                setattr(klass, attr, self._counted(raw, name))

    # -- reduction ----------------------------------------------------------

    def window_metrics(self, t0: float, t1: float, counts: Counter) -> dict:
        """Per-layer figures of the spans that started in [t0, t1), with
        the counter increments `counts` of that window."""
        name_of = {s[0]: s[1] for s in self.spans}
        child = defaultdict(float)
        for sid, name, a, b, parent, size in self.spans:
            child[parent] += b - a
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        sizes: Counter = Counter()
        for sid, name, a, b, parent, size in self.spans:
            if not t0 <= a < t1:
                continue
            self_s[name] += b - a - child[sid]
            total_s[name] += b - a
            if name.startswith("gf2."):
                if not name_of.get(parent, "").startswith("gf2."):
                    calls["gf2"] += 1
                    sizes["gf2"] += size
            calls[name] += 1
            sizes[name] += size

        def group(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        m = {
            "steenrod.commute_right.s": self_s["steenrod.commute_right"],
            "steenrod.commute_right.calls": calls["steenrod.commute_right"],
            "steenrod.commute_left.s": self_s["steenrod.commute_left"],
            "steenrod.roundtrip_check.s": self_s["steenrod.roundtrip_check"],
            "steenrod.render_factor.calls": counts["steenrod.render_factor"],
            "steenrod.rules": sizes["steenrod.commute_right"]
                              + sizes["steenrod.commute_left"],
        }
        for check in ACCEPTANCE_CHECKS:
            # The whole check, as verify-all times it against its budget.
            m[f"acceptance.{check}.s"] = total_s[f"acceptance.{check}"]
        m.update({
            "nsym.build_Ei.s": self_s["nsym.build_Ei"],
            "nsym.ProductSum.tensor.s": self_s["nsym.ProductSum.tensor"],
            "nsym.ProductSum.tensor.calls": calls["nsym.ProductSum.tensor"],
            "nsym.ProductSum.init.calls": counts["nsym.ProductSum.init"],
            "nsym.ProductSum.to_dict.s": self_s["nsym.ProductSum.to_dict"],
            "nsym.vanishing_certificate.s": self_s["nsym.vanishing_certificate"],
            "nsym.nsym_series.s": self_s["nsym.nsym_series"],
            "extpower.d2_cell.s": self_s["extpower.d2_cell"],
            "extpower.d2_cell.calls": calls["extpower.d2_cell"],
            "extpower.s_member.calls": counts["extpower.s_member"],
            "extpower.d2_sum.s": self_s["extpower.d2_sum"],
            "extpower.thom_check.s": self_s["extpower.thom_check"],
            "bigraded.TateSum.tensor.s": self_s["bigraded.TateSum.tensor"],
            "bigraded.has_vanishing_line.s": self_s["bigraded.has_vanishing_line"],
            "bigraded.StarGrading.from_slope.calls":
                counts["bigraded.StarGrading.from_slope"],
            "hopf.io.load_file.s": self_s["hopf.io.load_file"],
            "hopf.validate_hopf.s": self_s["hopf.validate_hopf"],
            "hopf.validate_comodule.s": self_s["hopf.validate_comodule"],
            "hopf.validate_algebroid.s": self_s["hopf.validate_algebroid"],
            "hopf.primitives.s": self_s["hopf.primitives"],
            "hopf.mm_split.s": self_s["hopf.mm_split"],
            "hopf.cor22_pipeline.s": self_s["hopf.cor22_pipeline"],
            "hopf.pair_apply.calls": counts["hopf.pair_apply"],
            "hopf.build.s": group("hopf.build."),
            "gf2.s": group("gf2."),
            "gf2.calls": calls["gf2"],
            "gf2.rows": sizes["gf2"],
            "gf2.mat_vec.calls": counts["gf2.mat_vec"],
            "lattice.smith_normal_form.s": self_s["lattice.smith_normal_form"],
            "gw.s": group("gw."),
            "cli.self_s": self_s["cli"],
        })
        return m

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "counts": dict(self.counts),
                       "spans": [list(s) for s in self.spans]}, fh)


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
