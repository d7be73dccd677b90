"""In-memory spans around the public functions of each garlands layer.

`Tracer.install()` replaces each traced function in every garlands module
that binds it (so callers that imported it by name see the wrapper too) and
each traced method on its class.  Private helpers stay unwrapped, so their
time lands in the caller's self time.  A span is
(name, start, end, parent span index, case id, info); info is a count taken
from the call, such as the products of an rmul or the order of a closure.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute, info(args, result) or None)
_FUNCTIONS = {
    "finite_field.construct_field": ("garlands.finite_field", "construct_field", None),
    "finite_field.construct_extension": ("garlands.finite_field", "construct_extension", None),
    "etale.torus_units": ("garlands.etale", "torus_units", None),
    "etale.aut_group": ("garlands.etale", "aut_group", None),
    "etale.additive_span_check": ("garlands.etale", "additive_span_check", None),
    "etale.span_absorbs_units": ("garlands.etale", "span_absorbs_units", None),
    "matrix_group.extend_subgroup": ("garlands.matrix_group", "extend_subgroup", lambda a, r: r.order),
    "matrix_group.normalizer_brute": ("garlands.matrix_group", "normalizer_brute", None),
    "matrix_group.normalizer_formula": ("garlands.matrix_group", "normalizer_formula", None),
    "matrix_group.torus_subgroup": ("garlands.matrix_group", "torus_subgroup", None),
    "matrix_group.is_maximal_abelian": ("garlands.matrix_group", "is_maximal_abelian", None),
    "matrix_group.is_normal_in": ("garlands.matrix_group", "is_normal_in", None),
    "lattice.enumerate_interval": ("garlands.lattice", "enumerate_interval", lambda a, r: len(r)),
    "lattice.normality_graph": ("garlands.lattice", "normality_graph", None),
    "lattice.interval_restriction_check": ("garlands.lattice", "interval_restriction_check", None),
    "runner.run_case": ("garlands.runner", "run_case", None),
    "pell.sl2q_normalizer_report": ("garlands.pell", "sl2q_normalizer_report", None),
    "pell.negative_pell": ("garlands.pell", "negative_pell", None),
    "pell.continued_fraction_sqrt": ("garlands.pell", "continued_fraction_sqrt", None),
    "pell.is_squarefree": ("garlands.pell", "is_squarefree", None),
    "pell.printed_criterion": ("garlands.pell", "printed_criterion", None),
}

# span name -> (module, class, method, info(args, result) or None)
_METHODS = {
    "matrix_group.mats": ("garlands.matrix_group", "AmbientGroup", "mats", None),
    "matrix_group.rmul": ("garlands.matrix_group", "AmbientGroup", "rmul", lambda a, r: len(a[1])),
    "matrix_group.lmul": ("garlands.matrix_group", "AmbientGroup", "lmul", lambda a, r: len(a[2])),
    "matrix_group.conj_by_all": ("garlands.matrix_group", "AmbientGroup", "conj_by_all", None),
    "matrix_group.commute_mask": ("garlands.matrix_group", "AmbientGroup", "commute_mask", None),
    "matrix_group.key_tuple": ("garlands.matrix_group", "Subgroup", "key_tuple", None),
    "cache.get": ("garlands.cache", "DiskCache", "get", lambda a, r: int(r is not None)),
    "cache.put": ("garlands.cache", "DiskCache", "put", None),
}

_ETALE = ("etale.torus_units", "etale.aut_group", "etale.additive_span_check", "etale.span_absorbs_units")
_SCANS = (
    "matrix_group.conj_by_all",
    "matrix_group.commute_mask",
    "matrix_group.normalizer_brute",
    "matrix_group.normalizer_formula",
    "matrix_group.torus_subgroup",
    "matrix_group.is_maximal_abelian",
)
_RECOMPUTED = ("matrix_group.torus_subgroup", "matrix_group.normalizer_brute", "lattice.enumerate_interval")
_PELL_LEAVES = ("is_squarefree", "printed_criterion", "negative_pell")

# every per-layer metric, in report order, with its unit
LAYER_METRICS = [
    ("finite_field.construct_field.ms", "ms"),
    ("finite_field.construct_extension.ms", "ms"),
    ("etale.ms", "ms"),
    ("matrix_group.enumerate.ms", "ms"),
    ("matrix_group.ambient_elements", "count"),
    ("matrix_group.ambient_bytes", "bytes"),
    ("matrix_group.rmul.calls", "count"),
    ("matrix_group.rmul.products", "count"),
    ("matrix_group.rmul.ms", "ms"),
    ("matrix_group.lmul.calls", "count"),
    ("matrix_group.lmul.products", "count"),
    ("matrix_group.lmul.ms", "ms"),
    ("matrix_group.closures", "count"),
    ("matrix_group.closure_elements", "count"),
    ("matrix_group.closure.ms", "ms"),
    ("matrix_group.key_tuple.calls", "count"),
    ("matrix_group.key_tuple.ms", "ms"),
    ("matrix_group.scan.ms", "ms"),
    ("lattice.enumerate_interval.calls", "count"),
    ("lattice.enumerate_interval.ms", "ms"),
    ("lattice.members", "count"),
    ("lattice.closures_per_member", "ratio"),
    ("lattice.new_member_ratio", "ratio"),
    ("lattice.normality_graph.ms", "ms"),
    ("lattice.normality_tests", "count"),
    ("lattice.restriction.ms", "ms"),
    ("runner.recompute_per_case", "ratio"),
    ("cache.get.calls", "count"),
    ("cache.put.calls", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.ms", "ms"),
    ("cache.bytes_written", "bytes"),
    ("pell.continued_fraction_sqrt.calls_per_d", "ratio"),
    ("pell.continued_fraction_sqrt.ms", "ms"),
    ("pell.is_squarefree.ms", "ms"),
    ("pell.printed_criterion.ms", "ms"),
    ("pell.negative_pell.ms", "ms"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.case, 0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and method; `uninstall` restores them."""
        for name, (modname, attr, info) in _FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, info)
            for mname, mod in list(sys.modules.items()):
                if mname != "garlands" and not mname.startswith("garlands."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (modname, clsname, attr, info) in _METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path, meta: dict) -> None:
        """All spans as JSON lines after one metadata line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "case", "info"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, cases: int, pell_ds: int) -> dict:
        """Per-layer counts and times (ms; self time unless noted) from the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _case, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        info: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _case, inf) in enumerate(spans):
            calls[name] += 1
            info[name] += inf
            total[name] += end - start
            own[name] += end - start - child[i]

        def ms(seconds: float) -> float:
            return seconds * 1000.0

        members = info["lattice.enumerate_interval"]
        intervals = calls["lattice.enumerate_interval"]
        closures = calls["matrix_group.extend_subgroup"]
        hits = info["cache.get"]
        return {
            "finite_field.construct_field.ms": ms(total["finite_field.construct_field"]),
            "finite_field.construct_extension.ms": ms(total["finite_field.construct_extension"]),
            "etale.ms": ms(sum(own[n] for n in _ETALE)),
            "matrix_group.enumerate.ms": ms(own["matrix_group.mats"]),
            "matrix_group.rmul.calls": calls["matrix_group.rmul"],
            "matrix_group.rmul.products": info["matrix_group.rmul"],
            "matrix_group.rmul.ms": ms(own["matrix_group.rmul"]),
            "matrix_group.lmul.calls": calls["matrix_group.lmul"],
            "matrix_group.lmul.products": info["matrix_group.lmul"],
            "matrix_group.lmul.ms": ms(own["matrix_group.lmul"]),
            "matrix_group.closures": closures,
            "matrix_group.closure_elements": info["matrix_group.extend_subgroup"],
            "matrix_group.closure.ms": ms(own["matrix_group.extend_subgroup"]),
            "matrix_group.key_tuple.calls": calls["matrix_group.key_tuple"],
            "matrix_group.key_tuple.ms": ms(own["matrix_group.key_tuple"]),
            "matrix_group.scan.ms": ms(sum(own[n] for n in _SCANS)),
            "lattice.enumerate_interval.calls": intervals,
            "lattice.enumerate_interval.ms": ms(own["lattice.enumerate_interval"]),
            "lattice.members": members,
            "lattice.closures_per_member": closures / members if members else 0.0,
            "lattice.new_member_ratio": (members - intervals) / closures if closures else 0.0,
            "lattice.normality_graph.ms": ms(total["lattice.normality_graph"]),
            "lattice.normality_tests": calls["matrix_group.is_normal_in"],
            "lattice.restriction.ms": ms(total["lattice.interval_restriction_check"]),
            "runner.recompute_per_case": sum(calls[n] for n in _RECOMPUTED) / cases if cases else 0.0,
            "cache.get.calls": calls["cache.get"],
            "cache.put.calls": calls["cache.put"],
            "cache.hits": hits,
            "cache.misses": calls["cache.get"] - hits,
            "cache.ms": ms(total["cache.get"] + total["cache.put"]),
            "pell.continued_fraction_sqrt.calls_per_d": calls["pell.continued_fraction_sqrt"] / pell_ds if pell_ds else 0.0,
            "pell.continued_fraction_sqrt.ms": ms(own["pell.continued_fraction_sqrt"]),
            **{f"pell.{n}.ms": ms(own[f"pell.{n}"]) for n in _PELL_LEAVES},
        }
