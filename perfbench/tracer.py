"""Outside-in span tracer for drgcayley.

Spans are recorded by wrappers that this module installs around public
functions of each drgcayley layer.  Modules import their callees by name
(``from .groups import canonicalize_connection_set``), so a wrapper must
replace the name in every *calling* module's namespace; ``install`` does
that by rebinding each module attribute that is the original function.
Nothing inside ``src/`` is edited: the wrappers live only in the traced
child process.

A span is ``[name, layer, parent, start, end]``.  Spans nest because
calls nest, so a layer's self time is the sum over its spans of the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

# (defining module, function, layer).  The metric key of a span is
# "<layer>.<function>".  Names absent from a later version of the program
# are skipped and listed in Tracer.missing.
TRACED = (
    ("drgcayley.cli", "run", "cli"),
    ("drgcayley.classify", "verify_main_theorem", "classify"),
    ("drgcayley.classify", "verify_circulant_theorem", "classify"),
    ("drgcayley.classify", "nonexistence_report", "classify"),
    ("drgcayley.classify", "classify_group", "classify"),
    ("drgcayley.classify", "_scan_range", "classify"),
    ("drgcayley.groups", "canonicalize_connection_set", "groups"),
    ("drgcayley.groups", "automorphisms", "groups"),
    ("drgcayley.groups", "maximal_subgroups", "groups"),
    ("drgcayley.graphs", "check_distance_regular", "graphs"),
    ("drgcayley.graphs", "spectrum", "graphs"),
    ("drgcayley.graphs", "detect_family", "graphs"),
    ("drgcayley.graphs", "imprimitivity", "graphs"),
    ("drgcayley.constructions", "expected_catalog", "constructions"),
    ("drgcayley.constructions", "expected_circulant_catalog", "constructions"),
    ("drgcayley.schur", "verify_schur_ring", "schur"),
    ("drgcayley.schur", "distance_module", "schur"),
    ("drgcayley.schur", "dual_schur_ring", "schur"),
    ("drgcayley.schur", "krein_parameters", "schur"),
    ("drgcayley.schur", "q_polynomial_orderings", "schur"),
    ("drgcayley.schur", "dual_graph", "schur"),
)

# Modules whose namespaces may hold imported copies of traced names.
NAMESPACES = (
    "drgcayley",
    "drgcayley.groups",
    "drgcayley.cyclotomic",
    "drgcayley.graphs",
    "drgcayley.algebra",
    "drgcayley.schur",
    "drgcayley.designs",
    "drgcayley.constructions",
    "drgcayley.classify",
    "drgcayley.cli",
)

# "bench" is the harness's own root span around one operation.
LAYERS = ("bench", "cli", "classify", "groups", "graphs", "constructions", "schur")

NAME, LAYER, PARENT, START, END = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.values_built = 0  # CyclotomicInteger.from_root_counts calls
        self.missing: List[str] = []
        self.reports: List[object] = []  # ClassificationReports seen
        self.aut_order = 0

    # -- recording ---------------------------------------------------------
    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        rec = [name, layer, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def _wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        observe = {
            "classify.classify_group": self.reports.append,
            "groups.automorphisms": self._saw_automorphisms,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, layer, fn, *args, **kwargs)
            if observe is not None:
                observe(out)
            return out

        return traced

    def _saw_automorphisms(self, perms) -> None:
        self.aut_order = max(self.aut_order, len(perms))

    def install(self) -> None:
        """Wrap every name in TRACED wherever a drgcayley module binds it,
        and count CyclotomicInteger.from_root_counts calls."""
        mods = [importlib.import_module(m) for m in NAMESPACES]
        for modname, attr, layer in TRACED:
            home = sys.modules[modname]
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrapper(fn, f"{layer}.{attr}", layer)
            for mod in mods:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)
        cyc = sys.modules["drgcayley.cyclotomic"].CyclotomicInteger
        raw = cyc.__dict__.get("from_root_counts")
        if isinstance(raw, classmethod):
            func = raw.__func__

            @functools.wraps(func)
            def counted(cls, *args, **kwargs):
                self.values_built += 1
                return func(cls, *args, **kwargs)

            cyc.from_root_counts = classmethod(counted)
        else:
            self.missing.append("drgcayley.cyclotomic.CyclotomicInteger.from_root_counts")

    # -- analysis ----------------------------------------------------------
    def nesting_errors(self) -> List[str]:
        errs = []
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                errs.append(f"span {i} {s[NAME]} ends before it starts")
            p = s[PARENT]
            if p >= 0:
                ps = self.spans[p]
                if s[START] < ps[START] or s[END] > ps[END]:
                    errs.append(f"span {i} {s[NAME]} escapes its parent {ps[NAME]}")
        if self.stack:
            errs.append(f"{len(self.stack)} spans left open")
        return errs

    def self_times(self) -> List[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_by_layer(self) -> Dict[str, float]:
        """Summed self time of each layer's spans, "bench" included."""
        own = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self.self_times()):
            own[s[LAYER]] += t
        return own

    def _has_ancestor(self, s: list, pred: Callable[[list], bool]) -> bool:
        p = s[PARENT]
        while p >= 0:
            if pred(self.spans[p]):
                return True
            p = self.spans[p][PARENT]
        return False

    def _outermost(self, keep: Callable[[list], bool]) -> float:
        """Summed duration of spans passing `keep` that have no ancestor
        passing it, i.e. the time covered by those spans."""
        return sum(
            s[END] - s[START] for s in self.spans if keep(s) and not self._has_ancestor(s, keep)
        )

    def inclusive(self, name: str) -> float:
        return self._outermost(lambda s: s[NAME] == name)

    def layer_covered(self, layer: str) -> float:
        return self._outermost(lambda s: s[LAYER] == layer)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(
            1
            for s in self.spans
            if s[NAME] == name and self._has_ancestor(s, lambda a: a[NAME] == ancestor)
        )

    def layer_metrics(self, scan_chunk: Optional[int]) -> Dict[str, float]:
        """Per-layer metrics of one traced operation (see perfbench/README.md)."""
        own = self.self_by_layer()
        m: Dict[str, float] = {f"{layer}.self_s": own[layer] for layer in LAYERS[1:]}

        connected = screened = drg = macs = nbytes = 0
        for rep in self.reports:
            total = rep.total_sets
            B = total.bit_length() - 1
            P = B * (B + 1) // 2
            n = rep.group.order
            connected += rep.connected_sets
            screened += rep.screened_sets
            drg += rep.drg_count
            macs += total * P * n
            chunk = scan_chunk or total
            chunks = -(-total // chunk)
            # float32 bit matrix, pair gather (two operands and product),
            # pair-sum table read once per chunk, matmul result and its
            # int32 copy, over every subset id.
            nbytes += 4 * total * (B + 3 * P + 2 * n) + 4 * chunks * P * n
        exact = self.calls_under("graphs.check_distance_regular", "classify._scan_range")
        m.update(
            {
                "classify.connected": connected,
                "classify.screened": screened,
                "classify.drg": drg,
                "classify.screen_precision": drg / screened if screened else 0.0,
                "classify.exact_checks": exact,
                "classify.verdict_cache_hits": screened - exact,
                "classify.screen_macs": macs,
                "classify.screen_bytes": nbytes,
                "groups.canonicalize_s": self.inclusive("groups.canonicalize_connection_set"),
                "groups.canonicalize_calls": self.calls("groups.canonicalize_connection_set"),
                "groups.automorphisms_s": self.inclusive("groups.automorphisms"),
                "groups.aut_order": self.aut_order,
                "groups.maximal_subgroups_s": self.inclusive("groups.maximal_subgroups"),
                "graphs.check_drg_s": self.inclusive("graphs.check_distance_regular"),
                "graphs.check_drg_calls": self.calls("graphs.check_distance_regular"),
                "graphs.spectrum_s": self.inclusive("graphs.spectrum"),
                "graphs.family_s": self.inclusive("graphs.detect_family"),
                "graphs.imprimitivity_s": self.inclusive("graphs.imprimitivity"),
                "constructions.catalog_s": self._outermost(
                    lambda s: s[NAME] in ("constructions.expected_catalog",
                                          "constructions.expected_circulant_catalog")
                ),
                "schur.distance_module_s": self.inclusive("schur.distance_module"),
                "schur.dual_ring_s": self.inclusive("schur.dual_schur_ring"),
                "schur.krein_s": self.inclusive("schur.krein_parameters"),
                "schur.qpoly_s": self.inclusive("schur.q_polynomial_orderings"),
                "schur.dual_graph_s": self.inclusive("schur.dual_graph"),
                "schur.verify_calls": self.calls("schur.verify_schur_ring"),
                "schur.covered_s": self.layer_covered("schur"),
                "cyclotomic.values_built": self.values_built,
            }
        )
        return m
