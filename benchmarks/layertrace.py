"""Per-layer spans and counters for the traced benchmark run.

Nothing here edits skewseries: ``Tracer.install`` replaces each layer's public
functions, and a few methods, with wrappers at every binding site.  A name
imported with ``from .series import convolve`` is a second binding of the same
function, so every ``skewseries`` module is searched for it.

A span (name, start, end, parent) is recorded when a call crosses from one
layer into another; a call that stays inside the caller's layer is counted but
opens no span, so spans never nest within one layer and a layer's self time is
its spans' time minus their child spans.  ``FiniteRing.add``/``mul`` and the
``OrderedMonoid`` methods only count calls.  Spans stay in memory until
``dump`` writes them.  Install the tracer only in a process whose untraced
timings are not reported: the wrappers cost time even while ``on`` is false.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("rings", "monoids", "series", "ideals", "properties", "theorems",
          "gallery", "cli")

# Methods that are entry points into their layer from other layers.
SPAN_METHODS = {
    "rings": (("FiniteRing", "__init__"), ("RingAut", "validate"),
              ("RingAut", "compose"), ("RingAut", "inverse")),
    "series": (("OmegaAction", "__init__"), ("OmegaAction", "automorphism"),
               ("OmegaAction", "apply"), ("OmegaAction", "closure"),
               ("OmegaAction", "representatives"), ("SkewSeries", "__init__")),
    "ideals": (("IdealSet", "classified"),),
}
MONOID_METHODS = ("contains", "check_element", "op", "sort_key", "less", "leq",
                  "try_subtract")

FACTORIES = ("cyclic_ring", "product_ring", "matrix_ring", "upper_triangular_ring",
             "table_ring")
PROPERTY_CHECKS = ("is_left_app", "is_left_pq_baer", "is_quasi_baer", "is_right_pp",
                   "is_reduced", "orbit_annihilators_s_unital")

NOTES = (
    "no layer has a queue or a second thread, so no layer has a time waited; "
    "none is reported",
    "<layer>.self_s is span time minus child spans; spans open only where a call "
    "crosses into another layer",
    "FiniteRing.add/mul and OrderedMonoid methods are counted, not timed: their "
    "time stays in the calling layer",
    "rings.build_s and rings.validate_s are inclusive; build_s contains validate_s",
    "theorems.orbit_ann_hit_ratio: element_orbit_annihilator calls that made no "
    "left_annihilator call, over theorems.orbit_ann_calls",
    "gallery_ring is memoized per process, so its cache is warm after the first pass",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layers = ["bench"]
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.timers: dict = defaultdict(float)
        self.gallery_cache = None

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def _open(self, nid: int, layer: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        self._stack.append(idx)
        self._layers.append(layer)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        self._layers.pop()

    def call_op(self, key: str, fn):
        """Run one benchmark op under a root span named after it."""
        idx = self._open(self._name_id(f"op:{key}", "bench"), "bench")
        try:
            return fn()
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn, timer=None, before=None,
                      after=None):
        tracer = self
        nid = self._name_id(name, layer)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            token = before(args, kwargs) if before is not None else None
            idx = tracer._open(nid, layer) if tracer._layers[-1] != layer else None
            t0 = perf_counter() if timer is not None else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                if timer is not None:
                    tracer.timers[timer] += perf_counter() - t0
                if idx is not None:
                    tracer._close(idx)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn):
        tracer, counts = self, self.counts

        def wrapper(*args):
            if tracer.on:
                counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, layer: str, name: str) -> dict:
        """Timers and result readers for the functions that feed a metric."""
        counts, calls = self.counts, self.calls

        def add(key, value):
            counts[key] += value

        if layer == "rings" and name in FACTORIES:
            return {"timer": "rings.build",
                    "after": lambda a, k, r, t: add("rings.elements_built", r.size)}
        if layer == "rings" and name == "validate_ring":
            return {"timer": "rings.validate"}
        if layer == "rings" and name == "automorphisms":
            return {"timer": "rings.automorphisms",
                    "after": lambda a, k, r, t: add("rings.automorphisms_found", len(r))}
        if layer == "series" and name == "convolve":
            return {"timer": "series.convolve",
                    "before": lambda a, k: add("series.terms_multiplied",
                                               len(a[0].coeffs) * len(a[1].coeffs))}
        if layer == "series" and name == "OmegaAction.__init__":
            return {"timer": "series.action_build"}
        if layer == "ideals" and name in ("left_annihilator", "right_annihilator",
                                          "left_ideal_generated"):
            return {"after": lambda a, k, r, t: add("ideals.members_returned",
                                                    len(r.members))}
        if layer == "ideals" and name == "is_right_s_unital":
            return {"after": lambda a, k, r, t: add("ideals.s_unital_holds", int(r.holds))}
        if layer == "properties" and name == "orbit_annihilators_s_unital":
            def read_witnesses(a, k, r, t):
                scanned = r.witnesses.get("subsets_scanned")
                if scanned is not None:
                    add("properties.subsets_scanned", scanned)
                    add("properties.distinct_orbit_ideals",
                        len(r.witnesses["distinct_orbit_ideals"]))
            return {"after": read_witnesses}
        if layer == "theorems" and name == "random_annihilating_pair":
            return {"after": lambda a, k, r, t: add(
                "theorems.nonzero_pairs", int(not r[0].is_zero() and not r[1].is_zero()))}
        if layer == "theorems" and name == "check_coefficientwise_annihilation":
            return {"after": lambda a, k, r, t: add(
                "theorems.products_checked", r.witnesses.get("products_checked", 0))}
        if layer == "theorems" and name == "element_orbit_annihilator":
            return {"before": lambda a, k: calls["ideals.left_annihilator"],
                    "after": lambda a, k, r, t: add(
                        "theorems.orbit_ann_hits", int(calls["ideals.left_annihilator"] == t))}
        return {}

    def install(self, also=()) -> None:
        """Wrap every layer's public functions at every binding site.

        The bindings searched are those of every ``skewseries`` module and of
        the modules in ``also``.
        """
        modules = {layer: importlib.import_module(f"skewseries.{layer}") for layer in LAYERS}
        self.gallery_cache = modules["gallery"].gallery_ring
        wrapped: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span_wrapper(
                    layer, name, obj, **self._hooks(layer, attr)))
        sites = [mod for name, mod in sys.modules.items()
                 if name == "skewseries" or name.startswith("skewseries.")]
        for mod in sites + list(also):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        for layer, methods in SPAN_METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._span_wrapper(
                        layer, name, raw.__func__, **self._hooks(layer, f"{cls_name}.{meth}"))))
                else:
                    setattr(cls, meth, self._span_wrapper(
                        layer, name, raw, **self._hooks(layer, f"{cls_name}.{meth}")))
        ring_cls = modules["rings"].FiniteRing
        ring_cls.add = self._count_wrapper("rings.add_calls", ring_cls.add)
        ring_cls.mul = self._count_wrapper("rings.mul_calls", ring_cls.mul)
        monoid_cls = modules["monoids"].OrderedMonoid
        for meth in MONOID_METHODS:
            setattr(monoid_cls, meth,
                    self._count_wrapper("monoids.method_calls", monoid_cls.__dict__[meth]))

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(float)
        for i in range(n):
            out[self.name_layer[self.span_name[i]]] += end[i] - start[i] - child[i]
        return out

    def metrics(self, gallery_before) -> dict:
        """The per-layer metrics of everything traced so far."""
        calls, counts, timers = self.calls, self.counts, self.timers
        self_s = self.self_times()

        def total(prefix, names):
            return sum(calls[f"{prefix}.{n}"] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        terms = counts["series.terms_multiplied"]
        s_unital = calls["ideals.is_right_s_unital"]
        pairs = calls["theorems.random_annihilating_pair"]
        orbit_calls = calls["theorems.element_orbit_annihilator"]
        scanned = counts["properties.subsets_scanned"]
        info = self.gallery_cache.cache_info()
        hits, misses = info.hits - gallery_before.hits, info.misses - gallery_before.misses
        monoid_functions = sum(v for k, v in calls.items() if k.startswith("monoids."))
        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({
            "rings.build_s": (timers["rings.build"], "s"),
            "rings.validate_s": (timers["rings.validate"], "s"),
            "rings.elements_built": (counts["rings.elements_built"], "count"),
            "rings.mul_calls": (counts["rings.mul_calls"], "count"),
            "rings.add_calls": (counts["rings.add_calls"], "count"),
            "rings.automorphisms_s": (timers["rings.automorphisms"], "s"),
            "rings.automorphisms_found": (counts["rings.automorphisms_found"], "count"),
            "series.convolve_calls": (calls["series.convolve"], "count"),
            "series.terms_multiplied": (terms, "count"),
            "series.convolve_ns_per_term": (ratio(timers["series.convolve"] * 1e9, terms),
                                            "ns"),
            "series.middle_checks": (calls["series.annihilates_via_all_middles"], "count"),
            "series.action_build_s": (timers["series.action_build"], "s"),
            "monoids.calls": (counts["monoids.method_calls"] + monoid_functions, "count"),
            "ideals.annihilator_calls": (
                total("ideals", ("left_annihilator", "right_annihilator")), "count"),
            "ideals.ideal_generated_calls": (calls["ideals.left_ideal_generated"], "count"),
            "ideals.s_unital_calls": (s_unital, "count"),
            "ideals.members_returned": (counts["ideals.members_returned"], "count"),
            "ideals.s_unital_holds_ratio": (ratio(counts["ideals.s_unital_holds"], s_unital),
                                            "ratio"),
            "properties.checks": (total("properties", PROPERTY_CHECKS), "count"),
            "properties.subsets_scanned": (scanned, "count"),
            "properties.distinct_orbit_ideals": (counts["properties.distinct_orbit_ideals"],
                                                 "count"),
            "properties.distinct_per_subset": (
                ratio(counts["properties.distinct_orbit_ideals"], scanned), "ratio"),
            "theorems.pairs_generated": (pairs, "count"),
            "theorems.nonzero_pair_ratio": (ratio(counts["theorems.nonzero_pairs"], pairs),
                                            "ratio"),
            "theorems.witnesses_built": (calls["theorems.construct_annihilator_witness"],
                                         "count"),
            "theorems.products_checked": (counts["theorems.products_checked"], "count"),
            "theorems.orbit_ann_calls": (orbit_calls, "count"),
            "theorems.orbit_ann_hit_ratio": (
                ratio(counts["theorems.orbit_ann_hits"], orbit_calls), "ratio"),
            "gallery.ring_lookups": (hits + misses, "count"),
            "gallery.ring_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
            "cli.jobs": (calls["cli.run_job"], "count"),
            "trace.spans": (len(self.span_start), "count"),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.name_layer,
                       "columns": ["name", "parent", "start", "end"],
                       "spans": [list(self.span_name), list(self.span_parent),
                                 list(self.span_start), list(self.span_end)]}, fh)
