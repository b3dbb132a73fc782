"""Layer-boundary spans and counters, patched in from outside the library.

``Tracer.install()`` wraps the public functions and methods at each
layer boundary of the ``contextuality`` package.  A function is replaced
in every package module that looks it up under that name, so calls
between modules are seen as well as calls from the benchmark.  Spans
nest: a span's self time is its duration minus the time covered by its
child spans, accumulated per span name.  Counters are read from return
values and public attributes.  Both are reported per batch of the run,
so they compare across runs that fit different numbers of batches.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Time metrics reported by the traced run: metric name -> span name.
SPAN_METRICS = {
    "modelio.load_s": "modelio.load",
    "pauli.build_s": "pauli.build",
    "pauli.closure_s": "pauli.closure",
    "pauli.contexts_s": "pauli.contexts",
    "pauli.born_s": "pauli.born",
    "scenario.classify_s": "scenario.classify",
    "scenario.global_sections_s": "scenario.global_sections",
    "cech.setup_s": "cech.setup",
    "cech.route1_s": "cech.route1",
    "cech.route2_s": "cech.route2",
    "cech.crosscheck_s": "cech.crosscheck",
    "mcohom.setup_s": "mcohom.setup",
    "mcohom.validate_s": "mcohom.validate",
    "pmonoid.glue_s": "pmonoid.glue",
    "pmonoid.quotient_s": "pmonoid.quotient",
    "mcohom.query_s": "mcohom.query",
    "mcohom.cocycle_s": "mcohom.cocycle",
    "mcohom.audit_s": "mcohom.audit",
    "mcohom.decide_s": "mcohom.decide",
    "pmonoid.reconstruct_s": "pmonoid.reconstruct",
    "avn.is_avn_s": "avn.is_avn",
    "linalg.mod_s": "linalg.mod",
    "linalg.integer_s": "linalg.integer",
    "linalg.gf2_s": "linalg.gf2",
}

COUNT_METRICS = (
    "pauli.operators", "pauli.contexts",
    "scenario.witnesses", "scenario.global_sections",
    "cech.unknowns", "cech.rows",
    "cech.route1.parity", "cech.route1.lattice", "cech.route1.shortcut",
    "cech.route2.parity", "cech.route2.lattice", "cech.route2.shortcut",
    "mcohom.quotient_elements", "mcohom.triples_audited",
    "mcohom.vanishing",
    "avn.equations",
    "linalg.mod_solves", "linalg.integer_solves", "linalg.gf2_solves",
)


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_ns = 0
        self._stack: list[list[int]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``after(token, args, result)`` counts."""
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_ns[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_ns += dur
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        traced = self.wrap(name, original, after=after)
        for modname, mod in list(sys.modules.items()):
            if (modname == "contextuality"
                    or modname.startswith("contextuality.")):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def _patch_method(self, cls, attr, name, before=None, after=None):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], before, after))

    # -- the layer map ------------------------------------------------------

    def install(self) -> None:
        from contextuality import avn, cech, linalg, mcohom, modelio
        from contextuality import pauli, pmonoid, scenario

        counts = self.counts

        def add(key, value):
            counts[key] += value

        fn = self._patch_function
        meth = self._patch_method

        fn(modelio, "loads_model", "modelio.load")

        def built(_t, _a, structured):
            add("pauli.operators",
                len(structured.model.scenario.measurements))
            add("pauli.contexts", len(structured.model.scenario.contexts))

        fn(pauli, "build_state_dependent_model", "pauli.build", built)
        fn(pauli, "build_state_independent_model", "pauli.build", built)
        fn(pauli, "close_under_commuting_products", "pauli.closure")
        fn(pauli, "maximal_contexts", "pauli.contexts")
        fn(pauli, "born_consistent", "pauli.born")

        fn(scenario, "classify", "scenario.classify",
           lambda _t, _a, verdict: add("scenario.witnesses",
                                       len(verdict.witnesses)))
        fn(scenario, "global_sections", "scenario.global_sections",
           lambda _t, _a, found: add("scenario.global_sections",
                                     len(found)))

        def cech_built(_t, args, _r):
            add("cech.unknowns", args[0].nunknowns)
            add("cech.rows", len(args[0].rows))

        meth(cech.CechAnalyzer, "__init__", "cech.setup", after=cech_built)

        def lattice_solves():
            return counts["linalg.integer_solves"]

        def route_path(route):
            def after(solves_before, _a, decision):
                if counts["linalg.integer_solves"] > solves_before:
                    path = "lattice"
                elif (decision.certificate is not None
                      and decision.certificate.kind == "parity"):
                    path = "parity"
                else:
                    path = "shortcut"
                add(f"cech.{route}.{path}", 1)
            return after

        meth(cech.CechAnalyzer, "family_obstruction", "cech.route1",
             lattice_solves, route_path("route1"))
        meth(cech.CechAnalyzer, "connecting_cocycle", "cech.route2",
             lattice_solves, route_path("route2"))
        fn(cech, "cross_check_obstructions", "cech.crosscheck")

        meth(mcohom.GroupObstructionAnalyzer, "__init__", "mcohom.setup",
             after=lambda _t, args, _r: add(
                 "mcohom.quotient_elements",
                 len(args[0].quotient.monoid.elements)))
        fn(mcohom, "validate_structured_model", "mcohom.validate")
        fn(pmonoid, "glue_contexts", "pmonoid.glue")
        fn(pmonoid, "quotient_by_action", "pmonoid.quotient")
        meth(mcohom.GroupObstructionAnalyzer, "analyze", "mcohom.query",
             after=lambda _t, _a, report: add("mcohom.vanishing",
                                              int(report.vanishes)))
        fn(mcohom, "obstruction_cocycle", "mcohom.cocycle")

        def audited(_t, args, _r):
            cochain = args[0]
            if cochain.degree == 2:
                add("mcohom.triples_audited",
                    len(cochain.monoid.composable_triples()))

        fn(mcohom, "coboundary", "mcohom.audit", audited)
        meth(mcohom.CoboundarySolver, "decide", "mcohom.decide")
        fn(pmonoid, "trivialisation_from_right_splitting",
           "pmonoid.reconstruct")
        fn(pmonoid, "splitting_from_trivialisation", "pmonoid.reconstruct")

        fn(avn, "is_avn", "avn.is_avn",
           lambda _t, _a, report: add("avn.equations",
                                      len(report.theory.equations)))

        def solved(key):
            return lambda _t, _a, _r: add(key, 1)

        meth(linalg.ModSystem, "__init__", "linalg.mod")
        meth(linalg.ModSystem, "solve", "linalg.mod",
             after=solved("linalg.mod_solves"))
        meth(linalg.IntegerSystem, "__init__", "linalg.integer")
        meth(linalg.IntegerSystem, "solve", "linalg.integer",
             after=solved("linalg.integer_solves"))
        meth(linalg.Gf2AffineSystem, "solve", "linalg.gf2",
             after=solved("linalg.gf2_solves"))
        for attr in ("add_row", "express", "refute", "kernel_basis"):
            meth(linalg.Gf2Echelon, attr, "linalg.gf2")

    # -- report -------------------------------------------------------------

    def metrics(self, batches: int) -> dict:
        """Self times and counts per batch; the path ratio as is."""
        out = {}
        for metric, span in SPAN_METRICS.items():
            out[metric] = (self.self_ns.get(span, 0) / 1e9 / batches, "s")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts.get(metric, 0) / batches, "count")
        hits = sum(self.counts.get(f"cech.route{r}.shortcut", 0)
                   for r in (1, 2))
        tries = hits + sum(self.counts.get(f"cech.route{r}.lattice", 0)
                           for r in (1, 2))
        out["cech.shortcut.hit_ratio"] = (hits / tries if tries else 0.0,
                                          "ratio")
        return out
