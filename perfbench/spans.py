"""Timing spans around trophom's public functions, and per-layer metrics.

The tracer replaces each public function named in LAYERS, in its defining
module and in every trophom module that imported it by name, with a wrapper
that records a span ``[name, start, end, parent, info]``.  ``info`` holds
what the result tells through public attributes: verdict, search nodes and
arc-consistency passes of a SolveOutcome, vertex count of a built or parsed
graph, the route and target of a dispatch, the checks of a verify Report.
A name trophom no longer has is skipped and listed in ``missing``; metrics
that need only skipped names come out as missing instead of failing.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> public functions wrapped in trophom.<layer>
LAYERS = {
    "cli": ("main",),
    "formats": ("parse_tropical", "parse_gadget", "parse_digraph",
                "parse_lists", "parse_dimacs", "serialize_tropical",
                "serialize_gadget", "serialize_digraph", "serialize_lists"),
    "gadgets": ("build_c48", "nae3sat_to_c48", "build_h9",
                "c6_listhom_to_h9", "build_zigzag_gadget", "build_s_block",
                "build_pair_gadget", "build_triple_gadget", "build_pq_path",
                "tropicalize_digraph", "zigzag_p", "zigzag_q",
                "forcing_path", "transform_retraction_instance"),
    "solver": ("solve_list_hom", "solve_trop_hom", "solve_digraph_hom",
               "solve_retraction", "enumerate_homs", "ac_reduce"),
    "cores": ("core", "find_proper_retract", "is_core", "iso_check"),
    "poly": ("dispatch_solve", "forcing_vertices", "solve_all_forcing",
             "solve_2sat", "solve_via_pairs", "colour_class_pairs",
             "solve_by_colour_pairs", "detect_features",
             "reduce_by_features"),
    "verify": ("verify_c48_claim", "verify_pq_lemma",
               "verify_zigzag_properties", "roundtrip_nae", "roundtrip_h9",
               "roundtrip", "cross_check_poly", "nae_brute", "sat_brute",
               "list_hom_brute", "trop_hom_brute", "random_source"),
    "graphs": ("connected_components", "bipartition", "split_colours",
               "split_instance", "validate_hom"),
}

ROUTES = ("CoreReduced", "AllForcing", "TwoSat", "UniqueFeature",
          "SplitColours", "ExactFallback")
# Direct children of dispatch_solve that plan the target, and that solve.
PLAN = {"cores.core", "poly.detect_features", "poly.forcing_vertices",
        "graphs.bipartition", "graphs.split_colours"}
STRATEGY = {"poly.solve_all_forcing", "poly.solve_by_colour_pairs",
            "poly.solve_via_pairs", "poly.solve_2sat",
            "poly.reduce_by_features"} | {
                f"solver.{f}" for f in LAYERS["solver"]}
ORACLES = {"verify.nae_brute", "verify.sat_brute", "verify.list_hom_brute",
           "verify.trop_hom_brute"}


def import_layers():
    """Import every layer module that exists; absent ones show up as
    missing functions when the tracer is installed."""
    for layer in LAYERS:
        try:
            importlib.import_module(f"trophom.{layer}")
        except ImportError:
            pass


def _target_key(g) -> str:
    return f"{g.n}|{sorted(g.edges)}|{g.colours}"


def _info(name, args, kwargs, result):
    if name == "poly.dispatch_solve":
        out, report = result
        target = args[1] if len(args) > 1 else kwargs["target"]
        return {"ok": out.solvable, "route": list(report.route),
                "target": _target_key(target)}
    if hasattr(result, "solvable"):
        return {"ok": bool(result.solvable),
                "nodes": getattr(result, "nodes", 0),
                "passes": getattr(result, "passes", 0)}
    if hasattr(result, "maps"):
        return {"nodes": getattr(result, "nodes", 0)}
    if hasattr(result, "checks"):
        return {"checks": len(result.checks),
                "failed": sum(1 for c in result.checks
                              if not c.passed and not c.informational)}
    graph = getattr(result, "graph", result)
    if hasattr(graph, "edges") and hasattr(graph, "n"):
        return {"n": graph.n}
    return None


class Tracer:
    """Installs the wrappers; spans stay in memory until read."""

    def __init__(self):
        self.spans: list = []
        self.names: list = []
        self.missing: list = []
        self._stack: list = []
        self._patches = None  # (module, attribute, original, wrapper)

    def _plan(self) -> list:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "trophom" or
                                      k.startswith("trophom."))]
        patches = []
        for layer, funcs in LAYERS.items():
            home = sys.modules.get(f"trophom.{layer}")
            for fname in funcs:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            patches.append((mod, attr, orig, wrapper))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in reversed(self._patches or ()):
            setattr(mod, attr, orig)

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _info(name, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, wall: float) -> dict:
        return {"names": self.names, "spans": self.spans,
                "missing": self.missing, "wall": wall}

    def clear(self):
        self.spans.clear()


class LayerStats:
    """Per-layer metrics accumulated over traced runs.

    Each run is a Tracer.dump() dict, from one process or one batch of a
    traced loop, so spans need not all be held at once.
    """

    def __init__(self):
        self.acc: dict = {}
        self.missing: set = set()
        self.problems: list = []
        self._targets: set = set()

    def _add(self, key, value):
        self.acc[key] = self.acc.get(key, 0) + value

    def feed(self, run: dict):
        add = self._add
        names, spans = run["names"], run["spans"]
        self.missing.update(run["missing"])
        labels = [names[s[0]] for s in spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total_self = 0.0
        for i, s in enumerate(spans):
            name = labels[i]
            layer = name.split(".", 1)[0]
            dur = s[2] - s[1]
            self_s = dur - child_time[i]
            total_self += self_s
            add(f"{layer}.self", self_s)
            parent = labels[s[3]] if s[3] >= 0 else ""
            outer = not parent.startswith(layer + ".")
            info = s[4] or {}
            if outer:
                add(f"{layer}.outer_s", dur)
                add(f"{layer}.outer_n", 1)
                for key in ("nodes", "passes", "n", "checks", "failed"):
                    if key in info:
                        add(f"{layer}.{key}", info[key])
                if layer == "formats":
                    kind = "parse" if ".parse_" in name else "serialize"
                    add(f"formats.{kind}_s", dur)
                    add(f"formats.{kind}_n", info.get("n", 0))
            if name == "cores.core":
                add("cores.core_calls", 1)
                if outer:
                    add("cores.core_s", dur)
            if layer == "solver" and parent == "cores.find_proper_retract":
                add("cores.attempts", 1)
                add("cores.hits", 1 if info.get("ok") else 0)
            if name in ORACLES and parent not in ORACLES:
                add("verify.oracle_s", dur)
            if name == "poly.dispatch_solve":
                add("poly.dispatch_calls", 1)
                add("poly.dispatch_s", dur)
                for route in info.get("route", ()):
                    add(f"poly.route.{route}", 1)
                key = info.get("target")
                add("poly.repeats", 1 if key in self._targets else 0)
                self._targets.add(key)
            if parent == "poly.dispatch_solve":
                if name in PLAN:
                    add("poly.plan_s", dur)
                elif name in STRATEGY:
                    add("poly.strategy_s", dur)
        if total_self > run["wall"] * (1 + 1e-9) + 1e-6:
            self.problems.append(
                f"self times sum to {total_self:.6f} s, past the traced "
                f"wall time {run['wall']:.6f} s")

    def metrics(self) -> dict:
        """Metric name -> value, or None when every function the metric
        is computed from was missing."""
        def get(key):
            return self.acc.get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        dispatches = get("poly.dispatch_calls")
        solver_s = get("solver.outer_s")
        nodes, passes = get("solver.nodes"), get("solver.passes")
        out = {
            "formats.parse_s": get("formats.parse_s"),
            "formats.parse_vertices_per_s": ratio(get("formats.parse_n"),
                                                  get("formats.parse_s")),
            "formats.serialize_s": get("formats.serialize_s"),
            "gadgets.build_s": get("gadgets.outer_s"),
            "gadgets.vertices_built": get("gadgets.n"),
            "solver.calls": get("solver.outer_n"),
            "solver.self_s": get("solver.self"),
            "solver.nodes": nodes,
            "solver.ac_passes": passes,
            "solver.us_per_node": ratio(solver_s * 1e6, nodes),
            "solver.us_per_pass": ratio(solver_s * 1e6, passes),
            "solver.passes_per_node": ratio(passes, nodes),
            "cores.core_calls": get("cores.core_calls"),
            "cores.core_s": get("cores.core_s"),
            "cores.retract_attempts": get("cores.attempts"),
            "cores.retract_hit_ratio": ratio(get("cores.hits"),
                                             get("cores.attempts")),
            "poly.dispatch_calls": dispatches,
            "poly.self_s": get("poly.self"),
            "poly.plan_s": get("poly.plan_s"),
            "poly.plan_share": ratio(get("poly.plan_s"),
                                     get("poly.dispatch_s")),
            "poly.strategy_s": get("poly.strategy_s"),
            "poly.target_repeat_share": ratio(get("poly.repeats"),
                                              dispatches),
            "poly.fallback_share": ratio(get("poly.route.ExactFallback"),
                                         dispatches),
        }
        for route in ROUTES:
            out[f"poly.route.{route}"] = ratio(get(f"poly.route.{route}"),
                                               dispatches)
        out.update({
            "verify.oracle_s": get("verify.oracle_s"),
            "verify.oracle_share": ratio(get("verify.oracle_s"),
                                         get("verify.outer_s")),
            "verify.checks": get("verify.checks"),
            "verify.checks_failed": get("verify.failed"),
            "graphs.self_s": get("graphs.self"),
        })
        for name in out:
            if _needs(name) <= self.missing:
                out[name] = None
        return out


def _needs(metric: str) -> set:
    """The wrapped functions a metric is computed from."""
    layer, _, field = metric.partition(".")
    funcs = LAYERS[layer]
    if layer == "formats":
        prefix = "parse_" if field.startswith("parse") else "serialize_"
        funcs = [f for f in funcs if f.startswith(prefix)]
    elif metric.startswith("cores.core"):
        funcs = ["core"]
    elif metric.startswith("cores.retract"):
        funcs = ["find_proper_retract"]
    elif metric.startswith("verify.oracle"):
        return set(ORACLES)
    elif layer == "poly" and field not in ("self_s",):
        funcs = ["dispatch_solve"]
    return {f"{layer}.{f}" for f in funcs}
