"""Outside-in tracing of the cayleygr layers.

The tracer wraps public functions of the engine from the benchmark's own
code; nothing in ``src/`` knows about it.  Two kinds of wrapper exist:

* kernels (hot, called thousands of times) get a call counter and the
  cumulative time of their outermost calls;
* stages get one span per call, with a link to the enclosing span.  A
  span's self time is its duration minus the time its child spans cover.

Every wrapper is rebound wherever the engine imported the function with
``from ... import``, otherwise those calls would bypass it.  The CLI
topics of ``cli.TOPICS`` become the root spans.
"""

from __future__ import annotations

import sys
import time

# Hot kernels: counter plus cumulative time of outermost calls.
KERNELS = {
    "exact": ("poly_mul", "divide_by_linear", "solve_rational", "smith_normal_form"),
    "equivariant": ("ab_integrate", "pointwise_product", "expand_in_basis"),
    "ambient": ("lr_multiply", "cg_pairing"),
    "cayley": ("tangent_weight_list", "is_cg_member"),
    "octonions": ("multiply",),
    "weightmodel": ("gl7_schur_dim", "g2_irrep_dim"),
    "invariants": ("hilbert_value",),
    "fixtures": ("load_fixture",),
}

# Stage functions: one span per call.
STAGES = {
    "cayley": ("enumerate_fixed_points", "gkm_edges"),
    "octonions": ("g2_basis", "g2_stabilizer_dim"),
    "weightmodel": ("model_bridge",),
    "equivariant": ("solve_all_classes", "degrees", "multiplication_table", "poincare_pairing"),
    "ambient": ("restriction_table", "tangent_chern_ambient"),
    "invariants": ("chern_classes", "dual_degree", "hilbert_polynomial", "equivariant_series_check"),
    "cli": ("render",),
}

# Stages whose repeated calls should return the object computed first; a
# call that returns an object an earlier call returned is a hit.
MEMO_STAGES = (
    "cayley.enumerate_fixed_points",
    "cayley.gkm_edges",
    "octonions.g2_basis",
    "equivariant.solve_all_classes",
    "equivariant.degrees",
    "equivariant.multiplication_table",
    "ambient.restriction_table",
    "ambient.tangent_chern_ambient",
    "invariants.chern_classes",
    "invariants.hilbert_polynomial",
)

SOLVE_ALL = "equivariant.solve_all_classes"


class Tracer:
    """Counters and spans of one traced process, kept in memory."""

    def __init__(self):
        self.counters = {}   # name -> [calls, seconds, cells]
        self.depth = {}      # kernel name -> current nesting depth
        self.stages = {}     # name -> [calls, self seconds, total seconds]
        self.edges = {}      # (parent, child) -> [calls, seconds]
        self.stack = []      # open spans: [name, start, child seconds]
        self.roots = []      # (name, seconds) of the root spans
        self.memo = {name: ([], set()) for name in MEMO_STAGES}
        self.hits = 0
        self.solve_times = []  # solve_rational durations under solve_all_classes
        self._patched = []     # (namespace, key, original)

    # -- wrappers -----------------------------------------------------------

    def kernel(self, name, fn):
        counters = self.counters.setdefault(name, [0, 0.0, 0])
        depth = self.depth
        depth[name] = 0
        clock = time.perf_counter
        is_solve = name == "exact.solve_rational"

        def wrapper(*args, **kwargs):
            counters[0] += 1
            if is_solve:
                rows = args[0] if args else kwargs["rows"]
                counters[2] += len(rows) * (len(rows[0]) if rows else 0)
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] = 0
                counters[1] += elapsed
                if is_solve and any(span[0] == SOLVE_ALL for span in self.stack):
                    self.solve_times.append(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn):
        stats = self.stages.setdefault(name, [0, 0.0, 0.0])
        memo = self.memo.get(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration - frame[2]
                stats[2] += duration
                parent = stack[-1][0] if stack else None
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration
                if stack:
                    stack[-1][2] += duration
                else:
                    self.roots.append((name, duration))
            if memo is not None:
                refs, ids = memo
                if id(result) in ids:
                    self.hits += 1
                else:
                    refs.append(result)  # keeps the id from being reused
                    ids.add(id(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed function and the CLI topics in place."""
        from cayleygr import cli

        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "cayleygr" or name.startswith("cayleygr.")
        }
        for table, make in ((KERNELS, self.kernel), (STAGES, self.span)):
            for short, names in table.items():
                mod = modules["cayleygr." + short]
                for fname in names:
                    original = getattr(mod, fname)
                    wrapped = make(f"{short}.{fname}", original)
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(vars(other), key, wrapped)
        for topic, entry in list(cli.TOPICS.items()):
            self._patch(cli.TOPICS, topic, self.span(f"cli.topic.{topic}", entry))

    def _patch(self, namespace, key, value):
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        while self._patched:
            namespace, key, original = self._patched.pop()
            namespace[key] = original

    # -- output -------------------------------------------------------------

    def summary(self):
        """JSON-ready aggregate of this process's trace; call after uninstall."""
        solve_order = []
        if self.solve_times:  # the class solve ran, so the fixed points are cached
            from cayleygr import equivariant

            by_codim = equivariant.labels_by_codim()
            solve_order = [k for k in range(max(by_codim) - 1, -1, -1) for _ in by_codim[k]]
        per_codim = {}
        for k, seconds in zip(solve_order, self.solve_times):
            per_codim[k] = per_codim.get(k, 0.0) + seconds
        return {
            "kernels": {n: {"calls": c[0], "s": c[1], "cells": c[2]} for n, c in self.counters.items()},
            "stages": {n: {"calls": s[0], "self_s": s[1], "total_s": s[2]} for n, s in self.stages.items()},
            "edges": [
                {"parent": p, "child": c, "calls": e[0], "s": e[1]} for (p, c), e in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "roots": [{"name": n, "s": s} for n, s in self.roots],
            "memo": {"calls": sum(self.stages.get(n, [0])[0] for n in MEMO_STAGES), "hits": self.hits},
            "solve_codim_s": {str(k): v for k, v in sorted(per_codim.items())},
            "solve_calls_matched": len(self.solve_times) == len(solve_order),
        }


def merge(summaries):
    """Sum the summaries of several traced processes."""
    out = {"kernels": {}, "stages": {}, "edges": [], "roots": [], "memo": {"calls": 0, "hits": 0},
           "solve_codim_s": {}, "solve_calls_matched": True}
    edges = {}
    for s in summaries:
        for kind in ("kernels", "stages"):
            for name, stats in s[kind].items():
                acc = out[kind].setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    acc[key] += value
        for e in s["edges"]:
            acc = edges.setdefault((e["parent"], e["child"]), [0, 0.0])
            acc[0] += e["calls"]
            acc[1] += e["s"]
        out["roots"].extend(s["roots"])
        for key in ("calls", "hits"):
            out["memo"][key] += s["memo"][key]
        for k, v in s["solve_codim_s"].items():
            out["solve_codim_s"][k] = out["solve_codim_s"].get(k, 0.0) + v
        out["solve_calls_matched"] &= s["solve_calls_matched"]
    out["edges"] = [{"parent": p, "child": c, "calls": e[0], "s": e[1]} for (p, c), e in edges.items()]
    return out


def layer_metrics(trace, overhead_frac, specs):
    """Map a merged trace onto the per-layer metrics ``specs`` name.

    ``<fn>.calls`` and ``<fn>.cells`` are counts; ``<fn>.s`` is a kernel's
    cumulative time or a stage's self time.
    """
    out = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "stages.calls":
            value = trace["memo"]["calls"]
        elif name == "stages.hit_ratio":
            calls = trace["memo"]["calls"]
            value = trace["memo"]["hits"] / calls if calls else 0.0
        elif name.startswith("equivariant.solve_codim"):
            value = trace["solve_codim_s"].get(name[len("equivariant.solve_codim"):-2], 0.0)
        else:
            fn, _, key = name.rpartition(".")
            if fn in trace["kernels"]:
                value = trace["kernels"][fn][key]
            else:
                stage = trace["stages"].get(fn, {"calls": 0, "self_s": 0.0})
                value = stage["self_s" if key == "s" else key]
        out[name] = {"value": value, "unit": spec["unit"]}
    return out
