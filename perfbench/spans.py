"""Outside-in tracing: spans around public skyhaul functions.

A wrapper is installed on the module attribute that the caller looks the
function up in, so the program itself is unchanged. Spans stay in memory
(one tuple each) and are aggregated, and optionally dumped, at the end.
Count-only wrappers record counts on the innermost open span without
opening one, so their time stays in their caller's self time.

A wrapped name that no longer exists is recorded as missing; it is never an
error, so a later refactor that renames a stage shows up in the report.
"""

import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _links(a) -> int:
    return int(np.count_nonzero(a))


# (module, attribute, span name, counter). A counter maps (args, result) to
# a dict of counts. Span name None means count-only.
SPAN_WRAPS = [
    ("skyhaul.harness", "prepare_scenario", "harness.prepare", None),
    ("skyhaul.harness", "draw_cells", "geometry.draw_cells", None),
    ("skyhaul.harness", "coverage_radius", "channel.coverage_radius", None),
    ("skyhaul.harness", "place_fleet", "deployment.place_fleet", None),
    ("skyhaul.harness", "build_link_table", "channel.link_table",
     lambda args, r: {"pairs": r.n_cells * r.n_hubs}),
    ("skyhaul.harness", "solve_greedy", "association.greedy",
     lambda args, r: {"greedy_ops": r[1].op_count}),
    ("skyhaul", "solve_greedy", "association.greedy",
     lambda args, r: {"greedy_ops": r[1].op_count}),
    ("skyhaul.association", "greedy_step1", "association.step1",
     lambda args, r: {"cells": args[0].n_cells, "admitted": _links(r)}),
    ("skyhaul.association", "greedy_step2", "association.step2", None),
    ("skyhaul.association", "greedy_step3", "association.step3",
     lambda args, r: {"trims": _links(args[1]) - _links(r[0])}),
    ("skyhaul", "check_feasible", "association.check_feasible", None),
    ("skyhaul.harness", "check_feasible", "association.check_feasible", None),
    ("skyhaul.association", "check_feasible", "association.check_feasible", None),
    ("skyhaul.exact", "check_feasible", "association.check_feasible", None),
    ("skyhaul.harness", "solve_exact", "exact.solve",
     lambda args, r: {"nodes": r[1].node_count}),
    ("skyhaul.harness", "write_run_artifacts", "harness.write", None),
    # count-only: thinning input/output and hard-core draws per placement
    ("skyhaul.geometry", "hardcore_thin", None,
     lambda args, r: {"parents": len(args[0]), "kept": len(r)}),
    ("skyhaul.deployment", "matern_type1", None,
     lambda args, r: {"draws": 1}),
]


class Tracer:
    """Span recorder. Create one per run; install() it around traced calls."""

    def __init__(self):
        # (span id, parent id, scenario id, name, start ns, end ns, counts, error)
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._open_counts: dict[int, dict] = {}
        self._installed: list[tuple] = []
        self.scenario = -1

    def _wrapper(self, fn, name, counter):
        tracer = self

        def count(sid, args, result):
            try:
                counts = counter(args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                tracer.missing.add(f"counter of {fn.__module__}.{fn.__name__}")
                return
            tracer._add_counts(sid, counts)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._stack:
                count(tracer._stack[-1], args, result)
            return result

        def spanned(*args, **kwargs):
            sid = tracer.open(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(sid, error)
            if counter is not None:
                count(sid, args, result)
            return result

        return spanned if name is not None else counted

    def _add_counts(self, sid, counts):
        target = self._open_counts.get(sid)
        if target is None:  # span already closed: patch its tuple
            s = self.spans[sid]
            target = dict(s[6] or {})
            self.spans[sid] = (*s[:6], target, s[7])
        for k, v in counts.items():
            target[k] = target.get(k, 0) + v

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, self.scenario, name,
                           time.perf_counter_ns(), 0, None, None))
        self._open_counts[sid] = {}
        self._stack.append(sid)
        return sid

    def close(self, sid: int, error: str | None = None):
        end = time.perf_counter_ns()
        self._stack.pop()
        counts = self._open_counts.pop(sid) or None
        s = self.spans[sid]
        self.spans[sid] = (*s[:5], end, counts, error)

    def install(self):
        for mod_name, attr, name, counter in SPAN_WRAPS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(fn, name, counter))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "scenario", "name", "start_ns", "end_ns",
                     "counts", "error"), s))) + "\n")

    def aggregate(self, first: int) -> dict:
        """Self time (ns), call count, errors and counters per span name over
        spans[first:], which is one scenario when first is its root span.

        Self time is a span's duration minus the durations of its direct
        children; calls are nested and single-threaded, so children never
        overlap.
        """
        window = self.spans[first:]
        child_ns = defaultdict(int)
        for sid, parent, _, _, start, end, _, _ in window:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict = {}
        for sid, _, _, name, start, end, counts, error in window:
            e = out.setdefault(name, {"self_ns": 0, "calls": 0, "errors": 0,
                                      "counts": {}})
            e["self_ns"] += end - start - child_ns[sid]
            e["calls"] += 1
            e["errors"] += error is not None
            for k, v in (counts or {}).items():
                e["counts"][k] = e["counts"].get(k, 0) + v
        return out

def counters(per_name: dict) -> dict:
    """The deterministic counters of one scenario, for the repeat check."""
    return {name: (e["calls"], e["errors"], sorted(e["counts"].items()))
            for name, e in per_name.items()}


def _div(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(scenarios: list[dict]) -> dict[str, float]:
    """Per-layer metrics over traced scenarios (each an aggregate() result).

    Times are mean self time per scenario attempt; counts are means per call
    of the stage that produces them; ratios are totals over totals. A stage
    that never ran reads 0.
    """
    n = max(len(scenarios), 1)
    tot = defaultdict(lambda: {"self_ns": 0, "calls": 0, "errors": 0,
                               "counts": defaultdict(int)})
    for per_name in scenarios:
        for name, e in per_name.items():
            t = tot[name]
            t["self_ns"] += e["self_ns"]
            t["calls"] += e["calls"]
            t["errors"] += e["errors"]
            for k, v in e["counts"].items():
                t["counts"][k] += v

    def ms(name):
        return tot[name]["self_ns"] / n / 1e6

    def per_call(name, key):
        return _div(tot[name]["counts"][key], tot[name]["calls"])

    def ratio(name, num, den):
        return _div(tot[name]["counts"][num], tot[name]["counts"][den])

    def ns_per(name, key):
        return _div(tot[name]["self_ns"], tot[name]["counts"][key])

    return {
        "geometry.draw_cells_ms": ms("geometry.draw_cells"),
        "geometry.kept_ratio": ratio("geometry.draw_cells", "kept", "parents"),
        "channel.coverage_radius_ms": ms("channel.coverage_radius"),
        "channel.link_table_ms": ms("channel.link_table"),
        "channel.pairs": per_call("channel.link_table", "pairs"),
        "channel.link_table_ns_per_pair": ns_per("channel.link_table", "pairs"),
        "deployment.place_fleet_ms": ms("deployment.place_fleet"),
        "deployment.placement_attempts": per_call("deployment.place_fleet", "draws"),
        "deployment.placement_failures": tot["deployment.place_fleet"]["errors"] / n,
        "association.step1_ms": ms("association.step1"),
        "association.step2_ms": ms("association.step2"),
        "association.step3_ms": ms("association.step3"),
        "association.greedy_ops": per_call("association.greedy", "greedy_ops"),
        "association.admit_ratio": ratio("association.step1", "admitted", "cells"),
        "association.step3_trims": per_call("association.step3", "trims"),
        "association.check_feasible_ms": ms("association.check_feasible"),
        "exact.solve_ms": ms("exact.solve"),
        "exact.nodes": per_call("exact.solve", "nodes"),
        "exact.ns_per_node": ns_per("exact.solve", "nodes"),
        "harness.write_ms": ms("harness.write"),
        "harness.prepare_self_ms": ms("harness.prepare"),
    }


def largest_self(scenarios: list[dict], top: int = 3) -> list[tuple[str, float]]:
    """Span names with the largest total self time, with their share of all
    traced time."""
    tot = defaultdict(int)
    for per_name in scenarios:
        for name, e in per_name.items():
            tot[name] += e["self_ns"]
    whole = sum(tot.values()) or 1
    ranked = sorted(tot.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ns / whole) for name, ns in ranked]
