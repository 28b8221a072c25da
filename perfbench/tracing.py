"""Spans around the calls into greenant's layers, recorded from outside.

`patched(tracer)` replaces module attributes of greenant with timing
wrappers at the places where callers look them up, and restores the
originals on exit. The program itself carries no tracing code, so the
untraced runs measure it unchanged.

A span is (name, start, end, parent, info). Spans stay in memory and are
written out once, after the run. `label_normal` runs ~18k times per
paired snapshot, so it is recorded as a leaf: a call count and summed
time per parent span instead of one span per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

#: Layers, named after greenant's modules. A span's layer is the part of
#: its name before the first dot.
LAYERS = ("cli", "scenario", "seeds", "propagation", "powerctl", "simulate", "metrics")


def _gain_info(args, kwargs, gm) -> dict:
    # computed from array shapes, not measured traffic
    return {"links": int(gm.ul_gain_db.size + gm.dl_rx_dbm.size),
            "bytes": int(gm.ul_gain_db.nbytes + gm.dl_rx_dbm.nbytes + gm.noise_dbm.nbytes)}


def _solve_info(args, kwargs, result) -> dict:
    return {"iters": int(result.iterations), "converged": bool(result.converged),
            "resolve": kwargs.get("n_iters") is not None}


#: Marks a target recorded as a leaf (count and summed time) instead of spans.
LEAF = "leaf"

#: (modules where callers look the attribute up, attribute, span name, info
#: hook or LEAF). An attribute missing from a module is skipped, so the
#: harness survives a refactor that moves it; its time then counts toward
#: the caller's layer.
TARGETS = (
    (("greenant.cli",), "main", "cli.main", None),
    (("greenant.cli",), "load_scenario_file", "scenario.load", None),
    (("greenant.cli",), "run_campaign", "simulate.campaign", None),
    (("greenant.cli",), "run_paired_campaign", "simulate.campaign", None),
    (("greenant.simulate",), "run_snapshot", "simulate.snapshot", None),
    (("greenant.simulate",), "run_paired_snapshot", "simulate.snapshot", None),
    (("greenant.scenario", "greenant.simulate"), "drop_mobiles", "scenario.drop", None),
    (("greenant.simulate",), "build_gain_matrix", "propagation.gain", _gain_info),
    (("greenant.simulate",), "associate", "powerctl.assoc", None),
    (("greenant.simulate",), "solve_power_control", "powerctl.solve", _solve_info),
    (("greenant.cli",), "gather_tx_powers", "metrics.filter", None),
    (("greenant.cli",), "compare_runs", "metrics.report", None),
    (("greenant.cli",), "tx_power_cdf", "metrics.report", None),
    (("greenant.cli",), "emit_report", "metrics.report", None),
    (("greenant.cli",), "write_cdf_csv", "metrics.report", None),
    (("greenant.cli",), "write_summary_csv", "metrics.report", None),
    (("greenant.propagation",), "label_normal", "seeds.label_normal", LEAF),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []                 # [name, start, end, parent, info]
        self.leaves: dict[tuple[int, str], list] = {}   # (parent, name) -> [calls, seconds]
        self._stack = [-1]

    def span(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc = leaves.get((stack[-1], name))
                if acc is None:
                    leaves[(stack[-1], name)] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()]},
                      fh)


def _present_targets():
    for modules, attr, name, info in TARGETS:
        for mod_name in modules:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                yield mod, attr, name, info


def wrapped_attributes() -> list[tuple[object, str]]:
    """Every (module, attribute) pair that `patched` replaces."""
    return [(mod, attr) for mod, attr, _, _ in _present_targets()]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route greenant's layer calls through `tracer`; restore them on exit."""
    saved = []
    try:
        for mod, attr, name, info in _present_targets():
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.leaf(name, original) if info is LEAF
                    else tracer.span(name, original, info))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(tracer: Tracer) -> dict[str, float]:
    """Seconds per layer not covered by a child span or leaf of that span."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (parent, name), (_, seconds) in tracer.leaves.items():
        out[name.split(".")[0]] += seconds
        if parent >= 0:
            child[parent] += seconds
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        out[name.split(".")[0]] += end - start - child[i]
    return out


def layer_metrics(tracer: Tracer, calls: int, snapshots: int) -> dict[str, float]:
    """Per-layer figures from the spans of `calls` campaign calls that
    together ran `snapshots` snapshots (pairs, for compare).

    `*_ms` and counts are per snapshot, except scenario.load_ms and
    metrics.report_ms, which are per campaign call.
    """
    by_name: dict[str, list[list]] = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[0], []).append(rec)

    def total_s(name: str) -> float:
        return sum(end - start for _, start, end, _, _ in by_name.get(name, ()))

    solves = [rec[4] for rec in by_name.get("powerctl.solve", ())]
    free = [s for s in solves if not s["resolve"]]
    gains = [rec[4] for rec in by_name.get("propagation.gain", ())]
    snaps_ms = [1e3 * (end - start) for _, start, end, _, _ in by_name.get("simulate.snapshot", ())]
    label_calls = sum(c for (_, name), (c, _) in tracer.leaves.items()
                      if name == "seeds.label_normal")
    total_iters = sum(s["iters"] for s in solves)
    per_snap = 1.0 / snapshots
    m = {
        "seeds.label_normal_calls": label_calls * per_snap,
        "propagation.gain_ms": 1e3 * total_s("propagation.gain") * per_snap,
        "propagation.gain_calls": len(gains) * per_snap,
        "propagation.links": sum(g["links"] for g in gains) * per_snap,
        "propagation.table_bytes": sum(g["bytes"] for g in gains) * per_snap,
        "scenario.load_ms": 1e3 * total_s("scenario.load") / calls,
        "scenario.drop_ms": 1e3 * total_s("scenario.drop") * per_snap,
        "scenario.drop_calls": len(by_name.get("scenario.drop", ())) * per_snap,
        "powerctl.assoc_ms": 1e3 * total_s("powerctl.assoc") * per_snap,
        "powerctl.solve_ms": 1e3 * total_s("powerctl.solve") * per_snap,
        "powerctl.resolve_calls": (len(solves) - len(free)) * per_snap,
        "powerctl.us_per_iter": 1e6 * total_s("powerctl.solve") / max(total_iters, 1),
        "powerctl.iters_mean": statistics.fmean(s["iters"] for s in free) if free else 0.0,
        "powerctl.iters_max": max((s["iters"] for s in free), default=0),
        "powerctl.nonconverged": sum(not s["converged"] for s in free) * per_snap,
        "simulate.snapshot_ms_p50": statistics.median(snaps_ms) if snaps_ms else 0.0,
        "simulate.snapshot_ms_p90": (statistics.quantiles(snaps_ms, n=10)[-1]
                                     if len(snaps_ms) > 1 else sum(snaps_ms)),
        "simulate.snapshot_samples": len(snaps_ms),
        "metrics.report_ms": 1e3 * (total_s("metrics.filter") + total_s("metrics.report")) / calls,
    }
    for layer, seconds in self_times(tracer).items():
        m[f"{layer}.self_ms"] = 1e3 * seconds * per_snap
    return m
