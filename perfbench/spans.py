"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from the spans.

Tracing only replaces module attributes: each traced function is wrapped once
and the wrapper is installed under every name a ``ccpnet`` module resolves it
by (``montecarlo.validate`` is ``market.validate`` imported by name, so both
are patched). Spans stay in memory and are written out when the operation
ends. A traced function that no longer exists is reported as missing, and
every metric that needs it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import tracemalloc

import numpy as np

# (layer module, function) pairs wrapped by the traced run
TRACED = (
    ("cli", "main"),
    ("dataio", "build_market"),
    ("dataio", "write_report"),
    ("dataio", "write_analytic_ee"),
    ("market", "validate"),
    ("market", "pair_scale_matrix"),
    ("analytic", "scenario_expected_exposures"),
    ("analytic", "threshold_surface"),
    ("analytic", "min_clearing_members"),
    ("analytic", "write_surface"),
    ("montecarlo", "simulate"),
    ("montecarlo", "student_t3_unit_ppf"),
    ("montecarlo", "freedman_diaconis_edges"),
    ("kernels", "scenario_exposures"),
)

# per-layer metric -> (unit, traced functions it needs)
METRICS = {
    "kernels.calls": ("count", ["kernels.scenario_exposures"]),
    "kernels.busy_s": ("s", ["kernels.scenario_exposures"]),
    "kernels.paths_per_busy_s": ("1/s", ["kernels.scenario_exposures"]),
    "kernels.computed_gb_per_s": ("GB/s", ["kernels.scenario_exposures"]),
    "kernels.concurrency": ("ratio", ["kernels.scenario_exposures"]),
    "montecarlo.simulate_s": ("s", ["montecarlo.simulate"]),
    "montecarlo.self_s": ("s", ["montecarlo.simulate"]),
    "montecarlo.t3_ppf_s": ("s", ["montecarlo.student_t3_unit_ppf"]),
    "montecarlo.t3_ppf_calls": ("count", ["montecarlo.student_t3_unit_ppf"]),
    "montecarlo.hist_edges_s": ("s", ["montecarlo.freedman_diaconis_edges"]),
    "montecarlo.finalize_s": (
        "s", ["montecarlo.simulate", "kernels.scenario_exposures"]
    ),
    "montecarlo.sample_buffer_mb": ("MB", ["montecarlo.simulate"]),
    "dataio.build_market_s": ("s", ["dataio.build_market"]),
    "dataio.write_report_s": ("s", ["dataio.write_report"]),
    "dataio.bytes_written": (
        "bytes", ["dataio.write_report", "dataio.write_analytic_ee"]
    ),
    "dataio.write_analytic_ee_s": ("s", ["dataio.write_analytic_ee"]),
    "analytic.scenario_ee_s": ("s", ["analytic.scenario_expected_exposures"]),
    "analytic.threshold_surface_s": ("s", ["analytic.threshold_surface"]),
    "analytic.min_clearing_members_s": ("s", ["analytic.min_clearing_members"]),
    "analytic.min_clearing_members_calls": (
        "count", ["analytic.min_clearing_members"]
    ),
    "analytic.write_surface_s": ("s", ["analytic.write_surface"]),
    "market.validate_s": ("s", ["market.validate"]),
    "market.pair_scale_matrix_calls": ("count", ["market.pair_scale_matrix"]),
    "cli.self_s": ("s", ["cli.main"]),
}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _kernel_info(args, kwargs, result):
    # computed bytes: every array argument read once plus the output written
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return {
        "paths": int(result.shape[0]),
        "bytes": int(sum(a.nbytes for a in arrays) + result.nbytes),
    }


# functions whose peak allocation (numpy arrays included) tracemalloc records
PEAK_MEMORY = {"montecarlo.simulate"}

# extra per-span facts, computed from a traced call's arguments and result
_INFO = {
    "kernels.scenario_exposures": _kernel_info,
    "dataio.write_report": lambda a, k, r: {"bytes": _file_bytes(r.values())},
    "dataio.write_analytic_ee": lambda a, k, r: {"bytes": _file_bytes([r])},
}


class Tracer:
    """Wraps the traced functions of an imported ``ccpnet`` and records one
    ``(name, start, end, thread, info)`` span per call."""

    def __init__(self, targets=TRACED):
        self.targets = targets
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        info = _INFO.get(name)
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if peak:
                    # allocations made during the call that were live at once
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            try:
                extra = info(args, kwargs, result) if info else None
            except Exception:  # noqa: BLE001 - tracing must not fail the call
                extra = None
            if peak:
                extra = {**(extra or {}), "peak_bytes": peak_bytes}
            spans.append((name, t0, t1, threading.get_ident(), extra))
            return result

        return traced

    def install(self) -> None:
        """Patch every module attribute that resolves to a traced function."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "ccpnet" or key.startswith("ccpnet."))
        ]
        for layer, attr in self.targets:
            name = f"{layer}.{attr}"
            module = sys.modules.get(f"ccpnet.{layer}")
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "missing": self.missing}


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by the (start, end) intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_time(parents, others) -> float:
    """Parent spans' duration minus the part of it their children cover.

    One operation runs at a time, so a child is any other span that lies
    within the parent's interval, whichever thread ran it.
    """
    total = 0.0
    for p in parents:
        inside = [(s[1], s[2]) for s in others if p[1] <= s[1] and s[2] <= p[2]]
        total += (p[2] - p[1]) - union_length(inside)
    return total


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced operation; None marks an absent one."""
    by: dict[str, list] = {}
    for span in dump["spans"]:
        by.setdefault(span[0], []).append(span)

    def get(name):
        return by.get(name, [])

    def busy(name):
        return sum((s[2] - s[1] for s in get(name)), 0.0)

    def info_sum(name, key, reduce=sum):
        # None when a refactor changed what the info hook reads
        extra = [s[4] for s in get(name)]
        if any(x is None or key not in x for x in extra):
            return None
        return reduce([x[key] for x in extra] or [0])

    def per(value, denom, scale=1.0):
        if value is None:
            return None
        return value / denom / scale if denom else 0.0

    kern = get("kernels.scenario_exposures")
    k_busy = busy("kernels.scenario_exposures")
    k_union = union_length([(s[1], s[2]) for s in kern])
    sims = get("montecarlo.simulate")
    not_sim = [s for s in dump["spans"] if s[0] != "montecarlo.simulate"]
    not_cli = [s for s in dump["spans"] if s[0] != "cli.main"]

    written = [
        info_sum("dataio.write_report", "bytes"),
        info_sum("dataio.write_analytic_ee", "bytes"),
    ]

    finalize = 0.0
    for sim in sims:
        ends = [s[2] for s in kern if sim[1] <= s[1] <= sim[2]]
        finalize += sim[2] - (max(ends) if ends else sim[1])

    values = {
        "kernels.calls": len(kern),
        "kernels.busy_s": k_busy,
        "kernels.paths_per_busy_s": per(
            info_sum("kernels.scenario_exposures", "paths"), k_busy
        ),
        "kernels.computed_gb_per_s": per(
            info_sum("kernels.scenario_exposures", "bytes"), k_busy, 1e9
        ),
        "kernels.concurrency": k_busy / k_union if k_union else 0.0,
        "montecarlo.simulate_s": busy("montecarlo.simulate"),
        "montecarlo.self_s": self_time(sims, not_sim),
        "montecarlo.t3_ppf_s": busy("montecarlo.student_t3_unit_ppf"),
        "montecarlo.t3_ppf_calls": len(get("montecarlo.student_t3_unit_ppf")),
        "montecarlo.hist_edges_s": busy("montecarlo.freedman_diaconis_edges"),
        "montecarlo.finalize_s": finalize,
        "montecarlo.sample_buffer_mb": per(
            info_sum("montecarlo.simulate", "peak_bytes", max), 1e6
        ),
        "dataio.build_market_s": busy("dataio.build_market"),
        "dataio.write_report_s": busy("dataio.write_report"),
        "dataio.bytes_written": None if None in written else sum(written),
        "dataio.write_analytic_ee_s": busy("dataio.write_analytic_ee"),
        "analytic.scenario_ee_s": busy("analytic.scenario_expected_exposures"),
        "analytic.threshold_surface_s": busy("analytic.threshold_surface"),
        "analytic.min_clearing_members_s": busy("analytic.min_clearing_members"),
        "analytic.min_clearing_members_calls": len(
            get("analytic.min_clearing_members")
        ),
        "analytic.write_surface_s": busy("analytic.write_surface"),
        "market.validate_s": busy("market.validate"),
        "market.pair_scale_matrix_calls": len(get("market.pair_scale_matrix")),
        "cli.self_s": self_time(get("cli.main"), not_cli),
    }
    missing = set(dump["missing"])
    for name, (_, needs) in METRICS.items():
        if missing.intersection(needs):
            values[name] = None
    return values
