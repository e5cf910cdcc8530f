#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes: the runner, the trace, the
checks, and an operation made to fail.

    python3 perfbench/selftest.py

Run it from the root of a ccpnet source tree; it takes under a minute and
exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys

import run
import spans

T3 = ("--marginal", "credit=t3", "--rho", "0.1")


def _run(w, trace=True):
    # seconds=0: exactly the minimum of two operations, the second traced
    result = run.run_workload(w, seed=5, seconds=0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        summary = run.report({w.name: result}, {w.name: w}, seed=5, trace=trace)
    return result, summary


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_workloads_pass_and_trace() -> None:
    # each workload with counts its traced run must read exactly
    cases = [
        (run.scenarios_workload("tiny-gauss", (), {}, 2_000, 1, gaussian=True), {
            "kernels.calls": 1, "montecarlo.t3_ppf_calls": 0,
            "market.pair_scale_matrix_calls": 100,
        }),
        (run.scenarios_workload(
            "tiny-t3", T3, {"rho": 0.1, "marginals": {"credit": "t3"}}, 2_000, 2,
            gaussian=False,
        ), {"kernels.calls": 1, "montecarlo.t3_ppf_calls": 1}),
        (run.surface_workload("tiny-surface", 6), {
            "analytic.min_clearing_members_calls": 4 + 6 * 6, "kernels.calls": 0,
        }),
    ]
    for w, counts in cases:
        result, summary = _run(w)
        failures = [f for op in result["ops"] for f in op["failures"]]
        _require(not failures, f"{w.name}: {failures}")
        _require(summary["correct"] and summary["failed"] == 0, f"{w.name}: {summary}")
        metrics = summary["metrics"]
        expected = set(spans.METRICS) | {"trace.overhead_frac"}
        _require(set(metrics) == expected, f"{w.name}: metrics {sorted(metrics)}")
        for name, value in counts.items():
            _require(metrics[name]["value"] == value, f"{w.name}: {name}={metrics[name]}")
        if w.name != "tiny-surface":
            _require(metrics["montecarlo.simulate_s"]["value"] > 0, w.name)
            # measured peak covers at least the float32 (5, 2000, 20) sample buffer
            _require(
                metrics["montecarlo.sample_buffer_mb"]["value"] >= 4 * 5 * 2_000 * 20 / 1e6,
                f"{w.name}: {metrics['montecarlo.sample_buffer_mb']}",
            )
            _require(
                metrics["montecarlo.self_s"]["value"] < metrics["montecarlo.simulate_s"]["value"],
                f"{w.name}: self time not below simulate time",
            )
        e2e = run.end_to_end(w, result)
        _require(
            set(e2e) == set(run.END_TO_END) and all(v > 0 for v in e2e.values()),
            f"{w.name}: end-to-end {e2e}",
        )


def test_failed_operations_raise_fail_rate() -> None:
    broken = [
        # below the 10^3-path floor: the CLI exits 2
        run.scenarios_workload("bad-exit", (), {}, 10, 1, gaussian=True),
        # the CLI succeeds but the check expects a wrong threshold
        dataclasses.replace(
            run.surface_workload("bad-check", 6),
            check=run._surface_check(6, [460, 54, 17, 11]),
        ),
    ]
    for w in broken:
        result, summary = _run(w, trace=False)
        _require(
            summary["failed"] == summary["attempted"] == 2 and not summary["correct"],
            f"{w.name}: {summary}",
        )


def test_missing_function_is_absent() -> None:
    sys.path.insert(0, run.SRC)
    import ccpnet.cli  # noqa: F401 - the tracer patches the imported package

    tracer = spans.Tracer(spans.TRACED + (("montecarlo", "no_such_function"),))
    tracer.install()
    tracer.uninstall()
    _require(tracer.missing == ["montecarlo.no_such_function"], str(tracer.missing))
    metrics = spans.layer_metrics(
        {"spans": [], "missing": ["montecarlo.freedman_diaconis_edges"]}
    )
    _require(metrics["montecarlo.hist_edges_s"] is None, "absent metric reported")
    _require(metrics["kernels.calls"] == 0, "unrelated metric lost")
    # a kernel whose result no longer has the expected shape: span kept, rate absent
    metrics = spans.layer_metrics(
        {"spans": [["kernels.scenario_exposures", 0.0, 1.0, 1, None]], "missing": []}
    )
    _require(metrics["kernels.calls"] == 1, "span without info lost")
    _require(metrics["kernels.paths_per_busy_s"] is None, "rate without info reported")


def test_self_time() -> None:
    # parent [0, 10] with children [1, 3] and [2, 5] on two threads, [7, 8]
    parent = ("p", 0.0, 10.0, 1, None)
    kids = [("k", 1.0, 3.0, 1, None), ("k", 2.0, 5.0, 2, None), ("k", 7.0, 8.0, 1, None)]
    _require(spans.union_length([(k[1], k[2]) for k in kids]) == 5.0, "union")
    _require(spans.self_time([parent], kids) == 5.0, "self time")


def main() -> int:
    run._check_source()
    tests = [
        test_self_time,
        test_missing_function_is_absent,
        test_workloads_pass_and_trace,
        test_failed_operations_raise_fail_rate,
    ]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"selftest: {len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
