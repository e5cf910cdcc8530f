#!/usr/bin/env python3
"""ccpnet benchmark of record.

    python3 perfbench/run.py --workload mc-gauss --seed 1 --seconds 20 --trace 0

Runs one workload (or ``--workload all``) from the root of a ccpnet source
tree. Every operation is a fresh process that calls ``ccpnet.cli.main``, the
user entry point, one operation at a time (a closed loop with one client).
Outputs are checked after each operation, outside the timed region. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_OPS = 2             # byte-identity needs at least two repetitions
OP_TIMEOUT_S = 150.0    # a hung operation is killed and counted as failed

# unit of each end-to-end metric, as declared in BENCHMARK.json. Times are
# CPU times: the host takes its virtual CPUs away in phases of seconds to
# minutes, which wall time counts and CPU time does not (README.md, Noise).
END_TO_END = {
    "setup_s": "s",
    "op_cpu_s": "s",
    "work_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

# the four published member thresholds, with the CLI flags that produce them
THRESHOLDS = (
    (("--rho", "0"), 461),
    (("--alpha", "credit=3", "--rho", "0"), 54),
    (("--alpha", "credit=3", "--rho", "0.1"), 17),
    (("--alpha", "credit=2", "--rho", "0.2"), 11),
)


@dataclass(frozen=True)
class Workload:
    """One fixed operation. ``calls`` are CLI argument vectors run in order
    in one fresh process; ``{out}`` and ``{seed}`` are filled in per run."""

    name: str
    calls: tuple[tuple[str, ...], ...]
    setup: dict                       # market built by the set-up timing
    work_call: int                    # call whose time gives work_per_cpu_s
    items: int                        # paths or cells that call produces
    item_name: str                    # "paths" or "cells"
    check: Callable[[dict, str, dict], list[str]]


def _scenarios_check(gaussian: bool):
    def check(result, out_dir, facts):
        return checks.exit_codes(result) or checks.check_scenarios(
            out_dir, gaussian, facts
        )

    return check


def _surface_check(n: int, thresholds: list[int]):
    def check(result, out_dir, facts):
        return checks.exit_codes(result) or checks.check_surface(
            result,
            thresholds,
            os.path.join(out_dir, "surface.csv"),
            (n, n),
            facts,
        )

    return check


def scenarios_workload(name, flags, setup, paths, threads, gaussian) -> Workload:
    argv = (
        "scenarios", *flags, "--paths", str(paths), "--seed", "{seed}",
        "--threads", str(threads), "--out", "{out}",
    )
    return Workload(
        name, (argv,), setup, 0, paths, "paths", _scenarios_check(gaussian)
    )


def surface_workload(name, n) -> Workload:
    calls = tuple(("threshold", "--ce", "bis-2010h1", *flags) for flags, _ in THRESHOLDS)
    calls += ((
        "surface", "--ce", "bis-2010h1", "--alpha-grid", f"1:3:{n}",
        "--rho-grid", f"0:0.5:{n}", "--out", "{out}/surface.csv",
    ),)
    return Workload(
        name, calls, {"ce": "bis-2010h1"}, len(calls) - 1, n * n, "cells",
        _surface_check(n, [expected for _, expected in THRESHOLDS]),
    )


# Sizes give one operation about 2 to 4 seconds of CPU time, so a run holds
# about ten and each operation averages the host's faster and slower
# seconds; path counts are multiples of the 4096-path chunk so both threads
# of mc-t3 get whole chunks. README.md says why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        scenarios_workload("mc-gauss", (), {}, 32_768, 1, gaussian=True),
        scenarios_workload(
            "mc-t3", ("--marginal", "credit=t3", "--rho", "0.1"),
            {"rho": 0.1, "marginals": {"credit": "t3"}}, 16_384, 2, gaussian=False,
        ),
        surface_workload("surface", 300),
    )
}


# ---------------------------------------------------------------------------
# Fresh-process runner
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    # the chunk pool (--threads) is the only parallelism a run may use
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _kill(pid: int) -> None:
    # os.kill rather than Popen.kill, which would poll (reap) the process
    # under the main thread's wait4
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(spec: dict, tag: str, work_dir: str) -> dict:
    """Run child.py with ``spec`` in a fresh process; returns its result (or
    None) with the process's wall time, CPU time and exit status."""
    result_path = os.path.join(work_dir, f"{tag}.json")
    err_path = os.path.join(work_dir, f"{tag}.err")
    spec = {**spec, "src": SRC}
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec), result_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=_child_env(), cwd=work_dir,
        )
        # a blocking wait4, so the exit is seen at once and the process's
        # own CPU time comes with it; a hung operation is killed and fails
        # on its exit status
        timer = threading.Timer(OP_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:  # interrupted while waiting
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    result = None
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    with open(err_path) as fh:
        stderr = fh.read()
    return {
        "result": result,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": proc.returncode,
        "stderr": stderr[-2000:],
    }


def _fill(argv, out_dir: str, seed: int) -> list[str]:
    return [a.replace("{out}", out_dir).replace("{seed}", str(seed)) for a in argv]


def run_op(w: Workload, seed: int, traced: bool, index: int, work_dir: str) -> dict:
    """One operation: spawn, then check its outputs (outside the timing)."""
    out_dir = os.path.join(work_dir, f"op{index}")
    os.makedirs(out_dir)
    spec = {"calls": [_fill(c, out_dir, seed) for c in w.calls], "trace": traced}
    op = spawn(spec, f"op{index}", work_dir)
    op["traced"] = traced
    op["facts"] = {}
    result = op["result"]
    if result is None:
        op["failures"] = [f"child exited {op['exit']}: {op['stderr'].strip()[-500:]}"]
    else:
        try:
            op["failures"] = w.check(result, out_dir, op["facts"])
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed op
            op["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """For ``seconds``, set up once and then run one operation, in turn
    (alternating untraced and traced operations when ``trace``)."""
    work_dir = os.path.join(WORK, f"{w.name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        # warm-up: the first import in a fresh checkout compiles bytecode
        spawn({"setup": w.setup}, "warmup", work_dir)
        setups, ops, rounds = [], [], []
        t_end = time.perf_counter() + seconds
        # Set-ups are spread over the run like the operations: the host's
        # speed shifts every few seconds, and a block of back-to-back
        # set-ups would sample only one of those phases. Another round
        # starts only if a typical one still fits.
        while len(ops) < MIN_OPS or time.perf_counter() + statistics.median(
            rounds
        ) <= t_end:
            t0 = time.perf_counter()
            s = spawn({"setup": w.setup}, f"setup{len(ops)}", work_dir)
            if s["result"] is None:
                raise RuntimeError(f"set-up failed: {s['stderr'].strip()[-500:]}")
            setups.append(s["result"]["setup_s"])
            traced = trace and len(ops) % 2 == 1
            op = run_op(w, seed, traced, len(ops), work_dir)
            ref = ops[0]["facts"].get("report_digest") if ops else None
            got = op["facts"].get("report_digest")
            if ref and got and got != ref and not op["failures"]:
                op["failures"] = ["output differs from the first repetition"]
            ops.append(op)
            rounds.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK)
    return {"setups": setups, "ops": ops}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _timings(w: Workload, run: dict, op_key: str, call_key: str) -> dict:
    """Median time of an operation's process (``op_key``) and work per
    second of its work call (``call_key``) over the untraced operations."""
    plain = [op for op in run["ops"] if not op["traced"]]
    good = [op for op in plain if not op["failures"]]
    values = {"op": statistics.median(op[op_key] for op in plain)}
    if good:
        busy = statistics.median(
            op["result"]["calls"][w.work_call][call_key] for op in good
        )
        values["work"] = w.items / busy
    return values


def end_to_end(w: Workload, run: dict) -> dict:
    cpu = _timings(w, run, "cpu_s", "cpu_s")
    values = {"setup_s": statistics.median(run["setups"]), "op_cpu_s": cpu["op"]}
    good = [op for op in run["ops"] if not op["traced"] and not op["failures"]]
    if good:
        # the run's peak: with two chunk threads an operation's peak depends
        # on how their temporaries overlap, so a median would flip between
        # the two cases
        values["peak_rss_mb"] = max(op["result"]["peak_rss_mb"] for op in good)
        values["work_per_cpu_s"] = cpu["work"]
    return values


def per_layer(run: dict) -> dict:
    traced = [op for op in run["ops"] if op["traced"] and op["result"]]
    per_op = [spans.layer_metrics(op["result"]["trace"]) for op in traced]
    values = {}
    for name in spans.METRICS:
        got = [m[name] for m in per_op if m[name] is not None]
        if got:
            values[name] = statistics.median(got)
    plain = [op["cpu_s"] for op in run["ops"] if not op["traced"]]
    traced_cpu = [op["cpu_s"] for op in run["ops"] if op["traced"]]
    if plain and traced_cpu:
        values["trace.overhead_frac"] = (
            statistics.median(traced_cpu) / statistics.median(plain) - 1
        )
    return values


def units() -> dict:
    out = dict(END_TO_END)
    out.update({name: unit for name, (unit, _) in spans.METRICS.items()})
    out["trace.overhead_frac"] = "ratio"
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ccpnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    # only the tree's own repository: a checkout without .git reads None
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(seed: int, runs: dict) -> dict:
    import numpy
    import scipy

    backends = sorted({
        op["result"]["backend"]
        for run in runs.values() for op in run["ops"] if op["result"]
    })
    return {
        "seed": seed,
        "kernels.DEFAULT_BACKEND": ",".join(backends),
        "CCPNET_FORCE_NUMPY": os.environ.get("CCPNET_FORCE_NUMPY"),
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "closed_loop_clients": 1,
    }


def report(runs: dict, workloads: dict, seed: int, trace: bool) -> dict:
    """Print the per-workload lines and return the result object."""
    unit = units()
    print("meta " + json.dumps(metadata(seed, runs), sort_keys=True))
    metrics, attempted, failed = {}, 0, 0
    for name, run in runs.items():
        w = workloads[name]
        ops = run["ops"]
        bad = [op for op in ops if op["failures"]]
        attempted += len(ops)
        failed += len(bad)
        e2e = end_to_end(w, run)
        layer = per_layer(run) if trace else {}
        n_plain = sum(not op["traced"] for op in ops)
        print(
            f"workload={name} ops={len(ops)} traced_ops={len(ops) - n_plain} "
            f"setup_reps={len(run['setups'])} fail_rate={len(bad) / len(ops):.6g}"
        )
        for op in bad:
            print(f"  failed: {'; '.join(op['failures'])}", file=sys.stderr)
        for key, value in {**e2e, **layer}.items():
            label = key.replace("work_", f"{w.item_name}_")
            print(f"  {label}={value!r} {unit[key]}")
        # wall-time counterparts, for reading: they carry the host's phases
        wall = _timings(w, run, "wall_s", "elapsed_s")
        print(f"  wall_s={wall['op']!r} s (wall time, not bounded)")
        if "work" in wall:
            print(f"  {w.item_name}_per_s={wall['work']!r} 1/s (wall time, not bounded)")
        z = [op["facts"]["max_abs_z"] for op in ops if "max_abs_z" in op["facts"]]
        if z:
            print(f"  check.max_abs_z={float(max(z))!r} (bound {checks.MAX_ABS_Z})")
        absent = [m for m in unit if trace and m not in END_TO_END and m not in layer]
        if absent:
            print(f"  absent={','.join(absent)}")
        chosen = layer if trace else e2e
        prefix = "" if len(runs) == 1 else f"{name}/"
        for key, value in chosen.items():
            metrics[prefix + key] = {"value": value, "unit": unit[key]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _check_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "ccpnet", "__init__.py")):
        raise SystemExit(f"perfbench: no ccpnet source tree at {SRC}")
    sys.path.insert(0, SRC)
    import ccpnet

    if not os.path.realpath(ccpnet.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: ccpnet imported from {ccpnet.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    _check_source()
    # turn a termination request into SystemExit so running children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    print(json.dumps(report(runs, WORKLOADS, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
