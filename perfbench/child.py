"""One benchmark operation in a fresh process.

    python3 child.py <spec json> <result json>

The spec names the ``ccpnet`` source tree and either a market to build
(``setup``) or a list of CLI argument vectors to run through
``ccpnet.cli.main`` (``calls``), optionally traced. The result file gets the
wall and CPU timings, exit codes, captured standard output and, when
traced, the spans.
"""

import contextlib
import io
import json
import os
import sys
import time


def _import_ccpnet(src: str):
    sys.path.insert(0, src)
    import ccpnet

    here = os.path.realpath(ccpnet.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ccpnet imported from {here}, not from {src}")
    return ccpnet


def _setup(spec: dict) -> dict:
    # CPU time of this process (all threads): the host takes its virtual
    # CPUs away in phases, which wall time would count
    t0 = time.process_time()
    ccpnet = _import_ccpnet(spec["src"])
    market = spec["setup"]
    if "ce" in market:
        ccpnet.builtin_credit_exposures(market["ce"])
    else:
        ccpnet.build_market(ccpnet.RunConfig(**market))
    return {"setup_s": time.process_time() - t0}


def _peak_rss_mb() -> float:
    # VmHWM is this program's own peak. getrusage's ru_maxrss is not: it also
    # counts the launching process's memory, inherited until exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB -> MiB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_calls(spec: dict) -> dict:
    _import_ccpnet(spec["src"])
    from ccpnet import cli, kernels

    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for argv in spec["calls"]:
        out = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code if isinstance(exc.code, int) else 2
        calls.append(
            {
                "code": code,
                "elapsed_s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - c0,
                "stdout": out.getvalue(),
            }
        )
    result = {
        "calls": calls,
        "backend": kernels.DEFAULT_BACKEND,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = _setup(spec) if "setup" in spec else _run_calls(spec)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
