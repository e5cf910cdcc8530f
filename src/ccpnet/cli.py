"""Command-line front end: threshold analysis, threshold surfaces, scenario
simulation and report re-rendering.

Standard output stays machine-parseable (key=value lines or CSV); progress
goes to standard error. Exit codes: 0 success, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

# montecarlo, and SciPy with it, is imported here rather than on first use
# as ``import ccpnet`` does, for two reasons: a caller that imports this
# module and then times a command times no import, and a tracer that wraps
# the functions of already-imported ccpnet modules finds the engine's
from . import analytic, dataio, montecarlo
from .market import ConfigError, HomogeneousSpec, validate

# equal:<K> builds K-long tuples, so K is bounded before they exist
_MAX_EQUAL_CLASSES = 10**6
# surface grids are bounded before their arrays or the surface exist
_MAX_GRID_STEPS = 10**6
_MAX_SURFACE_CELLS = 10**8


def _parse_kv(pairs, what, cast=float):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"expected {what} as name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = cast(value)
        except ValueError:
            raise ConfigError(f"bad value in {what} {item!r}") from None
    return out


def _parse_grid(text: str) -> tuple[float, float, int]:
    """``lo:hi:steps`` as ``np.linspace`` arguments, checked."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be lo:hi:steps, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if not 1 <= n <= _MAX_GRID_STEPS:
        raise ConfigError(f"grid needs 1 <= steps <= {_MAX_GRID_STEPS}, got {text!r}")
    return lo, hi, n


def _load_ce_file(path: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Two-column class,exposure text file (header optional)."""
    names, values = [], []
    with dataio.open_input(path, "credit-exposure file") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.lower().replace(" ", "") == "class,exposure":
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected class,exposure")
            try:
                values.append(float(parts[1]))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-numeric exposure") from None
            names.append(parts[0])
    if not names:
        raise ConfigError(f"{path}: no exposure rows")
    return tuple(names), tuple(values)


def _homogeneous_spec(args, rho: float) -> HomogeneousSpec:
    source = args.ce
    if source.startswith("equal:"):
        try:
            k = int(source.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"equal:<K> needs an integer, got {source!r}") from None
        if not 1 <= k <= _MAX_EQUAL_CLASSES:
            raise ConfigError(f"equal:<K> needs 1 <= K <= {_MAX_EQUAL_CLASSES}")
        spec = HomogeneousSpec(
            credit_exposures=(1.0,) * k,
            alphas=(1.0,) * k,
            rho=rho,
            cleared_class=k - 1,
            class_names=tuple(f"class{i + 1}" for i in range(k)),
        )
    elif os.path.isdir(source):
        raise ConfigError(f"credit-exposure file is a directory: {source!r}")
    elif os.path.isfile(source):
        names, values = _load_ce_file(source)
        spec = HomogeneousSpec(
            credit_exposures=values,
            alphas=(1.0,) * len(values),
            rho=rho,
            cleared_class=len(values) - 1,
            class_names=names,
        )
    else:
        spec = dataclasses.replace(dataio.builtin_credit_exposures(source), rho=rho)
    alphas = list(spec.alphas)
    for name, value in _parse_kv(args.alpha, "--alpha").items():
        if name not in spec.class_names:
            raise ConfigError(
                f"unknown class {name!r}; available: {list(spec.class_names)}"
            )
        alphas[spec.class_names.index(name)] = value
    cleared = spec.cleared_class
    if args.cleared is not None:
        if args.cleared not in spec.class_names:
            raise ConfigError(f"unknown cleared class {args.cleared!r}")
        cleared = spec.class_names.index(args.cleared)
    return dataclasses.replace(spec, alphas=tuple(alphas), cleared_class=cleared)


def cmd_threshold(args) -> int:
    spec = _homogeneous_spec(args, args.rho)
    result = analytic.min_clearing_members(spec, w=args.w)
    n = result.n_star
    print(f"n_star={n}")
    for m in sorted({max(2, n - 1), n, n + 1}):
        print(
            f"N={m} bilateral_ee={result.bilateral_ee(m):.10g} "
            f"ccp_ee={result.ccp_ee(m):.10g}"
        )
    return 0


def cmd_surface(args) -> int:
    dataio.check_output_path(args.out, is_dir=False)
    # threshold_surface sets rho, and the cleared class's alpha, per cell
    # from the grids
    spec = _homogeneous_spec(args, 0.0)
    cleared = spec.class_names[spec.cleared_class]
    if cleared in _parse_kv(args.alpha, "--alpha"):
        raise ConfigError(
            f"--alpha {cleared}= would be ignored: "
            f"--alpha-grid sets the alpha of the cleared class {cleared!r}"
        )
    alpha_args, rho_args = _parse_grid(args.alpha_grid), _parse_grid(args.rho_grid)
    if alpha_args[2] * rho_args[2] > _MAX_SURFACE_CELLS:
        raise ConfigError(f"surface needs at most {_MAX_SURFACE_CELLS} cells")
    alpha_grid, rho_grid = np.linspace(*alpha_args), np.linspace(*rho_args)
    surface = analytic.threshold_surface(spec, alpha_grid, rho_grid, w=args.w)
    analytic.write_surface(args.out, alpha_grid, rho_grid, surface)
    print(f"surface={args.out} cells={surface.size}")
    return 0


def cmd_scenarios(args) -> int:
    rc = dataio.load_run_config(args.config) if args.config else dataio.RunConfig()
    if args.notionals is not None:
        rc.notionals = args.notionals
    if args.rho is not None:
        rc.rho = args.rho
    rc.betas.update(_parse_kv(args.beta, "--beta"))
    rc.w.update(_parse_kv(args.w, "--w"))
    rc.marginals.update(_parse_kv(args.marginal, "--marginal", cast=str))
    if args.paths is not None:
        rc.paths = args.paths
    if args.seed is not None:
        rc.seed = args.seed
    if args.mirror is not None:
        rc.mirror_dealers = args.mirror
    if args.out is not None:
        rc.out_dir = args.out

    dataio.check_run_args(rc.paths, rc.seed, args.threads, args.level)
    dataio.check_output_path(rc.out_dir, is_dir=True)
    config, scenarios, assumptions = dataio.build_market(rc)
    validate(config).raise_if_invalid()
    montecarlo.check_tail_buffer(len(scenarios) * config.n_dealers, rc.paths, args.level)
    print(
        f"running {len(scenarios)} scenarios, paths={rc.paths}, seed={rc.seed}",
        file=sys.stderr,
    )
    dump_path = os.path.join(rc.out_dir, "paths.npy")
    dumping = contextlib.nullcontext()
    if args.dump_paths:
        dumping = dataio.open_path_dump(
            dump_path, rc.paths, len(scenarios), config.n_dealers
        )
    with dumping as dump:
        report = montecarlo.simulate(
            config,
            scenarios,
            rc.paths,
            rc.seed,
            threads=args.threads,
            level=args.level,
            collect_histograms=args.histograms,
            dump=dump,
            assumptions=assumptions,
        )
    files = dataio.write_report(report, rc.out_dir)
    if not config.has_t_marginals():
        # the closed forms exist for all-Gaussian runs; this file depends on
        # the market only, so --paths can never change it
        files["analytic_ee"] = dataio.write_analytic_ee(config, scenarios, rc.out_dir)
    if args.dump_paths:
        files["paths"] = dump_path
    for s, name in enumerate(report.scenario_names):
        line = (
            f"scenario={name} total_ee={report.total_ee[s]:.6g} "
            f"mean_max={report.mean_max[s]:.6g}"
        )
        if report.base_index is not None:
            line += (
                f" total_ee_ratio={report.total_ee_ratio[s]:.6g}"
                f" mean_max_ratio={report.mean_max_ratio[s]:.6g}"
            )
        print(line)
    print(f"low_confidence_es_cells={int(report.low_confidence.sum())}")
    for name, path in sorted(files.items()):
        print(f"file_{name}={path}")
    return 0


def cmd_report(args) -> int:
    dataio.check_output_path(args.out, is_dir=True)
    report = dataio.load_report(args.dump)
    files = dataio.write_report(report, args.out)
    for name, path in sorted(files.items()):
        print(f"file_{name}={path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccpnet",
        description="Bilateral vs multilateral netting analysis for OTC dealer markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ce_help = f"builtin name, equal:<K> (K <= {_MAX_EQUAL_CLASSES}), or class,exposure CSV"

    p = sub.add_parser(
        "threshold", help="minimum clearing members for a homogeneous market"
    )
    p.add_argument("--ce", default="bis-2010h1", help=ce_help)
    p.add_argument("--alpha", action="append", metavar="CLASS=V")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--cleared", default=None, metavar="CLASS")
    p.add_argument("--w", type=float, default=1.0, help="clearing fraction")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("surface", help="threshold over an (alpha, rho) grid")
    p.add_argument("--ce", default="bis-2010h1", help=ce_help)
    p.add_argument("--alpha", action="append", metavar="CLASS=V")
    p.add_argument("--cleared", default=None, metavar="CLASS")
    p.add_argument("--w", type=float, default=1.0)
    grid_help = f"N <= {_MAX_GRID_STEPS}, at most {_MAX_SURFACE_CELLS} cells in all"
    p.add_argument("--alpha-grid", required=True, metavar="LO:HI:N", help=grid_help)
    p.add_argument("--rho-grid", required=True, metavar="LO:HI:N", help=grid_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("scenarios", help="simulate the five clearing scenarios")
    p.add_argument("--config", default=None, help="run-config file")
    p.add_argument("--notionals", default=None, help="builtin name or CSV path")
    p.add_argument("--beta", action="append", metavar="CLASS=V")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--w", action="append", metavar="CLASS=V")
    p.add_argument("--marginal", action="append", metavar="CLASS=gaussian|t3")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--threads", type=int, default=1, help=f"chunk threads, 1 to {dataio.MAX_THREADS}"
    )
    p.add_argument("--level", type=float, default=0.99, help="VaR/ES level")
    p.add_argument("--out", default=None)
    p.add_argument("--mirror", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument(
        "--histograms", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--dump-paths", action="store_true")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("report", help="re-render tables from a report dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
