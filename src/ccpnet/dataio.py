"""Ingestion of dealer-notional tables and market parameters; report emission.

Two public OCC dealer tables and the six-class gross-credit-exposure vector
ship as built-in named datasets so the default run needs no external files.
Report files carry their run metadata (seed, paths, assumptions) in comment
headers and never a timestamp, so identical runs write identical bytes.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .market import (
    RESERVED_DEALER_NAMES,
    AssetClass,
    ConfigError,
    Dealer,
    HomogeneousSpec,
    Marginal,
    MarketConfig,
    joint_ccp,
    no_ccp,
    single_ccp,
    two_ccps,
)
from .montecarlo import RiskReport

# ---------------------------------------------------------------------------
# Built-in datasets
# ---------------------------------------------------------------------------

NOTIONAL_CLASSES = ("forwards", "options", "swaps", "credit")

# 10 largest US derivatives dealers, gross OTC notionals in billions USD,
# March 31 2009 (Office of the Comptroller of the Currency)
_OCC_2009Q1 = (
    ("JP Morgan Chase", (8422.0, 10633.0, 51221.0, 7495.0)),
    ("Bank of America", (9132.0, 6908.0, 50702.0, 5649.0)),
    ("Goldman Sachs", (1631.0, 6754.0, 30958.0, 6601.0)),
    ("Morgan Stanley", (1127.0, 3530.0, 26112.0, 6307.0)),
    ("Citigroup", (4743.0, 5868.0, 15199.0, 2950.0)),
    ("Wells Fargo", (1217.0, 543.0, 2748.0, 286.0)),
    ("HSBC", (595.0, 185.0, 1565.0, 913.0)),
    ("Taunus", (667.0, 20.0, 162.0, 144.0)),
    ("Bank of New York", (371.0, 304.0, 404.0, 1.0)),
    ("State Street", (571.0, 45.0, 24.0, 0.0)),
)

# Same dealers as of December 31 2010
_OCC_2010Q4 = (
    ("JP Morgan Chase", (11807.0, 8899.0, 49332.0, 5472.0)),
    ("Bank of America", (10287.0, 5848.0, 43482.0, 4367.0)),
    ("Citigroup", (6895.0, 7071.0, 28639.0, 2546.0)),
    ("Goldman Sachs", (3805.0, 8568.0, 27392.0, 4233.0)),
    ("Morgan Stanley", (5459.0, 3855.0, 27162.0, 4648.0)),
    ("Wells Fargo", (1081.0, 463.0, 1806.0, 93.0)),
    ("HSBC", (758.0, 127.0, 1901.0, 700.0)),
    ("Bank of New York", (420.0, 367.0, 555.0, 1.0)),
    ("Taunus", (848.0, 21.0, 199.0, 33.0)),
    ("State Street", (599.0, 76.0, 79.0, 0.0)),
)

# Gross market values by asset class, billions USD, June 2010 (BIS)
CE_CLASSES = ("commodity", "equity", "fx", "rates", "credit", "other")
_BIS_2010H1 = (457.0, 706.0, 2524.0, 17533.0, 1666.0, 1788.0)

_NOTIONAL_BUILTINS = {"occ-2009q1": _OCC_2009Q1, "occ-2010q4": _OCC_2010Q4}

#: risk per dollar notional: one estimate for CDS, one for everything else
DEFAULT_BETA_CDS = 0.0098
DEFAULT_BETA_OTHER = 0.0039


@dataclass(frozen=True)
class NotionalTable:
    """Per-dealer, per-class gross notionals in billions USD."""

    rows: tuple[tuple[str, tuple[float, ...]], ...]
    classes: tuple[str, ...]
    source: str

    def __post_init__(self):
        object.__setattr__(
            self,
            "rows",
            tuple((name, tuple(float(v) for v in vals)) for name, vals in self.rows),
        )
        object.__setattr__(self, "classes", tuple(self.classes))


def builtin_notionals(name: str) -> NotionalTable:
    """One of the shipped dealer tables: 'occ-2009q1' or 'occ-2010q4'."""
    try:
        rows = _NOTIONAL_BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin notional table {name!r}; "
            f"available: {sorted(_NOTIONAL_BUILTINS)}"
        ) from None
    return NotionalTable(rows=rows, classes=NOTIONAL_CLASSES, source=name)


def builtin_credit_exposures(name: str = "bis-2010h1") -> HomogeneousSpec:
    """The six-class gross-credit-exposure vector as a threshold-model spec.

    The cleared class defaults to CDS with every riskiness multiplier at 1;
    that choice is documented inference (see the analytic module docs).
    """
    if name != "bis-2010h1":
        raise ConfigError(f"unknown builtin credit-exposure set {name!r}")
    return HomogeneousSpec(
        credit_exposures=_BIS_2010H1,
        alphas=(1.0,) * len(_BIS_2010H1),
        rho=0.0,
        cleared_class=CE_CLASSES.index("credit"),
        class_names=CE_CLASSES,
    )


# ---------------------------------------------------------------------------
# Notional CSV ingestion
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def open_input(path: str, what: str, newline: str | None = None):
    """Open an input text file for reading; bytes that do not decode are a
    configuration error naming the file, wherever the reading hits them."""
    try:
        with open(path, newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not {exc.encoding} text: {path!r}") from None


def load_notionals(path_or_name: str) -> NotionalTable:
    """Load a notional table from a builtin name or a CSV file.

    CSV schema: header ``dealer,<class names...>`` with notionals in billions.
    Column order is free; classes are matched by header name. Any malformed
    or negative entry aborts the parse with its line number.
    """
    if path_or_name in _NOTIONAL_BUILTINS:
        return builtin_notionals(path_or_name)
    if not os.path.isfile(path_or_name):
        raise ConfigError(f"notional table not found: {path_or_name!r}")
    with open_input(path_or_name, "notional table", newline="") as fh:
        return _parse_notionals(fh, source=os.path.basename(path_or_name))


def _parse_notionals(fh, source: str) -> NotionalTable:
    reader = csv.reader(line for line in fh if line.strip())
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{source}: empty notional file") from None
    header = [h.strip().lower() for h in header]
    if not header or header[0] != "dealer":
        raise ConfigError(f"{source}: first header column must be 'dealer'")
    classes = tuple(header[1:])
    if not classes:
        raise ConfigError(f"{source}: no asset-class columns")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ConfigError(
                f"{source}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        name = row[0].strip()
        try:
            values = tuple(float(v) for v in row[1:])
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: non-numeric notional") from None
        if any(v < 0 for v in values):
            raise ConfigError(f"{source}:{lineno}: negative notional rejected")
        rows.append((name, values))
    if not rows:
        raise ConfigError(f"{source}: no dealer rows")
    return NotionalTable(rows=tuple(rows), classes=classes, source=source)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_SCENARIO_IDS = ("no_ccp", "irs_ccp", "cds_ccp", "two_ccps", "joint_ccp")


def _default_w() -> dict:
    return {"swaps": 0.90, "credit": 0.85}


@dataclass
class RunConfig:
    """Everything one scenario run needs; defaults reproduce the published
    setup (occ-2009q1 notionals, mirrored dealers, 90%/85% clearing,
    Gaussian marginals, 10^6 paths)."""

    notionals: str = "occ-2009q1"
    betas: dict = field(default_factory=dict)       # class -> beta override
    rho: float = 0.0
    marginals: dict = field(default_factory=dict)   # class -> 'gaussian' | 't3'
    w: dict = field(default_factory=_default_w)     # class -> shared fraction
    scenario_w: dict = field(default_factory=dict)  # (scenario id, class) -> w
    paths: int = 1_000_000
    seed: int = 1
    mirror_dealers: bool = True
    out_dir: str = "out"

    def beta_for(self, cls: str) -> float:
        if cls in self.betas:
            return self.betas[cls]
        return DEFAULT_BETA_CDS if cls == "credit" else DEFAULT_BETA_OTHER

    def w_for(self, scenario_id: str, cls: str) -> float:
        return self.scenario_w.get((scenario_id, cls), self.w.get(cls, 0.0))


def parse_run_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse the flat ``key = value`` config format. Unknown keys are errors."""
    rc = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            _apply_config_key(rc, key, value, base_dir)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from None
    if rc.notionals not in _NOTIONAL_BUILTINS and not os.path.isfile(rc.notionals):
        raise ConfigError(f"notional table not found: {rc.notionals!r}")
    return rc


def _apply_config_key(rc: RunConfig, key: str, value: str, base_dir: str) -> None:
    if key == "notionals":
        rc.notionals = (
            value
            if value in _NOTIONAL_BUILTINS or os.path.isabs(value)
            else os.path.join(base_dir, value)
        )
    elif key == "rho":
        rc.rho = float(value)
    elif key == "paths":
        rc.paths = int(value)
    elif key == "seed":
        rc.seed = int(value)
    elif key == "mirror_dealers":
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"mirror_dealers must be true or false, got {value!r}")
        rc.mirror_dealers = value.lower() == "true"
    elif key == "out_dir":
        rc.out_dir = value
    elif key.startswith("beta."):
        rc.betas[key[len("beta."):]] = float(value)
    elif key.startswith("marginal."):
        if value not in ("gaussian", "t3"):
            raise ConfigError(f"marginal must be gaussian or t3, got {value!r}")
        rc.marginals[key[len("marginal."):]] = value
    elif key.startswith("scenario."):
        parts = key.split(".")
        if len(parts) != 4 or parts[2] != "w":
            raise ConfigError(f"unknown config key {key!r}")
        _, scen_id, _, cls = parts
        if scen_id not in _SCENARIO_IDS:
            raise ConfigError(f"unknown scenario id {scen_id!r}")
        rc.scenario_w[(scen_id, cls)] = float(value)
    else:
        raise ConfigError(f"unknown config key {key!r}")


def load_run_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"run config not found: {path!r}")
    with open_input(path, "run config") as fh:
        text = fh.read()
    return parse_run_config(text, base_dir=os.path.dirname(path) or ".")


def build_market(rc: RunConfig):
    """Materialize (MarketConfig, scenarios, assumptions).

    With ``mirror_dealers`` every dealer gains an identically sized European
    twin, doubling the member count while preserving size heterogeneity; the
    interpretation is flagged in the returned assumptions.
    """
    table = load_notionals(rc.notionals)
    for needed in ("swaps", "credit"):
        if needed not in table.classes:
            raise ConfigError(
                f"scenario run needs a {needed!r} column, table has {table.classes}"
            )
    for mapping, what in ((rc.betas, "beta"), (rc.marginals, "marginal"), (rc.w, "w")):
        for cls in mapping:
            if cls not in table.classes:
                raise ConfigError(
                    f"unknown class {cls!r} in {what} settings; "
                    f"table has {table.classes}"
                )
    marginals = {m.value: m for m in Marginal}
    for law in rc.marginals.values():
        if law not in marginals:
            raise ConfigError(f"marginal must be gaussian or t3, got {law!r}")
    for _, cls in rc.scenario_w:
        if cls not in table.classes:
            raise ConfigError(
                f"unknown class {cls!r} in scenario overrides; "
                f"table has {table.classes}"
            )
    rows = list(table.rows)
    assumptions = []
    if rc.mirror_dealers:
        rows += [(f"{name} (EU)", vals) for name, vals in table.rows]
        assumptions.append(
            "mirrored dealers: each dealer paired with an identically sized "
            "European twin (one-to-one interpretation)"
        )
    classes = tuple(
        AssetClass(
            id=k,
            name=cls,
            beta=rc.beta_for(cls),
            marginal=marginals[rc.marginals.get(cls, "gaussian")],
        )
        for k, cls in enumerate(table.classes)
    )
    dealers = tuple(
        Dealer(id=i, name=name, notionals=vals) for i, (name, vals) in enumerate(rows)
    )
    config = MarketConfig(dealers=dealers, classes=classes, rho=rc.rho)
    # the five standard scenarios; per-scenario overrides, when given,
    # replace the shared fractions
    irs, cds = table.classes.index("swaps"), table.classes.index("credit")
    w = rc.w_for
    scenarios = (
        no_ccp(),
        single_ccp(irs, w("irs_ccp", "swaps"), name="irs_ccp"),
        single_ccp(cds, w("cds_ccp", "credit"), name="cds_ccp"),
        two_ccps([(irs, w("two_ccps", "swaps")), (cds, w("two_ccps", "credit"))]),
        joint_ccp([(irs, w("joint_ccp", "swaps")), (cds, w("joint_ccp", "credit"))]),
    )
    return config, scenarios, tuple(assumptions)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{float(v):.6g}"


def _level_tag(level: float) -> str:
    """Percent label that names the tail measures of a level: 0.99 gives
    '99' (``var99``, ``es99``), 0.975 gives '97.5'."""
    return f"{level * 100:.10g}"


def _meta_lines(report: RiskReport) -> list[str]:
    lines = [
        "# ccpnet risk report",
        f"# seed = {report.seed}",
        f"# paths = {report.n_paths}",
        f"# level = {report.level!r}",
    ]
    if report.base_index is not None:
        lines.append(f"# base_scenario = {report.scenario_names[report.base_index]}")
    for a in report.assumptions:
        lines.append(f"# assumption = {a}")
    return lines


def check_output_path(path: str, is_dir: bool) -> None:
    """Raise ConfigError unless ``path`` can be written as an output
    directory (``is_dir``) or file: it must be non-empty, must not exist as
    the other kind, and the nearest of its ancestors that exists must be a
    directory."""
    if not path:
        raise ConfigError("output path is empty")
    if os.path.exists(path) and os.path.isdir(path) != is_dir:
        want, got = ("directory", "file") if is_dir else ("file", "directory")
        raise ConfigError(f"output {want} is a {got}: {path!r}")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"output path lies under a file: {path!r}")


def write_report(report: RiskReport, out_dir: str) -> dict[str, str]:
    """Emit the human ratio tables, the mean-max table, the full-precision
    dump and (when present) histogram data. Returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}

    tag = _level_tag(report.level)
    ratio_specs = [
        ("expected_exposure", report.ee_ratio if report.base_index is not None else None),
        (f"var{tag}", report.var_ratio if report.base_index is not None else None),
        (f"es{tag}", report.es_ratio if report.base_index is not None else None),
    ]
    for measure, ratios in ratio_specs:
        if ratios is None:
            continue
        path = os.path.join(out_dir, f"ratios_{measure}.csv")
        with open(path, "w", newline="") as fh:
            for line in _meta_lines(report):
                fh.write(line + "\n")
            writer = csv.writer(fh)
            writer.writerow(["dealer", *report.scenario_names])
            for n, dealer in enumerate(report.dealer_names):
                writer.writerow([dealer, *(_fmt(r) for r in ratios[:, n])])
            if measure == "expected_exposure":
                # totals only exist for EE: the tail measures are not additive
                writer.writerow(["TOTAL", *(_fmt(r) for r in report.total_ee_ratio)])
        files[f"ratios_{measure}"] = path

    path = os.path.join(out_dir, "mean_max.csv")
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(report):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        header = ["scenario", "mean_max_millions"]
        if report.base_index is not None:
            header.append("ratio_to_base")
        writer.writerow(header)
        for s, scen in enumerate(report.scenario_names):
            row = [scen, _fmt(report.mean_max[s])]
            if report.base_index is not None:
                row.append(_fmt(report.mean_max_ratio[s]))
            writer.writerow(row)
    files["mean_max"] = path

    path = os.path.join(out_dir, "report.csv")
    _write_dump(report, path)
    files["dump"] = path

    if report.histograms:
        path = os.path.join(out_dir, "histograms.csv")
        write_histograms(report, path)
        files["histograms"] = path
    return files


def _write_dump(report: RiskReport, path: str) -> None:
    """Machine-readable dump at full float precision; reloadable losslessly.
    The tail measures are named from the level: ``var99``, ``es99`` and
    ``es99_exceedances`` at 0.99."""
    tag = _level_tag(report.level)
    has_base = report.base_index is not None
    measures = (
        ("ee", report.ee, report.ee_ratio if has_base else None),
        (f"var{tag}", report.var, report.var_ratio if has_base else None),
        (f"es{tag}", report.es, report.es_ratio if has_base else None),
    )
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(report):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["dealer", "scenario", "measure", "value", "ratio_to_base", "std_error"]
        )
        for s, scen in enumerate(report.scenario_names):
            for n, dealer in enumerate(report.dealer_names):
                for measure, values, ratio in measures:
                    writer.writerow(
                        [
                            dealer,
                            scen,
                            measure,
                            repr(float(values[s, n])),
                            "" if ratio is None else repr(float(ratio[s, n])),
                            repr(float(report.ee_se[s, n])) if measure == "ee" else "",
                        ]
                    )
                writer.writerow(
                    [
                        dealer,
                        scen,
                        f"es{tag}_exceedances",
                        str(int(report.es_exceedances[s, n])),
                        "",
                        "",
                    ]
                )
            writer.writerow(
                [
                    "__total__",
                    scen,
                    "total_ee",
                    repr(float(report.total_ee[s])),
                    ""
                    if report.base_index is None
                    else repr(float(report.total_ee_ratio[s])),
                    "",
                ]
            )
            writer.writerow(
                [
                    "__max__",
                    scen,
                    "mean_max",
                    repr(float(report.mean_max[s])),
                    ""
                    if report.base_index is None
                    else repr(float(report.mean_max_ratio[s])),
                    "",
                ]
            )


def load_report(path: str) -> RiskReport:
    """Rebuild a RiskReport from a dump written by :func:`write_report`.

    Header keys it does not use, such as the ``# backend`` line of older
    dumps, are skipped. Tail measures are read whatever level they are
    named after: older dumps call them ``var99`` and ``es99`` at any level.
    A malformed dump is a configuration error naming the file and line."""
    if not os.path.isfile(path):
        raise ConfigError(f"report dump not found: {path!r}")
    meta = {}  # header key -> (line number, value)
    assumptions = []
    rows = []  # (line number, fields)
    with open_input(path, "report dump", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                stripped = line[1:].strip()
                if "=" in stripped:
                    key, value = (p.strip() for p in stripped.split("=", 1))
                    if key == "assumption":
                        assumptions.append(value)
                    else:
                        meta[key] = (lineno, value)
            elif line.strip():
                rows.append((lineno, next(csv.reader([line]))))
    if not rows:
        raise ConfigError(f"{path}: empty report dump")
    header = rows[0][1]
    if header[:3] != ["dealer", "scenario", "measure"]:
        raise ConfigError(f"{path}: not a ccpnet report dump")
    for lineno, row in rows[1:]:
        if len(row) != 6:
            raise ConfigError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")

    def meta_value(key, cast):
        if key not in meta:
            raise ConfigError(f"{path}: missing '# {key} = ...' header")
        lineno, value = meta[key]
        try:
            return cast(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad {key} value {value!r}") from None

    scenario_names: list[str] = []
    dealer_names: list[str] = []
    for _, (dealer, scen, *_) in rows[1:]:
        if scen not in scenario_names:
            scenario_names.append(scen)
        if dealer not in RESERVED_DEALER_NAMES and dealer not in dealer_names:
            dealer_names.append(dealer)
    n_scen, n_dealers = len(scenario_names), len(dealer_names)
    ee = np.zeros((n_scen, n_dealers))
    ee_se = np.zeros((n_scen, n_dealers))
    var = np.zeros((n_scen, n_dealers))
    es = np.zeros((n_scen, n_dealers))
    exceed = np.zeros((n_scen, n_dealers), dtype=np.int64)
    mean_max = np.zeros(n_scen)
    for lineno, (dealer, scen, measure, value, _ratio, std_error) in rows[1:]:
        s = scenario_names.index(scen)
        try:
            if dealer == "__max__":
                mean_max[s] = float(value)
                continue
            if dealer == "__total__":
                continue  # totals re-derive from the per-dealer values
            n = dealer_names.index(dealer)
            if measure == "ee":
                ee[s, n] = float(value)
                ee_se[s, n] = float(std_error)
            elif measure.startswith("var"):
                var[s, n] = float(value)
            elif measure.endswith("_exceedances"):
                exceed[s, n] = int(value)
            elif measure.startswith("es"):
                es[s, n] = float(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric value") from None
    base_index = None
    if "base_scenario" in meta:
        lineno, base = meta["base_scenario"]
        if base not in scenario_names:
            raise ConfigError(
                f"{path}:{lineno}: base_scenario {base!r} names no scenario in the dump"
            )
        base_index = scenario_names.index(base)
    return RiskReport(
        dealer_names=tuple(dealer_names),
        scenario_names=tuple(scenario_names),
        n_paths=meta_value("paths", int),
        seed=meta_value("seed", int),
        level=meta_value("level", float),
        ee=ee,
        ee_se=ee_se,
        var=var,
        es=es,
        es_exceedances=exceed,
        mean_max=mean_max,
        base_index=base_index,
        assumptions=tuple(assumptions),
    )


def write_analytic_ee(config, scenarios, out_dir: str) -> str:
    """Closed-form per-dealer expected exposures (millions USD) per scenario.

    Only valid for all-Gaussian markets. Deliberately carries no run
    metadata: the values depend on the market alone, so the file is
    byte-identical across path counts and seeds.
    """
    from . import analytic
    from .market import MILLIONS_PER_BILLION

    os.makedirs(out_dir, exist_ok=True)
    results = [analytic.scenario_expected_exposures(config, s) for s in scenarios]
    base = next((r for r, s in zip(results, scenarios) if s.clears_nothing), None)
    path = os.path.join(out_dir, "analytic_ee.csv")
    with open(path, "w", newline="") as fh:
        fh.write("# ccpnet closed-form expected exposures (millions USD)\n")
        writer = csv.writer(fh)
        writer.writerow(["dealer", "scenario", "ee_millions", "ratio_to_base"])
        for res, scen in zip(results, scenarios):
            for n, dealer in enumerate(d.name for d in config.dealers):
                value = res.per_dealer[n] * MILLIONS_PER_BILLION
                row = [dealer, scen.name, _fmt(value)]
                if base is not None and base.per_dealer[n] > 0:
                    row.append(_fmt(res.per_dealer[n] / base.per_dealer[n]))
                else:
                    row.append("")
                writer.writerow(row)
            total_row = ["__total__", scen.name, _fmt(res.total * MILLIONS_PER_BILLION)]
            total_row.append("" if base is None else _fmt(res.total / base.total))
            writer.writerow(total_row)
    return path


def write_histograms(report: RiskReport, path: str) -> None:
    """Exposure-reduction histogram data, one row per bin."""
    if not report.histograms:
        raise ValueError("report carries no histogram data")
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(report):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["scenario", "bin_left", "bin_right", "count"])
        for scen, (edges, counts) in report.histograms.items():
            for b in range(len(counts)):
                writer.writerow(
                    [scen, repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b])]
                )
