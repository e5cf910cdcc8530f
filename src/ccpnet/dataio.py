"""Ingestion of dealer-notional tables and market parameters; report emission.

Two public OCC dealer tables and the six-class gross-credit-exposure vector
ship as built-in named datasets so the default run needs no external files.
Report files carry their run metadata (seed, paths, assumptions) in comment
headers and never a timestamp, so identical runs write identical bytes.

The run arguments' checks (``check_run_args``) and the report type
(``RiskReport``) live here: ``simulate`` uses both, and so do the CLI's
early checks and ``load_report``. This module imports nothing from the
Monte Carlo engine, so building a market and writing or loading a report
do not load SciPy.
"""

from __future__ import annotations

import contextlib
import csv
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .market import (
    MILLIONS_PER_BILLION,
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


# shared clearing fraction of each class that no setting overrides
_DEFAULT_W = {"swaps": 0.90, "credit": 0.85}


@dataclass
class RunConfig:
    """Everything one scenario run needs; defaults reproduce the published
    setup (occ-2009q1 notionals, mirrored dealers, 90%/85% clearing,
    Gaussian marginals, 10^6 paths)."""

    notionals: str = "occ-2009q1"
    betas: dict = field(default_factory=dict)       # class -> beta override
    rho: float = 0.0
    marginals: dict = field(default_factory=dict)   # class -> 'gaussian' | 't3'
    w: dict = field(default_factory=dict)           # class -> shared fraction override
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
        shared = self.w.get(cls, _DEFAULT_W.get(cls, 0.0))
        return self.scenario_w.get((scenario_id, cls), shared)


# every chunk thread holds a whole chunk's working set (about 20 MB on the
# default market), so the thread count is bounded before any thread starts
MAX_THREADS = 64


def check_run_args(n_paths: int, seed: int, threads: int, level: float) -> None:
    """Raise ConfigError for a path count, seed, thread count or level that
    ``simulate`` rejects, so a caller can check them before announcing a run."""
    if n_paths < 1000:
        raise ConfigError("n_paths below the 10^3 floor")
    if not 0.0 < level < 1.0:
        raise ConfigError("risk-measure level must lie in (0, 1)")
    if not 0 <= seed < 2**128:  # the Philox key is 128 bits
        raise ConfigError("seed must be an integer in [0, 2**128)")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if threads > MAX_THREADS:
        raise ConfigError(f"threads must be <= {MAX_THREADS}")


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
    # a fraction for a class that its scenarios do not clear changes nothing,
    # and so does a shared fraction that every scenario clearing it overrides
    cleared = {s.name: {table.classes[c.class_id] for c in s.cleared} for s in scenarios}
    for cls in rc.w:
        clearing = [sid for sid, classes in cleared.items() if cls in classes]
        if not clearing:
            raise ConfigError(
                f"w setting for class {cls!r} changes nothing: no scenario clears it"
            )
        if all((sid, cls) in rc.scenario_w for sid in clearing):
            raise ConfigError(
                f"w setting for class {cls!r} changes nothing: every scenario "
                f"clearing it overrides it ({', '.join(clearing)})"
            )
    for scen_id, cls in rc.scenario_w:
        if cls not in cleared.get(scen_id, ()):
            raise ConfigError(
                f"scenario.{scen_id}.w.{cls} changes nothing: "
                f"scenario {scen_id!r} does not clear {cls!r}"
            )
    return config, scenarios, tuple(assumptions)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Per-dealer and per-scenario risk measures from one common-random-numbers
    pass, all in millions USD, plus ratios against the no-CCP base."""

    dealer_names: tuple[str, ...]
    scenario_names: tuple[str, ...]
    n_paths: int
    seed: int
    level: float
    ee: np.ndarray              # (scenarios, dealers)
    ee_se: np.ndarray           # standard error of each EE estimate
    var: np.ndarray             # empirical quantile at `level`
    es: np.ndarray              # mean exceedance beyond the quantile
    es_exceedances: np.ndarray  # tail sample size behind each ES cell
    mean_max: np.ndarray        # (scenarios,) mean over paths of max_i e_i
    base_index: int | None
    assumptions: tuple[str, ...] = ()
    histograms: dict | None = None   # scenario name -> (bin edges, counts)

    @property
    def total_ee(self) -> np.ndarray:
        return self.ee.sum(axis=1)

    def _ratio(self, values: np.ndarray) -> np.ndarray:
        if self.base_index is None:
            raise ValueError("report has no no-CCP base scenario")
        base = values[self.base_index]
        return np.divide(
            values, base, out=np.full_like(values, np.nan), where=base != 0
        )

    @property
    def ee_ratio(self) -> np.ndarray:
        return self._ratio(self.ee)

    @property
    def var_ratio(self) -> np.ndarray:
        return self._ratio(self.var)

    @property
    def es_ratio(self) -> np.ndarray:
        return self._ratio(self.es)

    @property
    def total_ee_ratio(self) -> np.ndarray:
        return self._ratio(self.total_ee)

    @property
    def mean_max_ratio(self) -> np.ndarray:
        return self._ratio(self.mean_max)

    @property
    def low_confidence(self) -> np.ndarray:
        """ES cells whose tail holds fewer than 100 samples."""
        return self.es_exceedances < 100


def _fmt(v) -> str:
    return f"{float(v):.6g}"


def _level_tag(level: float) -> str:
    """Percent label that names the tail measures of a level: 0.99 gives
    '99' (``var99``, ``es99``), 0.975 gives '97.5'."""
    return f"{level * 100:.10g}"


# The report schema, which the writers and load_report iterate. The dump
# has a row per (scenario, dealer, measure) and per (scenario, scenario row).

_COLUMNS = ("dealer", "scenario", "measure", "value", "ratio_to_base", "std_error")


@dataclass(frozen=True)
class _Measure:
    """A per-(scenario, dealer) measure: its label, in which ``{tag}`` stands
    for the level in percent, and the RiskReport arrays behind it."""

    label: str
    attr: str
    cast: type = float
    ratio: str | None = None  # the ratio_to_base column and a ratio table
    table: str | None = None  # that table's name, when not the label
    total: str | None = None  # the table's TOTAL row, for an additive measure
    se: str | None = None     # the std_error column


_MEASURES = (
    _Measure(
        "ee", "ee", float, "ee_ratio", "expected_exposure", "total_ee_ratio", "ee_se"
    ),
    _Measure("var{tag}", "var", ratio="var_ratio"),
    _Measure("es{tag}", "es", ratio="es_ratio"),
    _Measure("es{tag}_exceedances", "es_exceedances", cast=int),
)

_TOTAL, _MAX = RESERVED_DEALER_NAMES
#: per-scenario rows: dealer, RiskReport array (also the label), its ratios,
#: and whether load_report reads it (the totals re-derive from the cells)
_SCENARIO_ROWS = (
    (_TOTAL, "total_ee", "total_ee_ratio", False),
    (_MAX, "mean_max", "mean_max_ratio", True),
)

#: header keys: key, RiskReport field, cast, and the lines it takes: "1"
#: exactly one, "?" at most one, "*" any number
_HEADER_KEYS = (
    ("seed", "seed", int, "1"),
    ("paths", "n_paths", int, "1"),
    ("level", "level", float, "1"),
    ("base_scenario", "base_index", str, "?"),  # written as the scenario's name
    ("assumption", "assumptions", str, "*"),
)

_TAG_DIGITS = re.compile(r"\d+(\.\d+)?(e[+-]\d+)?")  # what _level_tag writes


def _header(report: RiskReport) -> str:
    lines = ["# ccpnet risk report\n"]
    for key, attr, _, count in _HEADER_KEYS:
        value = getattr(report, attr)
        if attr == "base_index" and value is not None:
            value = report.scenario_names[value]
        values = value if count == "*" else () if value is None else (value,)
        lines += [f"# {key} = {v}\n" for v in values]
    return "".join(lines)


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
    head = _header(report)
    tag = _level_tag(report.level)
    has_base = report.base_index is not None

    for m in [m for m in _MEASURES if m.ratio and has_base]:
        name = "ratios_" + (m.table or m.label).format(tag=tag)
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(head)
            writer = csv.writer(fh)
            writer.writerow(["dealer", *report.scenario_names])
            ratios = getattr(report, m.ratio)
            for n, dealer in enumerate(report.dealer_names):
                writer.writerow([dealer, *(_fmt(r) for r in ratios[:, n])])
            if m.total:
                writer.writerow(["TOTAL", *(_fmt(r) for r in getattr(report, m.total))])
        files[name] = path

    path = os.path.join(out_dir, "mean_max.csv")
    with open(path, "w", newline="") as fh:
        fh.write(head)
        writer = csv.writer(fh)
        ratio = ["ratio_to_base"] if has_base else []
        writer.writerow(["scenario", "mean_max_millions", *ratio])
        for s, scen in enumerate(report.scenario_names):
            ratio = [_fmt(report.mean_max_ratio[s])] if has_base else []
            writer.writerow([scen, _fmt(report.mean_max[s]), *ratio])
    files["mean_max"] = path

    # the dump, at full float precision so that it reloads losslessly
    def arr(attr, wanted=True):
        return getattr(report, attr) if attr and wanted else None

    def text(values, at, cast=float):
        return "" if values is None else repr(cast(values[at]))

    cells = [
        (m.label.format(tag=tag), m.cast, arr(m.attr), arr(m.ratio, has_base), arr(m.se))
        for m in _MEASURES
    ]
    rows = [(d, a, arr(a), arr(r, has_base)) for d, a, r, _ in _SCENARIO_ROWS]
    path = os.path.join(out_dir, "report.csv")
    with open(path, "w", newline="") as fh:
        fh.write(head)
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for s, scen in enumerate(report.scenario_names):
            for n, dealer in enumerate(report.dealer_names):
                for label, cast, values, ratios, ses in cells:
                    writer.writerow([
                        dealer, scen, label, text(values, (s, n), cast),
                        text(ratios, (s, n)), text(ses, (s, n)),
                    ])
            for dealer, label, values, ratios in rows:
                writer.writerow(
                    [dealer, scen, label, text(values, s), text(ratios, s), ""]
                )
    files["dump"] = path

    if report.histograms:
        path = os.path.join(out_dir, "histograms.csv")
        write_histograms(report, path)
        files["histograms"] = path
    return files


def load_report(path: str) -> RiskReport:
    """Rebuild a RiskReport from a dump written by :func:`write_report`.

    The lines before the column header are the header, and its unknown keys
    (the ``# backend`` of older dumps) are skipped; every later line is a
    data row. Tail labels are read whatever level digits they carry (older
    dumps say ``var99`` at any level). A dump that lacks or repeats a row,
    names an unknown measure or holds a header value that no run accepts is
    a configuration error naming the file and line."""
    if not os.path.isfile(path):
        raise ConfigError(f"report dump not found: {path!r}")
    header = {}  # key -> [(line number, value)]
    with open_input(path, "report dump", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                break
            key, eq, value = line[1:].partition("=")
            if eq:
                header.setdefault(key.strip(), []).append((lineno, value.strip()))
        else:
            raise ConfigError(f"{path}: empty report dump")
        if next(csv.reader([line]), None) != list(_COLUMNS):
            raise ConfigError(f"{path}: not a ccpnet report dump")
        reader = csv.reader(fh)
        rows = [(lineno + reader.line_num, row) for row in reader if row]

    kinds = {(None, m.label) for m in _MEASURES}
    kinds |= {(dealer, label) for dealer, label, _, _ in _SCENARIO_ROWS}
    cells = {}  # (dealer, scenario, label with {tag}) -> (line number, row)
    for lineno, row in rows:
        if len(row) != len(_COLUMNS):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(_COLUMNS)} fields, got {len(row)}"
            )
        dealer, scen, label = row[:3]
        key = (dealer, scen, _TAG_DIGITS.sub("{tag}", label, count=1))
        if (dealer if dealer in RESERVED_DEALER_NAMES else None, key[2]) not in kinds:
            raise ConfigError(f"{path}:{lineno}: unknown measure {label!r}")
        if key in cells:
            raise ConfigError(
                f"{path}:{lineno}: repeated {label} row for {dealer!r} "
                f"in scenario {scen!r}"
            )
        cells[key] = (lineno, row)
    scenario_names = tuple(dict.fromkeys(scen for _, scen, _ in cells))
    dealer_names = tuple(
        dict.fromkeys(d for d, _, _ in cells if d not in RESERVED_DEALER_NAMES)
    )
    if not dealer_names:
        raise ConfigError(f"{path}: no dealer rows")

    fields = {}
    for key, attr, cast, count in _HEADER_KEYS:
        lines = header.get(key, [])
        if count == "1" and not lines:
            raise ConfigError(f"{path}: missing '# {key} = ...' header")
        vals = []
        for lineno, v in lines:
            try:
                vals.append(cast(v))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad {key} value {v!r}") from None
        if attr == "base_index" and vals:
            if vals[-1] not in scenario_names:
                raise ConfigError(
                    f"{path}:{lineno}: {key} {v!r} names no scenario in the dump"
                )
            vals = [scenario_names.index(vals[-1])]
        fields[attr] = tuple(vals) if count == "*" else vals[-1] if vals else None
    try:
        check_run_args(fields["n_paths"], fields["seed"], 1, fields["level"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    shape = (len(scenario_names), len(dealer_names))
    arrays = {m.attr: np.zeros(shape, dtype=m.cast) for m in _MEASURES}
    arrays |= {m.se: np.zeros(shape) for m in _MEASURES if m.se}
    arrays |= {a: np.zeros(shape[0]) for _, a, _, read in _SCENARIO_ROWS if read}
    try:
        for s, scen in enumerate(scenario_names):
            for n, dealer in enumerate(dealer_names):
                for m in _MEASURES:
                    lineno, row = cells[dealer, scen, m.label]
                    arrays[m.attr][s, n] = m.cast(row[3])
                    if m.se:
                        arrays[m.se][s, n] = float(row[5])
            for dealer, attr, _, read in _SCENARIO_ROWS:
                lineno, row = cells[dealer, scen, attr]
                if read:
                    arrays[attr][s] = float(row[3])
    except KeyError as exc:
        dealer, scen, label = exc.args[0]
        label = label.format(tag=_level_tag(fields["level"]))
        raise ConfigError(
            f"{path}: no {label} row for {dealer!r} in scenario {scen!r}"
        ) from None
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: non-numeric value") from None
    return RiskReport(
        dealer_names=dealer_names, scenario_names=scenario_names, **fields, **arrays
    )


def write_analytic_ee(config, scenarios, out_dir: str) -> str:
    """Closed-form per-dealer expected exposures (millions USD) per scenario.

    Only valid for all-Gaussian markets. Deliberately carries no run
    metadata: the values depend on the market alone, so the file is
    byte-identical across path counts and seeds.
    """
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
        fh.write(_header(report))
        writer = csv.writer(fh)
        writer.writerow(["scenario", "bin_left", "bin_right", "count"])
        for scen, (edges, counts) in report.histograms.items():
            for b in range(len(counts)):
                writer.writerow(
                    [scen, repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b])]
                )


class PathDump:
    """An open ``.npy`` file of float64 exposures, shape ``(paths, scenarios,
    dealers)`` in C order, for ``simulate`` to fill. Each chunk's rows go
    straight to their own byte range, so chunks may arrive in any order and
    from any thread."""

    def __init__(self, fh, shape: tuple[int, int, int]):
        self.shape = shape
        self._fd = fh.fileno()
        self._data = fh.tell()  # where the header ends
        self._row_nbytes = shape[1] * shape[2] * 8
        self.nbytes = self._data + shape[0] * self._row_nbytes

    def write(self, start: int, rows: np.ndarray) -> None:
        """Write ``rows``, a C-contiguous float64 array of shape (count,
        scenarios, dealers), as paths [start, start + count)."""
        if rows.dtype != np.float64 or rows.shape[1:] != self.shape[1:]:
            raise ValueError(f"rows must be float64 paths of shape {self.shape[1:]}")
        view = memoryview(rows).cast("B")
        offset = self._data + start * self._row_nbytes
        while view:
            written = os.pwrite(self._fd, view, offset)
            view, offset = view[written:], offset + written


@contextlib.contextmanager
def open_path_dump(path: str, n_paths: int, n_scenarios: int, n_dealers: int):
    """Yield a :class:`PathDump` for ``simulate`` to fill. It is written as
    ``path + ".part"`` and renamed to ``path`` only when the block exits
    without an error and the file has reached its full size, so a run that
    fails leaves no partial file. ``numpy.load(path)`` reads the result; its
    axes follow ``report.csv``'s scenario and dealer order."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    part = path + ".part"
    shape = (n_paths, n_scenarios, n_dealers)
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": False, "shape": shape}
    try:
        with open(part, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            fh.flush()
            dump = PathDump(fh, shape)
            yield dump
            if os.fstat(fh.fileno()).st_size != dump.nbytes:
                raise RuntimeError(f"path dump {path!r} is missing paths")
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)
