"""Ingestion of dealer-notional tables and market parameters; report emission.

Two public OCC dealer tables and the six-class gross-credit-exposure vector
ship as built-in named datasets so the default run needs no external files.
Report files carry their run inputs (``RUN_INPUTS``) and assumptions in
comment headers and never a timestamp, so identical runs write identical bytes.

The run arguments' checks (``check_run_args``) and the report type
(``RiskReport``) live here: ``simulate`` uses both, and so do the CLI's
early checks and ``load_report``. This module imports nothing from the
Monte Carlo engine, so building a market and writing or loading a report
do not load SciPy.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace

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
    standard_scenarios,
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
    reader = csv.reader(fh)
    # rows of whitespace-only lines are skipped; line_num still counts them
    lines = (row for row in reader if len(row) > 1 or "".join(row).strip())
    try:
        header = next(lines)
    except StopIteration:
        raise ConfigError(f"{source}: empty notional file") from None
    header = [h.strip().lower() for h in header]
    if not header or header[0] != "dealer":
        raise ConfigError(f"{source}: first header column must be 'dealer'")
    classes = tuple(header[1:])
    if not classes:
        raise ConfigError(f"{source}: no asset-class columns")
    rows = []
    for row in lines:
        lineno = reader.line_num
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
    level: float = 0.99

    def beta_for(self, cls: str) -> float:
        return self.betas.get(cls, DEFAULT_BETA_CDS if cls == "credit" else DEFAULT_BETA_OTHER)

    def w_for(self, scenario_id: str, cls: str) -> float:
        shared = self.w.get(cls, _DEFAULT_W.get(cls, 0.0))
        return self.scenario_w.get((scenario_id, cls), shared)


@dataclass(frozen=True)
class RunInput:
    """One input of a scenario run. ``key`` is its config-file key and, when
    ``recorded``, its report-header key; ``{id}`` in it stands for a scenario
    id and ``{class}`` for a class name, the keys of its RunConfig dict.
    ``cast`` reads the text and ``ok`` accepts the value, or ``rule`` says
    why not. A ``path`` in a config file is relative to the file's directory."""

    key: str
    field: str
    flag: str
    cast: Callable = str
    ok: Callable = lambda value: True
    rule: str = ""
    recorded: bool = True
    path: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(re.findall(r"\{(\w+)\}", self.key))

    def match(self, key: str) -> dict | None:
        """The names in ``key`` when it is one of this input's keys."""
        rx = self.key.replace(".", r"\.").replace("{id}", "(?P<id>[^.]+)")
        m = re.fullmatch(rx.replace("{class}", "(?P<class>.+)"), key)
        if m and m.groupdict().get("id", _SCENARIO_IDS[0]) not in _SCENARIO_IDS:
            raise ConfigError(f"unknown scenario id {m['id']!r}")
        return m and m.groupdict()

    def parse(self, text, **names):
        """The value of ``text``; ConfigError for a value no run accepts."""
        try:
            value = self.cast(text)
        except ValueError:
            raise ConfigError(f"bad {self.key.format(**names)} value {text!r}") from None
        if not self.ok(value):
            raise ConfigError(self.rule.format(text=text, **names))
        return value


_FRAC = dict(cast=float, ok=lambda v: 0 <= v <= 1, rule="clearing fraction {text} outside [0, 1]")

#: every run input, in report-header order; README lists them
RUN_INPUTS = (
    # a seed has at most 128 bits, the size of the PCG64DXSM state
    RunInput("seed", "seed", "--seed", int, lambda v: 0 <= v < 2**128,
             "seed must be an integer in [0, 2**128)"),
    RunInput("paths", "paths", "--paths", int, lambda v: v >= 1000, "n_paths below the 10^3 floor"),
    RunInput("level", "level", "--level", float, lambda v: 0 < v < 1,
             "risk-measure level must lie in (0, 1)"),
    # the report header holds it as one stripped line
    RunInput("notionals", "notionals", "--notionals", str,
             lambda v: v == v.strip() and len(v.splitlines()) <= 1,
             "notionals must be one line without leading or trailing white space, "
             "got {text!r}", path=True),
    RunInput("mirror_dealers", "mirror_dealers", "--mirror",
             lambda t: {"true": True, "false": False}.get(str(t).lower()),
             lambda v: v is not None, "mirror_dealers must be true or false, got {text!r}"),
    RunInput("rho", "rho", "--rho", float, lambda v: 0 <= v < 1, "rho must lie in [0, 1)"),
    RunInput("beta.{class}", "betas", "--beta", float, lambda v: 0 < v < math.inf,
             "class {class!r}: beta must be finite and > 0"),
    RunInput("marginal.{class}", "marginals", "--marginal", str,
             lambda v: v in {m.value for m in Marginal},
             "marginal must be gaussian or t3, got {text!r}"),
    RunInput("w.{class}", "w", "--w", **_FRAC, recorded=False),
    RunInput("scenario.{id}.w.{class}", "scenario_w", "--scenario", **_FRAC),
    RunInput("out_dir", "out_dir", "--out", recorded=False, path=True),
)


def _run_input(key: str) -> tuple[RunInput, dict] | None:
    """The run input that ``key`` names, with the key's names."""
    return next(((row, n) for row in RUN_INPUTS if (n := row.match(key)) is not None), None)


def set_input(rc: RunConfig, key: str, text: str, base_dir: str = "") -> None:
    """Set the run input named by config key ``key`` from its text, as both
    the config file and the CLI flags do. A path is taken relative to
    ``base_dir``, the config file's directory."""
    found = _run_input(key)
    if found is None:
        raise ConfigError(f"unknown config key {key!r}")
    row, names = found
    value = row.parse(text, **names)
    if row.path and value and not (row.field == "notionals" and value in _NOTIONAL_BUILTINS):
        value = os.path.join(base_dir, value)
    if not names:
        setattr(rc, row.field, value)
    else:
        getattr(rc, row.field)[tuple(names.values()) if len(names) > 1 else names["class"]] = value


# every chunk thread holds a chunk's working set (on the default market about
# 5 MB when every class is Gaussian and about 18 MB with a t3 class), so the
# thread count is bounded before any thread starts
MAX_THREADS = 64


def check_run_args(n_paths: int, seed: int, threads: int, level: float) -> None:
    """Raise ConfigError for a path count, seed, thread count or level that
    ``simulate`` rejects, so a caller can check them before announcing a run."""
    for key, value in (("paths", n_paths), ("level", level), ("seed", seed)):
        _run_input(key)[0].parse(value)
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if threads > MAX_THREADS:
        raise ConfigError(f"threads must be <= {MAX_THREADS}")


def parse_run_config(text: str, base_dir: str = "") -> RunConfig:
    """Parse the flat ``key = value`` config format, one :data:`RUN_INPUTS`
    key a line. Unknown keys are errors."""
    rc = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError("expected 'key = value'")
            set_input(rc, key, value, base_dir)
        except ConfigError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from None
    return rc


def load_run_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"run config not found: {path!r}")
    with open_input(path, "run config") as fh:
        return parse_run_config(fh.read(), base_dir=os.path.dirname(path))


def build_market(rc: RunConfig):
    """Materialize (MarketConfig, scenarios, assumptions).

    With ``mirror_dealers`` every dealer gains an identically sized European
    twin, doubling the member count while preserving size heterogeneity; the
    interpretation is flagged in the returned assumptions.
    """
    # a RunConfig made in code meets the rules that a config file's text does
    _run_input("notionals")[0].parse(rc.notionals)
    table = load_notionals(rc.notionals)
    for needed in ("swaps", "credit"):
        if needed not in table.classes:
            raise ConfigError(
                f"scenario run needs a {needed!r} column, table has {table.classes}"
            )
    for row in (row for row in RUN_INPUTS if row.names):
        for at, value in getattr(rc, row.field).items():
            names = dict(zip(row.names, at if isinstance(at, tuple) else (at,)))
            if names["class"] not in table.classes:
                raise ConfigError(
                    f"unknown class {names['class']!r} in {row.key} settings; "
                    f"table has {table.classes}"
                )
            row.parse(value, **names)
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
            marginal=Marginal(rc.marginals.get(cls, "gaussian")),
        )
        for k, cls in enumerate(table.classes)
    )
    dealers = tuple(
        Dealer(id=i, name=name, notionals=vals) for i, (name, vals) in enumerate(rows)
    )
    config = MarketConfig(dealers=dealers, classes=classes, rho=rc.rho)
    # the five standard scenarios, each cleared fraction from the settings
    irs, cds = table.classes.index("swaps"), table.classes.index("credit")
    scenarios = tuple(
        replace(s, cleared=[
            replace(c, fraction=rc.w_for(s.name, table.classes[c.class_id])) for c in s.cleared
        ])
        for s in standard_scenarios(irs, cds)
    )
    # a fraction for a class that its scenarios do not clear changes nothing,
    # and so does a shared fraction that every scenario clearing it overrides
    cleared = {s.name: {table.classes[c.class_id] for c in s.cleared} for s in scenarios}
    for cls in rc.w:
        clearing = [sid for sid, classes in cleared.items() if cls in classes]
        if all((sid, cls) in rc.scenario_w for sid in clearing):
            why = f"every scenario clearing it overrides it ({', '.join(clearing)})"
            why = why if clearing else "no scenario clears it"
            raise ConfigError(f"w setting for class {cls!r} changes nothing: {why}")
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
    inputs: dict = field(default_factory=dict)  # recorded RUN_INPUTS key -> value

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

#: header keys that a dump must hold, and the RiskReport fields they fill
_REQUIRED_KEYS = {"seed": "seed", "paths": "n_paths", "level": "level"}

_TAG_DIGITS = re.compile(r"\d+(\.\d+)?(e[+-]\d+)?")  # what _level_tag writes


def recorded_inputs(rc: RunConfig, config: MarketConfig, scenarios) -> dict:
    """The run's market as its report header records it, by RUN_INPUTS key:
    the notional source, the mirroring, rho, each class's beta and marginal,
    and each scenario's cleared fractions, as ``build_market`` set them."""
    inputs = {"notionals": rc.notionals, "mirror_dealers": rc.mirror_dealers, "rho": config.rho}
    inputs |= {f"beta.{c.name}": c.beta for c in config.classes}
    inputs |= {f"marginal.{c.name}": c.marginal.value for c in config.classes}
    names = [c.name for c in config.classes]
    return inputs | {
        f"scenario.{s.name}.w.{names[c.class_id]}": c.fraction for s in scenarios for c in s.cleared
    }


def _header(report: RiskReport) -> str:
    values = {key: getattr(report, attr) for key, attr in _REQUIRED_KEYS.items()} | report.inputs
    lines = ["# ccpnet risk report\n"]
    for row in (row for row in RUN_INPUTS if row.recorded):
        lines += [f"# {k} = {v}\n" for k, v in values.items() if row.match(k) is not None]
    if report.base_index is not None:
        lines.append(f"# base_scenario = {report.scenario_names[report.base_index]}\n")
    lines += [f"# assumption = {a}\n" for a in report.assumptions]
    return "".join(lines)


def _write_csv(path: str, head: str, rows) -> str:
    """Write the comment lines ``head``, then ``rows`` as CSV; return ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(head)
        csv.writer(fh).writerows(rows)
    return path


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


def _dump_rows(report: RiskReport):
    """The data rows of ``report``'s dump, at full float precision so that
    it reloads losslessly, each with the columns that ``load_report`` reads
    back as values; every other column is derived from those."""
    tag = _level_tag(report.level)
    has_base = report.base_index is not None

    def arr(attr, wanted=True):
        return getattr(report, attr) if attr and wanted else None

    def text(values, at, cast=float):
        return "" if values is None else repr(cast(values[at]))

    cells = [
        (m.label.format(tag=tag), m.cast, arr(m.attr), arr(m.ratio, has_base), arr(m.se))
        for m in _MEASURES
    ]
    rows = [(d, a, arr(a), arr(r, has_base), read) for d, a, r, read in _SCENARIO_ROWS]
    for s, scen in enumerate(report.scenario_names):
        for n, dealer in enumerate(report.dealer_names):
            for label, cast, values, ratios, ses in cells:
                yield [
                    dealer, scen, label, text(values, (s, n), cast),
                    text(ratios, (s, n)), text(ses, (s, n)),
                ], (3, 5) if ses is not None else (3,)
        for dealer, label, values, ratios, read in rows:
            yield [dealer, scen, label, text(values, s), text(ratios, s), ""], (3,) if read else ()


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
        ratios = getattr(report, m.ratio)
        rows = [["dealer", *report.scenario_names]]
        rows += [[d, *(_fmt(r) for r in ratios[:, n])] for n, d in enumerate(report.dealer_names)]
        if m.total:
            rows.append(["TOTAL", *(_fmt(r) for r in getattr(report, m.total))])
        files[name] = _write_csv(os.path.join(out_dir, f"{name}.csv"), head, rows)

    rows = [["scenario", "mean_max_millions", *(["ratio_to_base"] if has_base else [])]]
    for s, scen in enumerate(report.scenario_names):
        ratio = [_fmt(report.mean_max_ratio[s])] if has_base else []
        rows.append([scen, _fmt(report.mean_max[s]), *ratio])
    files["mean_max"] = _write_csv(os.path.join(out_dir, "mean_max.csv"), head, rows)
    rows = itertools.chain([_COLUMNS], (row for row, _ in _dump_rows(report)))
    files["dump"] = _write_csv(os.path.join(out_dir, "report.csv"), head, rows)

    if report.histograms:
        path = os.path.join(out_dir, "histograms.csv")
        write_histograms(report, path)
        files["histograms"] = path
    return files


def load_report(path: str) -> RiskReport:
    """Rebuild a RiskReport from a dump written by :func:`write_report`.

    The lines before the column header are the header: a recorded run-input
    key is read by its RUN_INPUTS rule (0.2.0 dumps hold only seed, paths
    and level), and other keys (the ``# backend`` of older dumps) are skipped.
    Tail labels are read whatever level digits they carry (older dumps say
    ``var99`` at any level). A dump that lacks or repeats a row or a header
    key, names an unknown measure, or holds a header value that no run
    accepts or a value that no run writes (one not finite and >= 0, an
    exceedance count above the path count, or an ES below its VaR) is a
    configuration error naming the file and line. So is a cell that the
    loaded values derive (a ``ratio_to_base``, the ``__total__`` value, a
    ``std_error`` outside the EE rows) holding any text but what
    ``write_report`` writes for them."""
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

    assumptions = tuple(text for _, text in header.pop("assumption", []))
    fields = {"assumptions": assumptions, "base_index": None, "inputs": {}}
    for key, lines in header.items():
        lineno, text = lines[0]
        try:
            found = _run_input(key)
            if not (found and found[0].recorded or key == "base_scenario"):
                continue  # an unknown key, like the ``# backend`` of older dumps
            if len(lines) > 1:
                lineno = lines[1][0]
                raise ConfigError(f"repeated '# {key}' header")
            if found:
                fields["inputs"][key] = found[0].parse(text, **found[1])
            elif text not in scenario_names:
                raise ConfigError(f"{key} {text!r} names no scenario in the dump")
            else:
                fields["base_index"] = scenario_names.index(text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    for key, attr in _REQUIRED_KEYS.items():
        if key not in fields["inputs"]:
            raise ConfigError(f"{path}: missing '# {key} = ...' header")
        fields[attr] = fields["inputs"].pop(key)

    def number(text: str, lineno: int, cast=float, most=math.inf):
        # every value a run writes is finite and >= 0 (exposures are
        # positive parts), and an exceedance count is at most the path count
        try:
            v = cast(text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric value") from None
        if not (math.isfinite(v) and 0 <= v <= most):
            bound = f"in [0, {most}]" if cast is int else "finite and >= 0"
            raise ConfigError(f"{path}:{lineno}: value {text!r} is not {bound}")
        return v

    shape = (len(scenario_names), len(dealer_names))
    arrays = {m.attr: np.zeros(shape, dtype=m.cast) for m in _MEASURES}
    arrays |= {m.se: np.zeros(shape) for m in _MEASURES if m.se}
    arrays |= {a: np.zeros(shape[0]) for _, a, _, read in _SCENARIO_ROWS if read}
    try:
        for s, scen in enumerate(scenario_names):
            for n, dealer in enumerate(dealer_names):
                for m in _MEASURES:
                    lineno, row = cells[dealer, scen, m.label]
                    most = fields["n_paths"] if m.cast is int else math.inf
                    arrays[m.attr][s, n] = number(row[3], lineno, m.cast, most)
                    if m.se:
                        arrays[m.se][s, n] = number(row[5], lineno)
                var, es = arrays["var"][s, n], arrays["es"][s, n]
                if es < var:
                    lineno = cells[dealer, scen, "es{tag}"][0]
                    raise ConfigError(
                        f"{path}:{lineno}: ES {float(es)!r} is below VaR {float(var)!r}"
                    )
            for dealer, attr, _, read in _SCENARIO_ROWS:
                lineno, row = cells[dealer, scen, attr]
                if read:
                    arrays[attr][s] = number(row[3], lineno)
    except KeyError as exc:
        dealer, scen, label = exc.args[0]
        label = label.format(tag=_level_tag(fields["level"]))
        raise ConfigError(
            f"{path}: no {label} row for {dealer!r} in scenario {scen!r}"
        ) from None
    report = RiskReport(
        dealer_names=dealer_names, scenario_names=scenario_names, **fields, **arrays
    )
    for want, read in _dump_rows(report):
        lineno, row = cells[want[0], want[1], _TAG_DIGITS.sub("{tag}", want[2], count=1)]
        for col in range(3, len(_COLUMNS)):
            if col not in read and row[col] != want[col]:
                raise ConfigError(
                    f"{path}:{lineno}: {_COLUMNS[col]} {row[col]!r} does not match "
                    f"the dump's values, which give {want[col]!r}"
                )
    return report


def write_analytic_ee(config, scenarios, out_dir: str) -> str:
    """Closed-form per-dealer expected exposures (millions USD) per scenario.

    Only valid for all-Gaussian markets. Deliberately carries no run
    metadata: the values depend on the market alone, so the file is
    byte-identical across path counts and seeds.
    """
    os.makedirs(out_dir, exist_ok=True)
    results = [analytic.scenario_expected_exposures(config, s) for s in scenarios]
    base = next((r for r, s in zip(results, scenarios) if s.clears_nothing), None)
    rows = [["dealer", "scenario", "ee_millions", "ratio_to_base"]]
    for res, scen in zip(results, scenarios):
        for n, dealer in enumerate(d.name for d in config.dealers):
            value = res.per_dealer[n] * MILLIONS_PER_BILLION
            has_ratio = base is not None and base.per_dealer[n] > 0
            ratio = _fmt(res.per_dealer[n] / base.per_dealer[n]) if has_ratio else ""
            rows.append([dealer, scen.name, _fmt(value), ratio])
        has_ratio = base is not None and base.total > 0
        ratio = _fmt(res.total / base.total) if has_ratio else ""
        rows.append(["__total__", scen.name, _fmt(res.total * MILLIONS_PER_BILLION), ratio])
    head = "# ccpnet closed-form expected exposures (millions USD)\n"
    return _write_csv(os.path.join(out_dir, "analytic_ee.csv"), head, rows)


def write_histograms(report: RiskReport, path: str) -> None:
    """Exposure-reduction histogram data, one row per bin."""
    if not report.histograms:
        raise ValueError("report carries no histogram data")
    rows = (
        [scen, repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b])]
        for scen, (edges, counts) in report.histograms.items()
        for b in range(len(counts))
    )
    head = [["scenario", "bin_left", "bin_right", "count"]]
    _write_csv(path, _header(report), itertools.chain(head, rows))


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
