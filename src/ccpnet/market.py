"""Domain types, configuration validation and scenario algebra.

Conventions used across the package:

* dealer notionals are ingested in billions USD,
* simulated and reported exposures are in millions USD,
* ``MILLIONS_PER_BILLION`` is the single conversion constant between the two.

All types are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Notionals come in as billions USD, exposure reports go out in millions USD.
MILLIONS_PER_BILLION = 1000.0

#: Dealer names of the report dump's per-scenario total and mean-max rows.
RESERVED_DEALER_NAMES = ("__total__", "__max__")


class ConfigError(ValueError):
    """A configuration violates the preconditions of an engine operation."""


class Marginal(Enum):
    """Unit-variance marginal law of a standardized position shock."""

    GAUSSIAN = "gaussian"
    STUDENT_T3 = "t3"


@dataclass(frozen=True)
class AssetClass:
    """One OTC asset class: riskiness per dollar notional plus marginal law."""

    id: int
    name: str
    beta: float
    marginal: Marginal = Marginal.GAUSSIAN


@dataclass(frozen=True)
class Dealer:
    id: int
    name: str
    notionals: tuple[float, ...]  # billions USD, one entry per asset class

    def __post_init__(self):
        object.__setattr__(self, "notionals", tuple(float(z) for z in self.notionals))


@dataclass(frozen=True)
class MarketConfig:
    """A dealer market: who trades how much of what, and how classes co-move.

    The config alone fixes the sampling law of every pair's position shocks:
    ``rho`` is the equicorrelation shared by every pair of classes (a
    Gaussian copula), and each class's ``marginal`` is its unit-variance law.
    The t3 marginal is the raw Student t with 3 degrees of freedom scaled by
    1/sqrt(3), so its variance is exactly one by construction.
    """

    dealers: tuple[Dealer, ...]
    classes: tuple[AssetClass, ...]
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dealers", tuple(self.dealers))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def n_dealers(self) -> int:
        return len(self.dealers)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def notional_matrix(self) -> np.ndarray:
        """Dealer-by-class notionals as a float array (billions USD)."""
        return np.array([d.notionals for d in self.dealers], dtype=float)

    def betas(self) -> np.ndarray:
        return np.array([c.beta for c in self.classes], dtype=float)

    def marginals(self) -> tuple[Marginal, ...]:
        return tuple(c.marginal for c in self.classes)

    def has_t_marginals(self) -> bool:
        return any(c.marginal is Marginal.STUDENT_T3 for c in self.classes)

    def correlation_matrix(self) -> np.ndarray:
        k = self.n_classes
        mat = np.full((k, k), self.rho, dtype=float)
        np.fill_diagonal(mat, 1.0)
        return mat


@dataclass(frozen=True)
class ValidationReport:
    """Result of :func:`validate`: the list of violated invariants."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            raise ConfigError("invalid market config: " + "; ".join(self.violations))


def _repeated(names) -> list[str]:
    """The names that occur more than once, in order of first appearance."""
    return [name for name, count in Counter(names).items() if count > 1]


def validate(config: MarketConfig) -> ValidationReport:
    """Check every market invariant and report violations (empty = valid).

    Engines call :meth:`ValidationReport.raise_if_invalid` before computing;
    construction itself never rejects a semantically bad config so that the
    report can enumerate everything that is wrong.
    """
    v: list[str] = []
    n, k = config.n_dealers, config.n_classes
    if n < 2:
        v.append("N >= 2 required")
    if k < 1:
        v.append("K >= 1 required")
    # reports key their rows by dealer name, so a repeated name merges rows
    names = [d.name for d in config.dealers]
    repeated = _repeated(names)
    if repeated:
        v.append(f"dealer names must be unique, repeated: {repeated}")
    reserved = [name for name in RESERVED_DEALER_NAMES if name in names]
    if reserved:
        v.append(f"dealer names reserved by the report dump: {reserved}")
    # scenarios and settings pick classes by name
    repeated = _repeated(c.name for c in config.classes)
    if repeated:
        v.append(f"class names must be unique, repeated: {repeated}")
    for d in config.dealers:
        if len(d.notionals) != k:
            v.append(f"dealer {d.name!r}: notionals length {len(d.notionals)} != K={k}")
        if any(z < 0 for z in d.notionals):
            v.append(f"dealer {d.name!r}: negative notional")
        if not all(math.isfinite(z) for z in d.notionals):
            v.append(f"dealer {d.name!r}: non-finite notional")
    for c in config.classes:
        if not 0 < c.beta < math.inf:
            v.append(f"class {c.name!r}: beta must be finite and > 0")
    # the equicorrelation must keep the K x K matrix positive definite;
    # combined with rho >= 0 this pins rho to [0, 1)
    if not 0.0 <= config.rho < 1.0:
        v.append("rho must lie in [0, 1)")
    if not v or all(len(d.notionals) == k for d in config.dealers):
        z = config.notional_matrix() if n and k else np.zeros((n, k))
        # non-finite notionals are reported above: a NaN total (inf + -inf)
        # fails every comparison below, and an infinite notional is skipped
        with np.errstate(invalid="ignore"):
            totals = z.sum(axis=0)
        for i, d in enumerate(config.dealers):
            for kk in range(k):
                if 0 < z[i, kk] < math.inf and totals[kk] - z[i, kk] <= 0:
                    v.append(
                        f"zero counterparty notional denominator: dealer {d.name!r}, "
                        f"class {config.classes[kk].name!r}"
                    )
    return ValidationReport(tuple(v))


def pair_scales(config: MarketConfig, i, j) -> np.ndarray:
    """Standard deviation of the position value of dealer ``i`` facing ``j``,
    one entry per class: beta_k * Z_ik * Z_jk / sum of the other dealers'
    notionals in class k.

    ``i`` and ``j`` are dealer indices, index arrays or slices that broadcast
    against each other; the class axis is last. Zero-notional dealers get a
    zero scale rather than an error.
    """
    z = config.notional_matrix()
    denom = z.sum(axis=0) - z[i]
    return config.betas() * z[i] * z[j] / np.where(denom > 0, denom, 1.0)


def pair_scale_matrix(config: MarketConfig, i: int) -> np.ndarray:
    """All scales of dealer ``i`` at once: entry [j, k] faces dealer ``j`` in
    class ``k``. Row ``i`` is zero."""
    s = pair_scales(config, i, slice(None))
    s[i] = 0.0
    return s


# ---------------------------------------------------------------------------
# Clearing scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClearedClass:
    """One cleared asset class: which class, what fraction, at which CCP."""

    class_id: int
    fraction: float
    ccp: int = 0


@dataclass(frozen=True)
class ClearingScenario:
    """Which classes are cleared, at what fractions, and at which CCP each.

    The cleared classes are the whole description: none is the no-CCP
    scenario, and classes at one CCP net against each other there. A
    scenario with every fraction zero is behaviorally identical to the
    no-CCP scenario in every downstream operation.
    """

    cleared: tuple[ClearedClass, ...]
    name: str

    def __post_init__(self):
        object.__setattr__(self, "cleared", tuple(self.cleared))
        for c in self.cleared:
            if not 0.0 <= c.fraction <= 1.0:
                raise ConfigError(f"clearing fraction {c.fraction} outside [0, 1]")
        ids = [c.class_id for c in self.cleared]
        if len(set(ids)) != len(ids):
            raise ConfigError("cleared class ids must be distinct")

    def residual_weights(self, n_classes: int) -> np.ndarray:
        """Per-class bilateral remainder ``1 - w_k``."""
        w = np.ones(n_classes)
        for c in self.cleared:
            w[c.class_id] = 1.0 - c.fraction
        return w

    def ccp_groups(self, n_classes: int) -> list[np.ndarray]:
        """Per-CCP weight vectors (w_k on that CCP's classes, 0 elsewhere),
        ordered by first appearance."""
        groups: dict[int, np.ndarray] = {}
        for c in self.cleared:
            vec = groups.setdefault(c.ccp, np.zeros(n_classes))
            vec[c.class_id] = c.fraction
        return list(groups.values())

    @property
    def clears_nothing(self) -> bool:
        """True when no fraction of any class is cleared: the scenario is the
        no-clearing base that ratios and exposure reductions compare against."""
        return all(c.fraction == 0.0 for c in self.cleared)


def no_ccp(name: str = "no_ccp") -> ClearingScenario:
    return ClearingScenario((), name)


def single_ccp(class_id: int, fraction: float, name: str | None = None) -> ClearingScenario:
    return ClearingScenario(
        (ClearedClass(class_id, fraction, ccp=0),), name or f"ccp_class{class_id}"
    )


def two_ccps(cleared: list[tuple[int, float]], name: str = "two_ccps") -> ClearingScenario:
    entries = tuple(
        ClearedClass(cid, w, ccp=n) for n, (cid, w) in enumerate(cleared)
    )
    return ClearingScenario(entries, name)


def joint_ccp(cleared: list[tuple[int, float]], name: str = "joint_ccp") -> ClearingScenario:
    entries = tuple(ClearedClass(cid, w, ccp=0) for cid, w in cleared)
    return ClearingScenario(entries, name)


def standard_scenarios(
    irs_class: int = 2,
    cds_class: int = 3,
    w_irs: float = 0.90,
    w_cds: float = 0.85,
) -> tuple[ClearingScenario, ...]:
    """The five canonical clearing scenarios for a forwards/options/swaps/credit
    market: no CCP, IRS CCP, CDS CCP, one CCP per class, one joint CCP."""
    return (
        no_ccp(),
        single_ccp(irs_class, w_irs, name="irs_ccp"),
        single_ccp(cds_class, w_cds, name="cds_ccp"),
        two_ccps([(irs_class, w_irs), (cds_class, w_cds)], name="two_ccps"),
        joint_ccp([(irs_class, w_irs), (cds_class, w_cds)], name="joint_ccp"),
    )


# ---------------------------------------------------------------------------
# Homogeneous market (threshold model)
# ---------------------------------------------------------------------------


def _all_positive_finite(values: tuple[float, ...]) -> bool:
    # a NaN makes the sum NaN, and min and max are exact once NaN is ruled out
    return not math.isnan(sum(values)) and 0 < min(values) and max(values) < math.inf


@dataclass(frozen=True)
class HomogeneousSpec:
    """Homogeneous-dealer market where every pair's class-k position has
    standard deviation ``alphas[k] * credit_exposures[k]``.

    The standard deviation is always derived, never stored.
    """

    credit_exposures: tuple[float, ...]
    alphas: tuple[float, ...]
    rho: float
    cleared_class: int
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        ce = tuple(map(float, self.credit_exposures))
        al = tuple(map(float, self.alphas))
        object.__setattr__(self, "credit_exposures", ce)
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(set(self.class_names)) < len(self.class_names):
            repeated = _repeated(self.class_names)
            raise ConfigError(f"class names must be unique, repeated: {repeated}")
        if len(ce) != len(al):
            raise ConfigError("credit_exposures and alphas must have equal length")
        if self.class_names and len(self.class_names) != len(ce):
            raise ConfigError("class_names must give one name per class")
        if not ce:
            raise ConfigError("at least one asset class required")
        if not _all_positive_finite(ce):
            raise ConfigError("credit exposures must be finite and > 0")
        if not _all_positive_finite(al):
            raise ConfigError("alphas must be finite and > 0")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        if not 0 <= self.cleared_class < len(ce):
            raise ConfigError("cleared_class out of range")

    @property
    def n_classes(self) -> int:
        return len(self.credit_exposures)

