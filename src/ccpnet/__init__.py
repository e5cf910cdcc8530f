"""Exposure-netting analysis for OTC dealer markets: how central clearing of
one or two asset classes trades multilateral netting against the bilateral
cross-class netting it displaces.

``import ccpnet`` loads the closed forms, the member-threshold model, the
market types and report input and output, none of which needs SciPy. The
Monte Carlo engine (``simulate``, ``empirical_quantile``,
``student_t3_unit_ppf``, and the ``montecarlo`` and ``kernels`` modules)
and SciPy load on the first use of one of those names.
"""

from importlib import import_module as _import_module

from .analytic import (
    ExpectedExposureResult,
    ThresholdResult,
    gaussian_positive_mean,
    homogeneous_ee,
    min_clearing_members,
    scenario_expected_exposures,
    threshold_surface,
)
from .dataio import (
    NotionalTable,
    RiskReport,
    RunConfig,
    builtin_credit_exposures,
    builtin_notionals,
    build_market,
    load_notionals,
    load_report,
    write_report,
)
from .market import (
    MILLIONS_PER_BILLION,
    AssetClass,
    ClearingScenario,
    ConfigError,
    Dealer,
    HomogeneousSpec,
    Marginal,
    MarketConfig,
    ValidationReport,
    joint_ccp,
    no_ccp,
    single_ccp,
    standard_scenarios,
    two_ccps,
    validate,
)

__version__ = "0.2.0"

_ENGINE_NAMES = ("empirical_quantile", "simulate", "student_t3_unit_ppf")
_ENGINE_MODULES = ("kernels", "montecarlo")

__all__ = [
    "MILLIONS_PER_BILLION",
    "AssetClass",
    "ClearingScenario",
    "ConfigError",
    "Dealer",
    "ExpectedExposureResult",
    "HomogeneousSpec",
    "Marginal",
    "MarketConfig",
    "NotionalTable",
    "RiskReport",
    "RunConfig",
    "ThresholdResult",
    "ValidationReport",
    "build_market",
    "builtin_credit_exposures",
    "builtin_notionals",
    "empirical_quantile",
    "gaussian_positive_mean",
    "homogeneous_ee",
    "joint_ccp",
    "load_notionals",
    "load_report",
    "min_clearing_members",
    "no_ccp",
    "scenario_expected_exposures",
    "simulate",
    "single_ccp",
    "standard_scenarios",
    "student_t3_unit_ppf",
    "threshold_surface",
    "two_ccps",
    "validate",
    "write_report",
]


def __getattr__(name):
    # called only for names not yet bound here (PEP 562)
    if name in _ENGINE_NAMES:
        return getattr(_import_module(".montecarlo", __name__), name)
    if name in _ENGINE_MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ENGINE_NAMES, *_ENGINE_MODULES})
