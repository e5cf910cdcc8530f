"""Exposure-netting analysis for OTC dealer markets: how central clearing of
one or two asset classes trades multilateral netting against the bilateral
cross-class netting it displaces."""

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
from .montecarlo import (
    RiskReport,
    empirical_quantile,
    simulate,
    student_t3_unit_ppf,
)

__version__ = "0.1.0"
