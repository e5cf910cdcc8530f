"""The package surface: ``import ccpnet`` and everything outside the Monte
Carlo engine load no SciPy, and the engine's names resolve on first use."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ccpnet

# every public name of ccpnet, as listed when the engine was imported eagerly
_API = {
    "MILLIONS_PER_BILLION", "AssetClass", "ClearingScenario", "ConfigError",
    "Dealer", "ExpectedExposureResult", "HomogeneousSpec", "Marginal",
    "MarketConfig", "NotionalTable", "RiskReport", "RunConfig",
    "ThresholdResult", "ValidationReport", "build_market",
    "builtin_credit_exposures", "builtin_notionals", "empirical_quantile",
    "gaussian_positive_mean", "homogeneous_ee", "joint_ccp", "load_notionals",
    "load_report", "min_clearing_members", "no_ccp",
    "scenario_expected_exposures", "simulate", "single_ccp",
    "standard_scenarios", "student_t3_unit_ppf", "threshold_surface",
    "two_ccps", "validate", "write_report",
}
_SUBMODULES = {"analytic", "dataio", "kernels", "market", "montecarlo"}

_WITHOUT_ENGINE = """
import sys

import numpy as np

import ccpnet


def engine_loaded():
    return [m for m in ("scipy", "ccpnet.montecarlo") if m in sys.modules]


config, scenarios, _ = ccpnet.build_market(ccpnet.RunConfig())
spec = ccpnet.builtin_credit_exposures("bis-2010h1")
assert ccpnet.min_clearing_members(spec).n_star == 461
assert ccpnet.threshold_surface(spec, [1.0, 3.0], [0.0, 0.1]).shape == (2, 2)
assert ccpnet.scenario_expected_exposures(config, scenarios[0]).total > 0
cells = np.array([[2.0, 1.0], [1.5, 0.5]])
report = ccpnet.RiskReport(
    dealer_names=("a", "b"), scenario_names=("no_ccp", "cds_ccp"),
    n_paths=1000, seed=1, level=0.99, ee=cells, ee_se=cells / 100,
    var=cells * 2, es=cells * 3, es_exceedances=np.full((2, 2), 10),
    mean_max=np.array([2.5, 1.75]), base_index=0,
)
files = ccpnet.write_report(report, sys.argv[1])
loaded = ccpnet.load_report(files["dump"])
assert loaded.scenario_names == report.scenario_names
assert (loaded.ee == report.ee).all()
assert engine_loaded() == [], engine_loaded()

assert ccpnet.simulate is sys.modules["ccpnet.montecarlo"].simulate
assert engine_loaded() == ["scipy", "ccpnet.montecarlo"], engine_loaded()
"""


# the t3 quantile's start table is built on first use, by a t3 run alone
_T3_TABLE_ON_FIRST_USE = """
import ccpnet.cli
from ccpnet import dataio, montecarlo

built = montecarlo._t3_start_table.cache_info
assert built().currsize == 0, built()
config, scenarios, _ = dataio.build_market(dataio.RunConfig())
montecarlo.simulate(config, scenarios, 1000, 1)
assert built().currsize == 0, built()
montecarlo.student_t3_unit_ppf([0.25])
assert built().currsize == 1, built()
"""


def _run_python(script, *args):
    src = str(Path(ccpnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_and_non_engine_api_load_no_scipy(tmp_path):
    proc = _run_python(_WITHOUT_ENGINE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_gaussian_run_builds_no_t3_start_table():
    proc = _run_python(_T3_TABLE_ON_FIRST_USE)
    assert proc.returncode == 0, proc.stderr


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', text, flags=re.M) == [ccpnet.__version__]


def test_public_names_unchanged():
    public = {name for name in dir(ccpnet) if not name.startswith("_")}
    assert public - {"cli"} == _API | _SUBMODULES  # cli once a test imports it
    assert sorted(ccpnet.__all__) == sorted(_API)
    for name in public:
        assert getattr(ccpnet, name) is not None, name
    assert ccpnet.montecarlo.kernels is ccpnet.kernels
    assert ccpnet.student_t3_unit_ppf is ccpnet.montecarlo.student_t3_unit_ppf
    from ccpnet import empirical_quantile, simulate

    assert simulate is ccpnet.montecarlo.simulate
    assert empirical_quantile is ccpnet.montecarlo.empirical_quantile
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ccpnet.no_such_name  # noqa: B018
