"""The package surface: no module of the package imports SciPy, ``import
ccpnet`` and everything outside the Monte Carlo engine load no engine, the
engine's names resolve on first use, and every text file the package opens
names its encoding."""

import ast
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
assert engine_loaded() == ["ccpnet.montecarlo"], engine_loaded()
"""


# the t3 copula's map table is built on first use, by a t3 run alone: a
# Gaussian run and a bare quantile call build no table
_T3_TABLES_ON_FIRST_USE = """
import ccpnet.cli
from ccpnet import dataio, montecarlo


def built():
    return montecarlo._t3_map_table.cache_info().currsize


assert built() == 0, built()
config, scenarios, _ = dataio.build_market(dataio.RunConfig())
montecarlo.simulate(config, scenarios, 1000, 1)
assert built() == 0, built()
montecarlo.student_t3_unit_ppf([0.25])
assert built() == 0, built()
config, scenarios, _ = dataio.build_market(dataio.RunConfig(marginals={"credit": "t3"}))
montecarlo.simulate(config, scenarios, 1000, 1)
assert built() == 1, built()
"""

# the ccpnet command runs a t3 Monte Carlo run and a surface without SciPy
_CLI_WITHOUT_SCIPY = """
import sys

from ccpnet import cli

out = sys.argv[1]
assert cli.main([
    "scenarios", "--marginal", "credit=t3", "--rho", "0.1", "--paths", "1000",
    "--seed", "1", "--out", out,
]) == 0
assert cli.main([
    "surface", "--alpha-grid", "1:3:3", "--rho-grid", "0:0.2:3", "--out", out + "/s.csv",
]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
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
    proc = _run_python(_T3_TABLES_ON_FIRST_USE)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_load_no_scipy(tmp_path):
    proc = _run_python(_CLI_WITHOUT_SCIPY, str(tmp_path))
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


def _text_opens_without_encoding(source: str) -> list[int]:
    """Lines of ``source`` that call ``open`` in text mode (no mode, or a
    mode without "b") and pass no ``encoding=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and "encoding" not in keywords:
            lines.append(node.lineno)
    return lines


def test_text_files_are_opened_with_an_encoding():
    """Reports are written as UTF-8 and inputs read as UTF-8 after an
    optional byte-order mark, whatever the locale: no text-mode ``open`` in
    the package leaves the encoding to it."""
    probe = 'open(a)\nopen(a, "w")\nopen(a, mode="rb")\nopen(a, encoding="utf-8")\n'
    assert _text_opens_without_encoding(probe) == [1, 2]
    package = Path(ccpnet.__file__).resolve().parent
    found = {
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in _text_opens_without_encoding(path.read_text(encoding="utf-8"))
    }
    assert not found, found


def _scipy_imports(source: str) -> list[int]:
    """Lines of ``source`` that import SciPy or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_package_imports_no_scipy():
    """The package needs numpy alone: no module imports SciPy, at the top or
    inside a function."""
    probe = (
        "import scipy\nimport numpy, scipy.special\nfrom scipy import stats\n"
        "from scipy.special import ndtr\nimport scipyx\nfrom . import scipy\n"
        "def f():\n    import scipy.optimize\n"
    )
    assert _scipy_imports(probe) == [1, 2, 3, 4, 8]
    package = Path(ccpnet.__file__).resolve().parent
    found = {
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in _scipy_imports(path.read_text(encoding="utf-8"))
    }
    assert not found, found
