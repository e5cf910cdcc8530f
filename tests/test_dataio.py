"""Datasets, notional ingestion, run configs, and report round-trips."""

import dataclasses
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccpnet import dataio, montecarlo
from ccpnet.dataio import (
    RunConfig,
    build_market,
    builtin_credit_exposures,
    builtin_notionals,
    load_notionals,
    load_report,
    parse_run_config,
    write_report,
)
from ccpnet.market import RESERVED_DEALER_NAMES, ConfigError, Marginal
from helpers import reports_equal


# ---------------------------------------------------------------------------
# Built-in datasets (golden checks)
# ---------------------------------------------------------------------------


def test_builtin_2009_table():
    table = builtin_notionals("occ-2009q1")
    assert table.classes == ("forwards", "options", "swaps", "credit")
    rows = dict(table.rows)
    assert rows["JP Morgan Chase"] == (8422.0, 10633.0, 51221.0, 7495.0)
    assert rows["Bank of America"] == (9132.0, 6908.0, 50702.0, 5649.0)
    assert rows["State Street"] == (571.0, 45.0, 24.0, 0.0)
    totals = np.array([vals for vals in rows.values()]).sum(axis=0)
    # the source prints totals (28476, 34792, 179094, 30348); three of the
    # four disagree with its own columns by 1-2 from rounding upstream, so
    # the per-dealer rows are the golden values and these are their sums
    assert totals.tolist() == [28476.0, 34790.0, 179095.0, 30346.0]


def test_builtin_2010_table():
    table = builtin_notionals("occ-2010q4")
    rows = dict(table.rows)
    assert rows["JP Morgan Chase"] == (11807.0, 8899.0, 49332.0, 5472.0)
    totals = np.array([vals for vals in rows.values()]).sum(axis=0)
    assert totals.tolist() == [41959.0, 35295.0, 180547.0, 22093.0]


def test_builtin_credit_exposures():
    spec = builtin_credit_exposures("bis-2010h1")
    assert spec.credit_exposures == (457.0, 706.0, 2524.0, 17533.0, 1666.0, 1788.0)
    assert spec.class_names[spec.cleared_class] == "credit"
    # the source table's printed total (24,673) disagrees with its own
    # column by 1 from rounding; the per-class values are what we pin
    assert sum(spec.credit_exposures) == 24674.0


def test_unknown_builtins_rejected():
    with pytest.raises(ConfigError):
        builtin_notionals("occ-1999q1")
    with pytest.raises(ConfigError):
        builtin_credit_exposures("nope")


# ---------------------------------------------------------------------------
# Notional CSV ingestion
# ---------------------------------------------------------------------------


def test_load_notionals_csv_order_insensitive(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "dealer,credit,swaps,options,forwards\n"
        "Alpha,4,3,2,1\n"
        "Beta,8,7,6,5\n"
    )
    table = load_notionals(str(path))
    assert table.classes == ("credit", "swaps", "options", "forwards")
    assert dict(table.rows)["Alpha"] == (4.0, 3.0, 2.0, 1.0)


def test_load_notionals_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dealer,swaps\nAlpha,1\nBeta,1,2\n")
    with pytest.raises(ConfigError, match=":3"):
        load_notionals(str(path))
    # blank lines are skipped but still counted
    path.write_text("dealer,swaps,credit\n\nA,1,2\n  \nB,x,3\n")
    with pytest.raises(ConfigError, match="bad.csv:5: non-numeric notional"):
        load_notionals(str(path))


def test_load_notionals_rejects_negative(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("dealer,swaps\nAlpha,-1\n")
    with pytest.raises(ConfigError, match="negative"):
        load_notionals(str(path))


def test_load_notionals_rejects_non_numeric(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("dealer,swaps\nAlpha,abc\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        load_notionals(str(path))


def test_load_notionals_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_notionals(str(path))
    path.write_text("dealer,swaps\n")
    with pytest.raises(ConfigError, match="empty.csv: no dealer rows"):
        load_notionals(str(path))


def test_load_notionals_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_notionals("/nonexistent/table.csv")


def test_load_notionals_requires_dealer_column(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("name,swaps\nAlpha,1\n")
    with pytest.raises(ConfigError, match="dealer"):
        load_notionals(str(path))
    path.write_text("dealer\nAlpha\n")
    with pytest.raises(ConfigError, match="hdr.csv: no asset-class columns"):
        load_notionals(str(path))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def test_run_config_defaults():
    rc = RunConfig()
    assert rc.notionals == "occ-2009q1"
    assert rc.beta_for("swaps") == 0.0039
    assert rc.beta_for("credit") == 0.0098
    assert rc.w_for("irs_ccp", "swaps") == 0.90
    assert rc.w_for("cds_ccp", "credit") == 0.85
    assert rc.paths == 1_000_000
    assert rc.mirror_dealers is True


def test_parse_run_config_full():
    rc = parse_run_config(
        """
        # comment
        notionals = occ-2010q4
        rho = 0.1
        beta.swaps = 0.004
        marginal.credit = t3
        scenario.irs_ccp.w.swaps = 0.8
        paths = 5000
        seed = 42
        mirror_dealers = false
        out_dir = results
        """
    )
    assert rc.notionals == "occ-2010q4"
    assert rc.rho == 0.1
    assert rc.beta_for("swaps") == 0.004
    assert rc.marginals["credit"] == "t3"
    assert rc.w_for("irs_ccp", "swaps") == 0.8
    assert rc.w_for("two_ccps", "swaps") == 0.9  # override was scenario-scoped
    assert rc.paths == 5000
    assert rc.seed == 42
    assert rc.mirror_dealers is False
    assert rc.out_dir == "results"


def test_parse_run_config_unknown_key():
    with pytest.raises(ConfigError, match="config line 1: unknown config key 'pathz'"):
        parse_run_config("pathz = 100")
    with pytest.raises(ConfigError, match="config line 3: unknown config key"):
        parse_run_config("paths = 2000\n\nscenario.irs_ccp.b.swaps = 1")


def test_parse_run_config_bad_values():
    with pytest.raises(ConfigError, match="config line 2: unknown scenario id"):
        parse_run_config("# scenario weights\nscenario.super_ccp.w.swaps = 0.5")
    with pytest.raises(ConfigError, match="config line 1: mirror_dealers must be"):
        parse_run_config("mirror_dealers = maybe")
    with pytest.raises(ConfigError, match="config line 1: expected"):
        parse_run_config("rho")


def test_parse_run_config_paths_relative_to_base_dir():
    """A config file's notional table and output directory are read from
    its directory; absolute paths and built-in table names stay as given."""
    rc = parse_run_config("notionals = t.csv\nout_dir = sub/out", base_dir="conf")
    assert rc.notionals == os.path.join("conf", "t.csv")
    assert rc.out_dir == os.path.join("conf", "sub", "out")
    rc = parse_run_config("notionals = occ-2010q4\nout_dir = /abs/out", base_dir="conf")
    assert (rc.notionals, rc.out_dir) == ("occ-2010q4", "/abs/out")
    assert parse_run_config("out_dir = out").out_dir == "out"


def test_build_market_rejects_missing_table_and_unknown_marginal():
    """The market build checks that the notional table exists, so a flag can
    still replace a config's missing table. A marginal law is checked where
    its text is read, and again by the build for a RunConfig made in code."""
    rc = parse_run_config("notionals = /missing/file.csv")
    with pytest.raises(ConfigError, match="config line 1: marginal must be gaussian or t3"):
        parse_run_config("marginal.credit = cauchy")
    rc.marginals["credit"] = "cauchy"
    with pytest.raises(ConfigError, match="notional table not found: '/missing/file.csv'"):
        build_market(rc)
    rc.notionals = "occ-2009q1"
    with pytest.raises(ConfigError, match="marginal must be gaussian or t3, got 'cauchy'"):
        build_market(rc)


def test_build_market_mirroring_and_classes():
    config, scenarios, assumptions = build_market(RunConfig())
    assert config.n_dealers == 20
    assert config.dealers[10].name == "JP Morgan Chase (EU)"
    assert config.dealers[10].notionals == config.dealers[0].notionals
    assert [c.beta for c in config.classes] == [0.0039, 0.0039, 0.0039, 0.0098]
    assert len(scenarios) == 5
    assert any("mirrored" in a for a in assumptions)

    plain, _, no_assume = build_market(RunConfig(mirror_dealers=False))
    assert plain.n_dealers == 10
    assert no_assume == ()


def test_build_market_marginal_and_w_overrides():
    rc = RunConfig(marginals={"credit": "t3"})
    rc.scenario_w[("joint_ccp", "swaps")] = 0.5
    config, scenarios, _ = build_market(rc)
    assert config.classes[3].marginal is Marginal.STUDENT_T3
    joint = next(s for s in scenarios if s.name == "joint_ccp")
    fractions = {c.class_id: c.fraction for c in joint.cleared}
    assert fractions[2] == 0.5  # overridden
    assert fractions[3] == 0.85  # shared default
    irs = next(s for s in scenarios if s.name == "irs_ccp")
    assert irs.cleared[0].fraction == 0.9


def test_build_market_rejects_unknown_class_settings():
    with pytest.raises(ConfigError, match="unknown class"):
        build_market(RunConfig(betas={"bonds": 0.01}))
    with pytest.raises(ConfigError, match="unknown class"):
        build_market(RunConfig(marginals={"bonds": "t3"}))
    rc = RunConfig()
    rc.w["bonds"] = 0.5
    with pytest.raises(ConfigError, match="unknown class"):
        build_market(rc)
    rc = RunConfig()
    rc.scenario_w[("irs_ccp", "bonds")] = 0.5
    with pytest.raises(ConfigError, match="unknown class"):
        build_market(rc)
    with pytest.raises(ConfigError, match="gaussian or t3"):
        build_market(RunConfig(marginals={"credit": "cauchy"}))
    # a fraction for a known class that its scenarios do not clear
    rc = RunConfig()
    rc.w["forwards"] = 0.5
    with pytest.raises(ConfigError, match="'forwards' changes nothing: no scenario clears"):
        build_market(rc)
    for scen_id, cls in [("no_ccp", "swaps"), ("irs_ccp", "credit"), ("cds_ccp", "forwards")]:
        rc = RunConfig()
        rc.scenario_w[(scen_id, cls)] = 0.5
        with pytest.raises(
            ConfigError,
            match=rf"scenario\.{scen_id}\.w\.{cls} changes nothing: "
            rf"scenario '{scen_id}' does not clear '{cls}'",
        ):
            build_market(rc)
    # a shared fraction that every scenario clearing its class overrides
    overrides = {(sid, "credit"): 0.7 for sid in ("cds_ccp", "two_ccps", "joint_ccp")}
    rc = RunConfig(w={"credit": 0.5}, scenario_w=dict(overrides))
    with pytest.raises(
        ConfigError,
        match="'credit' changes nothing: every scenario clearing it overrides it "
        r"\(cds_ccp, two_ccps, joint_ccp\)",
    ):
        build_market(rc)
    # the defaults are not settings: the same overrides alone are accepted,
    # and so is the shared fraction once one scenario reads it
    build_market(RunConfig(scenario_w=dict(overrides)))
    del overrides[("two_ccps", "credit")]
    scenarios = build_market(RunConfig(w={"credit": 0.5}, scenario_w=overrides))[1]
    assert scenarios[3].cleared[1].fraction == 0.5
    # a zero fraction for a cleared class still takes effect
    rc = RunConfig()
    rc.w["swaps"] = 0.0
    rc.scenario_w[("two_ccps", "credit")] = 0.0
    scenarios = build_market(rc)[1]
    assert scenarios[1].clears_nothing and scenarios[3].cleared[1].fraction == 0.0


def test_build_market_requires_standard_classes(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("dealer,metals\nAlpha,1\nBeta,2\n")
    with pytest.raises(ConfigError, match="swaps"):
        build_market(RunConfig(notionals=str(path)))


# ---------------------------------------------------------------------------
# Report round-trips
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    config, scenarios, assumptions = build_market(
        RunConfig(paths=2000, seed=13, mirror_dealers=False)
    )
    report = montecarlo.simulate(config, scenarios, 2000, 13, collect_histograms=True)
    return dataclasses.replace(report, assumptions=assumptions)


def test_report_files_and_round_trip(small_report, tmp_path):
    files = write_report(small_report, str(tmp_path / "out"))
    assert set(files) >= {"ratios_expected_exposure", "mean_max", "dump", "histograms"}
    loaded = load_report(files["dump"])
    assert reports_equal(small_report, loaded)
    # ratios are derived, so they round-trip identically too
    assert np.array_equal(small_report.total_ee_ratio, loaded.total_ee_ratio)


def test_ratio_table_reference_cell(tmp_path):
    """On the default mirrored market the written EE ratio table shows the
    largest dealer's swaps-CCP cell near the reference 0.72."""
    config, scenarios, assumptions = build_market(RunConfig())
    report = montecarlo.simulate(config, scenarios, 20_000, 101, threads=2)
    report = dataclasses.replace(report, assumptions=assumptions)
    files = write_report(report, str(tmp_path / "ref"))
    with open(files["ratios_expected_exposure"]) as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    header = rows[0]
    jpm = next(r for r in rows if r[0] == "JP Morgan Chase")
    cell = float(jpm[header.index("irs_ccp")])
    assert cell == pytest.approx(0.72, abs=0.02)
    total = next(r for r in rows if r[0] == "TOTAL")
    assert float(total[header.index("irs_ccp")]) == pytest.approx(0.74, abs=0.02)


def test_report_round_trips_recorded_inputs(small_report, tmp_path):
    rc = RunConfig(paths=2000, seed=13, mirror_dealers=False, rho=0.1, w={"swaps": 0.8})
    config, scenarios, _ = build_market(rc)
    inputs = dataio.recorded_inputs(rc, config, scenarios)
    assert inputs["rho"] == 0.1 and inputs["mirror_dealers"] is False
    assert inputs["scenario.irs_ccp.w.swaps"] == inputs["scenario.joint_ccp.w.swaps"] == 0.8
    report = dataclasses.replace(small_report, inputs=inputs)
    loaded = load_report(write_report(report, str(tmp_path / "out"))["dump"])
    assert reports_equal(report, loaded) and list(loaded.inputs) == list(inputs)


def test_report_base_column_is_exactly_one(small_report, tmp_path):
    files = write_report(small_report, str(tmp_path / "out"))
    with open(files["ratios_expected_exposure"]) as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    header = rows[0]
    col = header.index("no_ccp")
    for row in rows[1:]:
        assert row[col] == "1"


def test_report_bytes_are_reproducible(small_report, tmp_path):
    files_a = write_report(small_report, str(tmp_path / "a"))
    files_b = write_report(small_report, str(tmp_path / "b"))
    for name in files_a:
        with open(files_a[name], "rb") as fa, open(files_b[name], "rb") as fb:
            assert fa.read() == fb.read()


def test_report_metadata_headers(small_report, tmp_path):
    files = write_report(small_report, str(tmp_path / "out"))
    text = Path(files["dump"]).read_text()
    assert "# seed = 13" in text
    assert "# paths = 2000" in text
    assert "# base_scenario = no_ccp" in text


def test_load_report_reads_dump_with_backend_header(small_report, tmp_path):
    """Older dumps carry a ``# backend`` header line; they still load to
    the same report."""
    files = write_report(small_report, str(tmp_path / "out"))
    text = Path(files["dump"]).read_text()
    old = tmp_path / "old.csv"
    old.write_text(text.replace("# level", "# backend = cython\n# level", 1))
    assert "# backend = cython" in old.read_text()
    assert reports_equal(small_report, load_report(str(old)))


def test_load_report_reads_var99_names_at_any_level(small_report, tmp_path):
    """Dumps written before the tail measures were named from the level call
    them var99 and es99 whatever the level; they still load."""
    report = dataclasses.replace(small_report, level=0.95)
    files = write_report(report, str(tmp_path / "out"))
    text = Path(files["dump"]).read_text()
    assert ",var95," in text and ",es95_exceedances," in text
    old = tmp_path / "old.csv"
    old.write_text(text.replace(",var95,", ",var99,").replace(",es95", ",es99"))
    assert ",var95," not in old.read_text()
    for path in (files["dump"], str(old)):
        assert reports_equal(report, load_report(path))


def _golden_report():
    """Two dealers, three scenarios at level 0.975; Beta's base cells are 0,
    so its ratios are nan. Built by hand, so no BLAS enters the bytes."""
    return montecarlo.RiskReport(
        dealer_names=("Alpha", "Beta, Inc."),
        scenario_names=("no_ccp", "irs_ccp", "joint_ccp"),
        n_paths=4000,
        seed=7,
        level=0.975,
        ee=np.array([[2.0, 0.0], [1.5, 0.25], [1.0, 0.1 + 0.2]]),
        ee_se=np.array([[0.01, 0.0], [0.02, 0.005], [0.0125, 0.01 / 3]]),
        var=np.array([[5.0, 0.0], [4.0, 0.5], [3.0, 1 / 3]]),
        es=np.array([[6.0, 0.0], [5.5, 0.75], [4.0, 0.5]]),
        es_exceedances=np.array([[100, 0], [100, 101], [100, 101]]),
        mean_max=np.array([2.5, 1.75, 1.125]),
        base_index=0,
        assumptions=("mirrored dealers: one-to-one", "t3 credit = fat tails"),
        histograms={
            "irs_ccp": (np.array([-1.0, 0.0, 0.5]), np.array([3, 5])),
            "joint_ccp": (np.array([-2.0, 1.0]), np.array([8])),
        },
    )


_GOLDEN_HEAD = """\
# ccpnet risk report
# seed = 7
# paths = 4000
# level = 0.975
# base_scenario = no_ccp
# assumption = mirrored dealers: one-to-one
# assumption = t3 credit = fat tails
"""

_GOLDEN_BODIES = {
    "ratios_expected_exposure.csv": """\
dealer,no_ccp,irs_ccp,joint_ccp
Alpha,1,0.75,0.5
"Beta, Inc.",nan,nan,nan
TOTAL,1,0.875,0.65
""",
    "ratios_var97.5.csv": """\
dealer,no_ccp,irs_ccp,joint_ccp
Alpha,1,0.8,0.6
"Beta, Inc.",nan,nan,nan
""",
    "ratios_es97.5.csv": """\
dealer,no_ccp,irs_ccp,joint_ccp
Alpha,1,0.916667,0.666667
"Beta, Inc.",nan,nan,nan
""",
    "mean_max.csv": """\
scenario,mean_max_millions,ratio_to_base
no_ccp,2.5,1
irs_ccp,1.75,0.7
joint_ccp,1.125,0.45
""",
    "report.csv": """\
dealer,scenario,measure,value,ratio_to_base,std_error
Alpha,no_ccp,ee,2.0,1.0,0.01
Alpha,no_ccp,var97.5,5.0,1.0,
Alpha,no_ccp,es97.5,6.0,1.0,
Alpha,no_ccp,es97.5_exceedances,100,,
"Beta, Inc.",no_ccp,ee,0.0,nan,0.0
"Beta, Inc.",no_ccp,var97.5,0.0,nan,
"Beta, Inc.",no_ccp,es97.5,0.0,nan,
"Beta, Inc.",no_ccp,es97.5_exceedances,0,,
__total__,no_ccp,total_ee,2.0,1.0,
__max__,no_ccp,mean_max,2.5,1.0,
Alpha,irs_ccp,ee,1.5,0.75,0.02
Alpha,irs_ccp,var97.5,4.0,0.8,
Alpha,irs_ccp,es97.5,5.5,0.9166666666666666,
Alpha,irs_ccp,es97.5_exceedances,100,,
"Beta, Inc.",irs_ccp,ee,0.25,nan,0.005
"Beta, Inc.",irs_ccp,var97.5,0.5,nan,
"Beta, Inc.",irs_ccp,es97.5,0.75,nan,
"Beta, Inc.",irs_ccp,es97.5_exceedances,101,,
__total__,irs_ccp,total_ee,1.75,0.875,
__max__,irs_ccp,mean_max,1.75,0.7,
Alpha,joint_ccp,ee,1.0,0.5,0.0125
Alpha,joint_ccp,var97.5,3.0,0.6,
Alpha,joint_ccp,es97.5,4.0,0.6666666666666666,
Alpha,joint_ccp,es97.5_exceedances,100,,
"Beta, Inc.",joint_ccp,ee,0.30000000000000004,nan,0.0033333333333333335
"Beta, Inc.",joint_ccp,var97.5,0.3333333333333333,nan,
"Beta, Inc.",joint_ccp,es97.5,0.5,nan,
"Beta, Inc.",joint_ccp,es97.5_exceedances,101,,
__total__,joint_ccp,total_ee,1.3,0.65,
__max__,joint_ccp,mean_max,1.125,0.45,
""",
    "histograms.csv": """\
scenario,bin_left,bin_right,count
irs_ccp,-1.0,0.0,3
irs_ccp,0.0,0.5,5
joint_ccp,-2.0,1.0,8
""",
}


def _golden_bytes(head, body):
    # header lines end in \n, the csv module ends each row in \r\n
    return (head + body.replace("\n", "\r\n")).encode()


def test_write_report_golden_bytes(tmp_path):
    """Every byte that write_report emits, with and without a base scenario."""
    report = _golden_report()
    files = write_report(report, str(tmp_path / "based"))
    assert sorted(os.path.basename(p) for p in files.values()) == sorted(_GOLDEN_BODIES)
    for name, body in _GOLDEN_BODIES.items():
        assert (tmp_path / "based" / name).read_bytes() == _golden_bytes(
            _GOLDEN_HEAD, body
        ), name

    plain = dataclasses.replace(report, base_index=None, histograms=None)
    with pytest.raises(ValueError, match="no no-CCP base scenario"):
        plain.ee_ratio
    files = write_report(plain, str(tmp_path / "plain"))
    assert sorted(os.path.basename(p) for p in files.values()) == [
        "mean_max.csv", "report.csv"
    ]
    head = _GOLDEN_HEAD.replace("# base_scenario = no_ccp\n", "")
    assert (tmp_path / "plain" / "mean_max.csv").read_bytes() == _golden_bytes(
        head, "scenario,mean_max_millions\nno_ccp,2.5\nirs_ccp,1.75\njoint_ccp,1.125\n"
    )
    # the based dump with every ratio_to_base cell empty
    dump = (tmp_path / "plain" / "report.csv").read_bytes()
    assert hashlib.sha256(dump).hexdigest() == (
        "678404cb3bbaaf0ae1db11d6ed300a595c949bb44b3c16ab1644aec7d8c0e3fb"
    )


_NAME_CHARS = st.characters(codec="utf-8", exclude_categories=("Cc", "Cs"))


@st.composite
def _drawn_reports(draw):
    dealers = draw(
        st.lists(
            st.sampled_from(["#1 Bank", 'Say "Bank"', "Beta, Inc.", "# seed = 5"])
            | st.text(_NAME_CHARS, min_size=1, max_size=12),
            min_size=1,
            max_size=4,
            unique=True,
        ).filter(lambda names: not set(names) & set(RESERVED_DEALER_NAMES))
    )
    scenarios = ("no_ccp", "irs_ccp", "joint_ccp")[: draw(st.integers(1, 3))]
    shape = (len(scenarios), len(dealers))
    n_paths = draw(st.integers(1000, 10**9))
    # exact zeros in the base row make nan ratios; no ratio overflows
    values = st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1e6)
    var = draw(arrays(np.float64, shape, elements=values))
    # a run's ES is the mean of the values above its VaR, or VaR itself
    es = np.maximum(var, draw(arrays(np.float64, shape, elements=values)))
    return montecarlo.RiskReport(
        dealer_names=tuple(dealers),
        scenario_names=scenarios,
        n_paths=n_paths,
        seed=draw(st.integers(0, 2**128 - 1)),
        level=draw(st.sampled_from([0.99, 0.975, 0.999]) | st.floats(1e-9, 1 - 1e-9)),
        ee=draw(arrays(np.float64, shape, elements=values)),
        ee_se=draw(arrays(np.float64, shape, elements=values)),
        var=var,
        es=es,
        es_exceedances=draw(arrays(np.int64, shape, elements=st.integers(0, min(n_paths, 10**6)))),
        mean_max=draw(arrays(np.float64, shape[0], elements=values)),
        base_index=draw(st.none() | st.integers(0, len(scenarios) - 1)),
        assumptions=tuple(
            draw(st.lists(st.text(_NAME_CHARS, max_size=20).map(str.strip), max_size=2))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(report=_drawn_reports())
def test_report_round_trip_property(report):
    """load_report gives back every field write_report wrote, and writing
    the loaded report again gives the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first = write_report(report, os.path.join(tmp, "first"))
        loaded = load_report(first["dump"])
        assert reports_equal(report, loaded)
        again = write_report(loaded, os.path.join(tmp, "again"))
        assert again.keys() == first.keys()
        for name, path in first.items():
            with open(path, "rb") as fa, open(again[name], "rb") as fb:
                assert fa.read() == fb.read(), name


def test_load_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        load_report(str(path))


def test_write_histograms_requires_data(small_report, tmp_path):
    plain = montecarlo.simulate(
        *_rebuild_small(), 2000, 13
    )
    with pytest.raises(ValueError):
        dataio.write_histograms(plain, str(tmp_path / "h.csv"))


def _rebuild_small():
    config, scenarios, _ = build_market(
        RunConfig(paths=2000, seed=13, mirror_dealers=False)
    )
    return config, scenarios
