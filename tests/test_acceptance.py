"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete.
The Monte Carlo criteria share four cached 10^5-path runs (Gaussian and t3
credit marginals at rho 0 and 0.1), all on the bundled 2009 dealer table
with mirrored European twins.
"""

import dataclasses
import time

import numpy as np
import pytest

from ccpnet import analytic, cli, dataio
from ccpnet.dataio import RunConfig, build_market
from ccpnet.market import joint_ccp, no_ccp, single_ccp, two_ccps
from ccpnet.montecarlo import simulate, student_t3_unit_ppf
from ccpnet.market import Marginal
from helpers import (
    check_pathwise,
    copula_values,
    exposures_for_paths,
    make_config,
    oracle_exposures,
    reports_equal,
    sample_draws,
)

PATHS = 100_000
SEED = 20120601

# published reduction ratios (total EE relative to no clearing) and
# mean-of-maximum exposures (millions) for the four model rows
TOTAL_EE_TARGETS = {
    "g0": (0.74, 1.02, 0.64, 0.56),
    "t0": (0.70, 1.03, 0.64, 0.56),
    "g1": (0.73, 0.99, 0.62, 0.55),
}
MEAN_MAX_TARGETS = {
    "g0": (136_460, 114_340, 138_830, 108_110, 103_190),
    "g1": (145_040, 120_440, 144_850, 113_130, 109_160),
    "t0": (136_020, 111_630, 138_480, 107_770, 103_070),
    "t1": (144_140, 117_500, 144_370, 112_650, 108_820),
}


def _record(name, ok, detail=""):
    import sys

    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    # write through to the real stdout so the line survives pytest capture
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def paper_runs():
    runs = {}
    t0 = time.perf_counter()
    for label, rho, t3 in [
        ("g0", 0.0, False),
        ("g1", 0.1, False),
        ("t0", 0.0, True),
        ("t1", 0.1, True),
    ]:
        rc = RunConfig(
            rho=rho,
            marginals={"credit": "t3"} if t3 else {},
            paths=PATHS,
            seed=SEED,
        )
        config, scenarios, assumptions = build_market(rc)
        report = simulate(config, scenarios, rc.paths, rc.seed, threads=2)
        report = dataclasses.replace(report, assumptions=assumptions)
        runs[label] = (config, scenarios, report)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_1_threshold_exactness(capsys):
    """Member thresholds reproduce the published table exactly, in < 1 s."""
    cases = [
        (["threshold", "--ce", "bis-2010h1", "--rho", "0"], 461),
        (["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0"], 54),
        (
            ["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0.1"],
            17,
        ),
        (
            ["threshold", "--ce", "bis-2010h1", "--alpha", "credit=2", "--rho", "0.2"],
            11,
        ),
    ]
    t0 = time.perf_counter()
    got = []
    for argv, _ in cases:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        got.append(int(out.split("n_star=")[1].split()[0]))
    elapsed = time.perf_counter() - t0
    expected = [e for _, e in cases]
    _record(
        "1 threshold-exactness",
        got == expected and elapsed < 1.0,
        f"got={got} expected={expected} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_threshold_surface():
    """20x20 surface is monotone non-increasing on both axes and matches the
    exact thresholds at its shared corners, in < 5 s."""
    spec = dataio.builtin_credit_exposures("bis-2010h1")
    alphas = np.linspace(1.0, 3.0, 20)
    rhos = np.linspace(0.0, 0.2, 20)
    t0 = time.perf_counter()
    surf = analytic.threshold_surface(spec, alphas, rhos)
    elapsed = time.perf_counter() - t0
    monotone = (np.diff(surf, axis=0) <= 0).all() and (np.diff(surf, axis=1) <= 0).all()
    corners = surf[0, 0] == 461 and surf[-1, 0] == 54
    _record(
        "2 threshold-surface",
        monotone and corners and elapsed < 5.0,
        f"corners=({surf[0, 0]}, {surf[-1, 0]}) monotone={monotone} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_3_analytic_mc_agreement(paper_runs):
    """Gaussian rho=0: every dealer x scenario MC expected exposure lies
    within 3 standard errors of its closed form at 10^5 paths."""
    config, scenarios, report = paper_runs["g0"]
    worst = 0.0
    for s, scen in enumerate(scenarios):
        ref = 1000.0 * np.array(
            analytic.scenario_expected_exposures(config, scen).per_dealer
        )
        dev = np.abs(report.ee[s] - ref) / np.maximum(report.ee_se[s], 1e-12)
        worst = max(worst, float(dev.max()))
    _record(
        "3 analytic-mc-agreement",
        worst < 3.0,
        f"max |MC-analytic| = {worst:.2f} SE over "
        f"{len(scenarios) * config.n_dealers} cells",
    )


def test_criterion_4_total_ee_ratios_rho0(paper_runs):
    """Total-EE reduction ratios within 0.02 of the published Gaussian and
    t3 panels at rho=0."""
    details = []
    ok = True
    for label in ("g0", "t0"):
        report = paper_runs[label][2]
        got = report.total_ee_ratio[1:]
        target = np.array(TOTAL_EE_TARGETS[label])
        ok &= bool((np.abs(got - target) <= 0.02).all())
        details.append(f"{label}={np.round(got, 4).tolist()}")
    elapsed = paper_runs["elapsed"]
    ok &= elapsed < 300.0
    _record(
        "4 total-ee-ratios-rho0", ok, " ".join(details) + f" 4-run elapsed={elapsed:.0f}s"
    )


def test_criterion_5_total_ee_ratios_rho01(paper_runs):
    """rho=0.1 Gaussian total-EE ratios within 0.02 of the published values."""
    report = paper_runs["g1"][2]
    got = report.total_ee_ratio[1:]
    target = np.array(TOTAL_EE_TARGETS["g1"])
    _record(
        "5 total-ee-ratios-rho01",
        bool((np.abs(got - target) <= 0.02).all()),
        f"got={np.round(got, 4).tolist()} target={target.tolist()}",
    )


def test_criterion_6_mean_max_ordering(paper_runs):
    """Mean-of-maximum exposures: joint < two CCPs < IRS CCP < no clearing,
    with the CDS-only CCP close to (or above) no clearing; every value
    within 10% of its published counterpart."""
    ok = True
    details = []
    for label in ("g0", "g1", "t0", "t1"):
        report = paper_runs[label][2]
        mm = dict(zip(report.scenario_names, report.mean_max))
        ordering = (
            mm["joint_ccp"] < mm["two_ccps"] < mm["irs_ccp"] < mm["no_ccp"]
            and mm["no_ccp"] <= mm["cds_ccp"] * 1.02
        )
        target = np.array(MEAN_MAX_TARGETS[label], dtype=float)
        within = bool((np.abs(report.mean_max - target) / target <= 0.10).all())
        ok &= ordering and within
        details.append(
            f"{label}: order={ordering} max_rel_err="
            f"{float(np.abs(report.mean_max - target).max() / target.max()):.3f}"
        )
    _record("6 mean-max", ok, "; ".join(details))


def test_criterion_7_property_suite(paper_runs):
    """Always-on structural properties, independent of published numbers."""
    failures = []

    # pathwise invariants (joint <= two, e >= 0) on the paths of a small run
    config, scenarios, _ = paper_runs["g0"]
    try:
        check_pathwise(exposures_for_paths(config, scenarios, 77, 0, 2000), scenarios)
    except AssertionError as exc:
        failures.append(f"pathwise: {exc}")

    # tail measure ordering everywhere
    for label in ("g0", "g1", "t0", "t1"):
        report = paper_runs[label][2]
        if not (report.es >= report.var).all() or not (report.var >= 0).all():
            failures.append(f"{label}: ES/VaR ordering")

    # all-zero clearing fractions are bitwise the base scenario
    idle = [
        no_ccp(),
        single_ccp(2, 0.0, name="idle_irs"),
        joint_ccp([(2, 0.0), (3, 0.0)], name="idle_joint"),
    ]
    rep = simulate(config, idle, 2000, 78)
    for s in (1, 2):
        if not (
            np.array_equal(rep.ee[0], rep.ee[s])
            and np.array_equal(rep.var[0], rep.var[s])
        ):
            failures.append("w=0 not bitwise base")

    # exposures are 1-homogeneous under a global notional rescaling
    z = config.notional_matrix()
    betas = [c.beta for c in config.classes]
    a = simulate(make_config(z, betas), scenarios, 2000, 79)
    b = simulate(make_config(2.0 * z, betas), scenarios, 2000, 79)
    if not (
        np.array_equal(2.0 * a.ee, b.ee)
        and np.array_equal(2.0 * a.var, b.var)
        and np.array_equal(2.0 * a.mean_max, b.mean_max)
    ):
        failures.append("notional homogeneity")

    # same seed, different worker counts: identical report
    t1 = simulate(config, scenarios, 3000, 80, threads=1)
    t2 = simulate(config, scenarios, 3000, 80, threads=2)
    if not reports_equal(t1, t2):
        failures.append("thread determinism")

    # t3 marginal has unit variance (1e6 draws, fixed seed)
    u = np.random.Generator(np.random.Philox(key=81)).random(1_000_000)
    v = student_t3_unit_ppf(u)
    if abs(float(v.var()) - 1.0) > 0.05:
        failures.append(f"t3 variance {v.var():.3f}")

    # copula parameter recovery at 1e6 draws
    u = np.random.Generator(np.random.Philox(key=82)).random((1_000_000, 1, 3))
    y = copula_values(u, 0.1, (Marginal.GAUSSIAN, Marginal.GAUSSIAN))[:, 0, :]
    rho_hat = float(np.corrcoef(y.T)[0, 1])
    if abs(rho_hat - 0.1) > 0.01:
        failures.append(f"copula rho {rho_hat:.4f}")

    _record("7 property-suite", not failures, "; ".join(failures) or "8 properties")


def test_criterion_8_oracle_equivalence():
    """Engine exposures equal a straight-line re-implementation pathwise to
    float accumulation tolerance on randomized small markets, 10^4 paths."""
    rng = np.random.default_rng(314)
    worst = 0.0
    n_paths = 10_000
    for trial, (rho, use_t3) in enumerate([(0.0, False), (0.3, True), (0.2, False)]):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        z = rng.uniform(0.1, 10.0, (n, k))
        if n > 2:
            z[rng.integers(0, n), rng.integers(0, k)] = 0.0
        marginals = [Marginal.GAUSSIAN] * k
        if use_t3:
            marginals[-1] = Marginal.STUDENT_T3
        config = make_config(
            z, betas=rng.uniform(0.1, 2.0, k), rho=rho, marginals=marginals
        )
        scenarios = [no_ccp(), single_ccp(k - 1, 0.75, name="one")]
        if k >= 2:
            scenarios += [
                two_ccps([(k - 2, 0.9), (k - 1, 0.85)]),
                joint_ccp([(k - 2, 0.9), (k - 1, 0.85)]),
            ]
        engine = exposures_for_paths(
            config, scenarios, seed=1000 + trial, start=0, count=n_paths
        )
        draws = sample_draws(config, seed=1000 + trial, start=0, count=n_paths)
        scale = max(float(np.abs(engine).max()), 1.0)
        for c in range(n_paths):
            ref = oracle_exposures(draws[c], scenarios)
            for s, scen in enumerate(scenarios):
                ref_s = np.asarray(ref[scen.name])
                err = np.abs(engine[c, s] - ref_s)
                # relative to the cell value with one unit of problem scale as
                # the accumulation floor for near-zero exposures
                rel = err / (np.abs(ref_s) + scale)
                worst = max(worst, float(rel.max()))
    _record(
        "8 oracle-equivalence",
        worst < 1e-12,
        f"worst pathwise relative deviation = {worst:.2e}",
    )
