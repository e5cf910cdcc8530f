"""Closed-form exposures vs independent quadrature oracles, plus the
homogeneous threshold model against its published reference values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpnet import analytic, dataio
from ccpnet.analytic import (
    gaussian_positive_mean,
    homogeneous_ee,
    min_clearing_members,
    scenario_expected_exposures,
    threshold_surface,
)
from ccpnet.market import (
    ConfigError,
    HomogeneousSpec,
    Marginal,
    joint_ccp,
    no_ccp,
    single_ccp,
    two_ccps,
)
from helpers import (
    make_config,
    oracle_min_clearing_members,
    quad_bilateral_ee,
    quad_positive_mean,
)


def _ee(config, scenario):
    """Closed-form expected exposure of every dealer under one scenario."""
    return scenario_expected_exposures(config, scenario).per_dealer


def test_gaussian_positive_mean_values():
    assert gaussian_positive_mean(1.0) == pytest.approx(0.3989422804014327, rel=1e-15)
    assert gaussian_positive_mean(0.0) == 0.0
    assert gaussian_positive_mean(2.0) == pytest.approx(0.7978845608028654, rel=1e-15)
    with pytest.raises(ValueError):
        gaussian_positive_mean(-1.0)


def test_gaussian_positive_mean_matches_quadrature():
    for sigma in (0.3, 1.0, 7.5):
        assert gaussian_positive_mean(sigma) == pytest.approx(
            quad_positive_mean(sigma), rel=1e-9
        )


def test_bilateral_single_pair_unit_scale():
    config = make_config([[1.0], [1.0]], betas=[1.0])
    assert _ee(config, no_ccp())[0] == pytest.approx(
        0.3989422804014327, rel=1e-14
    )


def test_bilateral_three_dealers_two_classes():
    # two counterparties, each pair sum has std sqrt(2)/2; total EE = 1/sqrt(pi)
    config = make_config(np.ones((3, 2)), betas=[1.0, 1.0], rho=0.0)
    expected = 0.5641895835477563  # frozen from the quadrature oracle below
    got = _ee(config, no_ccp())[0]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(quad_bilateral_ee(config, 0), rel=5e-7)


def test_bilateral_matches_quadrature_on_correlated_market():
    rng = np.random.default_rng(42)
    config = make_config(
        rng.uniform(0.5, 20.0, size=(4, 3)), betas=[0.4, 1.3, 0.02], rho=0.25
    )
    bilateral = _ee(config, no_ccp())
    for i in range(4):
        assert bilateral[i] == pytest.approx(quad_bilateral_ee(config, i), rel=5e-7)


def test_one_ccp_with_zero_fraction_is_bilateral():
    rng = np.random.default_rng(3)
    config = make_config(rng.uniform(0.1, 10.0, (4, 2)), betas=[0.5, 1.5], rho=0.1)
    idle, bilateral = _ee(config, single_ccp(1, 0.0)), _ee(config, no_ccp())
    for i in range(4):
        assert idle[i] == pytest.approx(bilateral[i], rel=0.0, abs=0.0)


def test_one_ccp_full_clearing_single_class():
    # three equal dealers, one fully cleared class: only the CCP term remains
    config = make_config(np.ones((3, 1)), betas=[1.0])
    got = _ee(config, single_ccp(0, 1.0))[0]
    assert got == pytest.approx(0.28209479177387814, rel=1e-14)


def test_two_ccp_reductions():
    rng = np.random.default_rng(11)
    config = make_config(rng.uniform(0.1, 10.0, (4, 3)), betas=[0.5, 1.5, 1.0], rho=0.2)
    bilateral, one = _ee(config, no_ccp()), _ee(config, single_ccp(2, 0.85))
    both_zero = _ee(config, two_ccps([(1, 0.0), (2, 0.0)]))
    one_zero = _ee(config, two_ccps([(1, 0.0), (2, 0.85)]))
    for i in range(4):
        assert both_zero[i] == bilateral[i]
        assert one_zero[i] == pytest.approx(one[i], rel=1e-14)


def test_joint_of_single_class_equals_one_ccp():
    rng = np.random.default_rng(5)
    config = make_config(rng.uniform(0.1, 10.0, (3, 2)), betas=[1.0, 2.0], rho=0.3)
    joint, one = _ee(config, joint_ccp([(1, 0.7)])), _ee(config, single_ccp(1, 0.7))
    for i in range(3):
        assert joint[i] == pytest.approx(one[i], rel=0.0, abs=0.0)


@given(
    seed=st.integers(0, 10_000),
    rho=st.floats(0.0, 0.8),
    w1=st.floats(0.0, 1.0),
    w2=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_joint_never_exceeds_two_ccps(seed, rho, w1, w2):
    rng = np.random.default_rng(seed)
    config = make_config(rng.uniform(0.1, 10.0, (3, 3)), betas=[1.0, 0.5, 2.0], rho=rho)
    joint = _ee(config, joint_ccp([(0, w1), (2, w2)]))
    two = _ee(config, two_ccps([(0, w1), (2, w2)]))
    for i in range(3):
        assert joint[i] <= two[i] * (1 + 1e-12) + 1e-12


def test_closed_forms_scale_with_notionals_and_beta():
    rng = np.random.default_rng(9)
    z = rng.uniform(0.1, 10.0, (4, 2))
    config = make_config(z, betas=[0.5, 1.5], rho=0.1)
    doubled_z = make_config(2.0 * z, betas=[0.5, 1.5], rho=0.1)
    doubled_b = make_config(z, betas=[1.0, 3.0], rho=0.1)
    scen = single_ccp(1, 0.6)
    base, ee_z, ee_b = (_ee(c, scen) for c in (config, doubled_z, doubled_b))
    for i in range(4):
        assert ee_z[i] == 2.0 * base[i]
        assert ee_b[i] == 2.0 * base[i]


def test_closed_forms_reject_t_marginals():
    config = make_config(
        np.ones((2, 2)),
        betas=[1.0, 1.0],
        marginals=[Marginal.GAUSSIAN, Marginal.STUDENT_T3],
    )
    with pytest.raises(ConfigError):
        scenario_expected_exposures(config, no_ccp())


def test_closed_forms_reject_invalid_config():
    config = make_config([[1.0]], betas=[1.0])
    with pytest.raises(ConfigError):
        scenario_expected_exposures(config, no_ccp())


def test_dealer_table_ratios(paper_market):
    """Benchmark dealer: clearing swaps at 90% cuts its expected exposure to
    ~0.72 of bilateral; adding the credit CCP and then merging the CCPs
    keeps improving it."""
    config, _, _ = paper_market
    base = _ee(config, no_ccp())[0]
    irs = _ee(config, single_ccp(2, 0.90))[0] / base
    cds = _ee(config, single_ccp(3, 0.85))[0] / base
    two = _ee(config, two_ccps([(2, 0.90), (3, 0.85)]))[0] / base
    joint = _ee(config, joint_ccp([(2, 0.90), (3, 0.85)]))[0] / base
    assert irs == pytest.approx(0.72, abs=0.01)
    assert cds == pytest.approx(1.03, abs=0.01)
    assert two == pytest.approx(0.65, abs=0.01)
    assert joint == pytest.approx(0.57, abs=0.011)


def test_total_ratios_drop_with_correlation():
    """Positive cross-class correlation weakens bilateral netting, so every
    cleared scenario's total-EE ratio falls when rho rises to 0.1."""
    ratios = {}
    for rho in (0.0, 0.1):
        cfg, scens, _ = dataio_build(rho)
        totals = {s.name: scenario_expected_exposures(cfg, s).total for s in scens}
        ratios[rho] = {k: v / totals["no_ccp"] for k, v in totals.items()}
    for name in ("irs_ccp", "cds_ccp", "two_ccps", "joint_ccp"):
        assert ratios[0.1][name] <= ratios[0.0][name] + 1e-12


def dataio_build(rho):
    rc = dataio.RunConfig(rho=rho)
    return dataio.build_market(rc)


def test_scenario_expected_exposures_totals(paper_market):
    config, scenarios, _ = paper_market
    res = scenario_expected_exposures(config, scenarios[0])
    assert res.total == pytest.approx(sum(res.per_dealer), rel=0.0)
    assert all(v >= 0 for v in res.per_dealer)


# ---------------------------------------------------------------------------
# Homogeneous threshold model
# ---------------------------------------------------------------------------


def _bis_spec(alpha_cds=1.0, rho=0.0):
    base = dataio.builtin_credit_exposures("bis-2010h1")
    alphas = list(base.alphas)
    alphas[base.cleared_class] = alpha_cds
    return HomogeneousSpec(
        credit_exposures=base.credit_exposures,
        alphas=tuple(alphas),
        rho=rho,
        cleared_class=base.cleared_class,
        class_names=base.class_names,
    )


def test_single_class_threshold_ratio():
    spec = HomogeneousSpec((5.0,), (1.0,), 0.0, 0)
    for n in (2, 5, 17):
        ratio = homogeneous_ee(spec, n, True) / homogeneous_ee(spec, n, False)
        assert ratio == pytest.approx(1.0 / math.sqrt(n - 1), rel=1e-12)


def test_homogeneous_rejects_small_n():
    spec = HomogeneousSpec((1.0,), (1.0,), 0.0, 0)
    with pytest.raises(ConfigError):
        homogeneous_ee(spec, 1, False)


@pytest.mark.parametrize(
    "alpha_cds,rho,expected",
    [(1.0, 0.0, 461), (3.0, 0.0, 54), (3.0, 0.1, 17), (2.0, 0.2, 11)],
)
def test_min_clearing_members_reference_values(alpha_cds, rho, expected):
    assert min_clearing_members(_bis_spec(alpha_cds, rho)).n_star == expected


def test_min_clearing_members_equal_classes():
    # six equal classes, one cleared: crossing at sqrt(N-1) > 1/(sqrt(6)-sqrt(5))
    spec = HomogeneousSpec((1.0,) * 6, (1.0,) * 6, 0.0, 5)
    result = min_clearing_members(spec)
    assert result.n_star == 23
    # brute scan as an independent check on the crossing
    crossing = next(
        n
        for n in range(2, 200)
        if homogeneous_ee(spec, n, True) < homogeneous_ee(spec, n, False)
    )
    assert crossing == result.n_star


def _oracle_outcome(spec, w):
    try:
        return oracle_min_clearing_members(spec, w)
    except ConfigError as exc:
        return str(exc)


def _outcome(spec, w):
    try:
        return min_clearing_members(spec, w).n_star
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "spec,w,expected",
    [
        (_bis_spec(1.0, 0.0), 1.0, 461),
        (_bis_spec(3.0, 0.0), 1.0, 54),
        (_bis_spec(3.0, 0.1), 1.0, 17),
        (_bis_spec(2.0, 0.2), 1.0, 11),
        # one class: the curves tie exactly at N=2
        (HomogeneousSpec((1.0,), (1.0,), 0.0, 0), 1.0, 3),
        (HomogeneousSpec((1.0,) * 6, (1.0,) * 6, 0.0, 5), 1.0, 23),
        # above 100,000 members: the window branch
        (_bis_spec(0.02, 0.0), 0.05, 301_006),
        (_bis_spec(0.005, 0.0), 0.5, 8_139_144),
        # n* ~ 4.6e8, where the curves flicker in rounding noise
        (_bis_spec(0.001, 0.0), 1.0, "expected-exposure curves cross more than once"),
    ],
)
def test_threshold_matches_scan_oracle(spec, w, expected):
    assert _oracle_outcome(spec, w) == expected
    assert _outcome(spec, w) == expected


@pytest.mark.parametrize("w", [1.0, 0.5, 0.05])
def test_surface_matches_scan_oracle(w):
    spec = _bis_spec()
    alphas, rhos = np.linspace(0.25, 3.0, 40), np.linspace(0.0, 0.5, 40)
    surf = threshold_surface(spec, alphas, rhos, w=w)
    expected = [
        [oracle_min_clearing_members(_bis_spec(a, r), w) for r in rhos.tolist()]
        for a in alphas.tolist()
    ]
    assert surf.tolist() == expected


def test_threshold_curves_cross_at_n_star():
    result = min_clearing_members(_bis_spec(3.0, 0.1))
    n = result.n_star
    assert result.ccp_ee(n) < result.bilateral_ee(n)
    assert result.ccp_ee(n - 1) >= result.bilateral_ee(n - 1)


def test_threshold_invariant_under_ce_rescaling():
    base = _bis_spec(3.0, 0.1)
    scaled = HomogeneousSpec(
        credit_exposures=tuple(3.7 * c for c in base.credit_exposures),
        alphas=base.alphas,
        rho=base.rho,
        cleared_class=base.cleared_class,
    )
    assert min_clearing_members(scaled).n_star == min_clearing_members(base).n_star


def test_threshold_handles_extreme_specs():
    # nearly riskless cleared class: the threshold explodes into the millions
    # and the verification must switch to a bounded window around it
    spec = HomogeneousSpec((1000.0, 1.0), (1.0, 1.0), 0.0, 1)
    result = min_clearing_members(spec)
    assert result.n_star > 1_000_000
    assert result.ccp_ee(result.n_star) < result.bilateral_ee(result.n_star)
    assert result.ccp_ee(result.n_star - 1) >= result.bilateral_ee(result.n_star - 1)


def test_threshold_rejects_zero_fraction():
    with pytest.raises(ConfigError):
        min_clearing_members(_bis_spec(), w=0.0)


def test_surface_corner_and_monotonicity():
    spec = _bis_spec()
    alphas = np.array([1.0, 2.0, 3.0])
    rhos = np.array([0.0, 0.1, 0.2])
    surf = threshold_surface(spec, alphas, rhos)
    assert surf[0, 0] == 461
    assert surf[2, 1] == 17
    assert (np.diff(surf, axis=0) <= 0).all()
    assert (np.diff(surf, axis=1) <= 0).all()


def test_surface_single_cell_matches_threshold():
    spec = _bis_spec()
    surf = threshold_surface(spec, [3.0], [0.1])
    assert surf.shape == (1, 1)
    assert surf[0, 0] == min_clearing_members(_bis_spec(3.0, 0.1)).n_star


def test_surface_rejects_bad_grids():
    spec = _bis_spec()
    with pytest.raises(ConfigError):
        threshold_surface(spec, [], [0.0])
    with pytest.raises(ConfigError):
        threshold_surface(spec, [1.0], [1.0])
    with pytest.raises(ConfigError):
        threshold_surface(spec, [-1.0], [0.0])
    with pytest.raises(ConfigError):
        threshold_surface(spec, [math.nan], [0.0])
    with pytest.raises(ConfigError):
        threshold_surface(spec, [1.0], [math.nan])
    with pytest.raises(ConfigError):
        threshold_surface(spec, [math.inf], [0.0])


def test_write_surface_format(tmp_path):
    spec = _bis_spec()
    alphas, rhos = [1.0, 3.0], [0.0, 0.1]
    surf = threshold_surface(spec, alphas, rhos)
    out = tmp_path / "surface.csv"
    analytic.write_surface(out, alphas, rhos, surf)
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,rho,n_star"
    assert len(lines) == 5
    assert lines[1] == "1.0,0.0,461"
