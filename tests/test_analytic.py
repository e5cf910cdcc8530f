"""Closed-form exposures vs independent quadrature oracles, plus the
homogeneous threshold model against its published reference values."""

import dataclasses
import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


@st.composite
def _homogeneous_specs(draw):
    k = draw(st.integers(1, 6))
    positive = st.floats(0.05, 20.0)
    return HomogeneousSpec(
        credit_exposures=tuple(draw(st.lists(positive, min_size=k, max_size=k))),
        alphas=tuple(draw(st.lists(positive, min_size=k, max_size=k))),
        rho=draw(st.floats(0.0, 0.9)),
        cleared_class=draw(st.integers(0, k - 1)),
        class_names=tuple(f"class{i}" for i in range(k)),
    )


def _left_to_right_pair_stds(spec, w):
    """A and B with every sum taken left to right in class order, as
    Python's ``sum`` added floats up to 3.11."""
    sig = [a * c for a, c in zip(spec.alphas, spec.credit_exposures)]
    resid = sig.copy()
    resid[spec.cleared_class] *= 1.0 - w

    def std(v):
        total = functools.reduce(operator.add, v, 0.0)
        squares = functools.reduce(operator.add, [x * x for x in v], 0.0)
        return math.sqrt(squares + spec.rho * (total * total - squares))

    return std(sig), std(resid)


@settings(max_examples=200, deadline=None)
@given(spec=_homogeneous_specs(), w=st.floats(0.0, 1.0))
def test_pair_stds_round_as_left_to_right_sums(spec, w):
    """The surface's bytes rest on how A and B round, and the grid tests do
    not see a reordered sum, so the order is pinned here."""
    assert analytic._stds(spec, w)[:2] == _left_to_right_pair_stds(spec, w)


def _clear_sums_memo(monkeypatch):
    monkeypatch.setattr(analytic, "_sums_memo", ((), ()))


def test_surface_computes_class_sums_once_per_alpha_row(monkeypatch):
    """The memo is replaced only when the row-sum loop runs, so recording it
    after every cell counts the loop's runs: one per alpha row, at the row's
    first cell, keyed by that row's alphas."""
    memos = []

    def solve(cell, w):
        result = min_clearing_members(cell, w)
        memos.append(analytic._sums_memo)
        return result

    monkeypatch.setattr(analytic, "min_clearing_members", solve)
    _clear_sums_memo(monkeypatch)
    spec = _bis_spec()
    alphas, rhos = np.linspace(1.0, 3.0, 7), np.linspace(0.0, 0.5, 5)
    surf = threshold_surface(spec, alphas, rhos)
    assert surf.shape == (7, 5)
    assert len(memos) == 7 * 5
    runs = [i for i, memo in enumerate(memos) if i == 0 or memo is not memos[i - 1]]
    assert runs == [0, 5, 10, 15, 20, 25, 30]
    assert [memos[i][0][0] for i in runs] == [
        _bis_spec(alpha).alphas for alpha in alphas.tolist()
    ]


def _one_key_change_specs():
    """Specs and fractions that differ from a base in exactly one component
    of the class-sum key (alphas, credit exposures, cleared class, w), plus
    one that differs only in rho, which is not part of the key."""
    base = _bis_spec(3.0, 0.1)
    c = base.cleared_class
    other_alphas = list(base.alphas)
    other_alphas[(c + 1) % base.n_classes] *= 1.5
    other_ce = list(base.credit_exposures)
    other_ce[0] *= 2.0

    def like(**changes):
        fields = dict(
            credit_exposures=base.credit_exposures,
            alphas=base.alphas,
            rho=base.rho,
            cleared_class=c,
            class_names=base.class_names,
        )
        return HomogeneousSpec(**{**fields, **changes})

    return [
        (base, 1.0),
        (like(alphas=tuple(other_alphas)), 1.0),
        (base, 1.0),
        (like(credit_exposures=tuple(other_ce)), 1.0),
        (base, 1.0),
        (like(cleared_class=(c + 2) % base.n_classes), 1.0),
        (base, 1.0),
        (base, 0.5),
        (base, 1.0),
        (like(rho=0.3), 1.0),
        (base, 1.0),
    ]


def test_class_sums_memo_never_serves_another_key(monkeypatch):
    """Alternating specs one key component apart: every result equals the
    left-to-right oracle and the solve with a cold memo, so the one-entry
    memo never hands one key's sums to another."""
    cases = _one_key_change_specs()
    expected = []
    for spec, w in cases:
        _clear_sums_memo(monkeypatch)
        expected.append(min_clearing_members(spec, w).n_star)
    _clear_sums_memo(monkeypatch)
    for (spec, w), n_star in zip(cases, expected):
        assert analytic._stds(spec, w)[:2] == _left_to_right_pair_stds(spec, w)
        assert min_clearing_members(spec, w).n_star == n_star
    assert len(set(expected)) > 1
    # w enters only as 1 - w: -0.0 and 0.0 are one key with one set of sums
    spec = cases[0][0]
    analytic._stds(spec, 0.0)[:2]
    memo = analytic._sums_memo
    for w in (0.0, -0.0, 0.0):
        assert analytic._stds(spec, w)[:2] == _left_to_right_pair_stds(spec, -0.0)
        assert analytic._sums_memo is memo


def test_threshold_result_fields_curves_and_immutability():
    spec = _bis_spec(3.0, 0.1)
    result = min_clearing_members(spec, 0.5)
    assert result == analytic.ThresholdResult(spec, 0.5, result.n_star)
    assert (result.spec, result.w) == (spec, 0.5)
    assert analytic.ThresholdResult._fields == ("spec", "w", "n_star")
    for n in (2, result.n_star, 1000):
        assert result.bilateral_ee(n) == homogeneous_ee(spec, n, with_ccp=False)
        assert result.ccp_ee(n) == homogeneous_ee(spec, n, with_ccp=True, w=0.5)
    for name, value in (("n_star", 2), ("w", 1.0), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(result, name, value)


def test_overflowing_class_stds_are_a_config_error():
    """alpha * exposure near 1e160 makes (sum v)^2 infinite, and at rho = 0
    the cross term 0 * (inf - inf) would be NaN: the spec is rejected."""
    spec = _bis_spec(1e160, 0.0)
    with pytest.raises(ConfigError, match="overflow"):
        min_clearing_members(spec)
    for with_ccp in (False, True):
        with pytest.raises(ConfigError, match="overflow"):
            homogeneous_ee(spec, 10, with_ccp)
    with pytest.raises(ConfigError, match="overflow"):
        threshold_surface(_bis_spec(), [1.0, 1e160], [0.0, 0.3])


@settings(max_examples=300, deadline=None)
@given(
    spec=_homogeneous_specs(),
    exponent=st.floats(-300.0, 300.0),
    w=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
def test_threshold_solve_returns_or_raises_config_error(spec, exponent, w):
    """Any finite cleared-class alpha, tiny or huge: the solve gives a
    threshold of at least 2 members or a ConfigError, never another error."""
    c = spec.cleared_class
    spec = dataclasses.replace(
        spec, alphas=spec.alphas[:c] + (10.0**exponent,) + spec.alphas[c + 1 :]
    )
    try:
        n_star = min_clearing_members(spec, w).n_star
    except ConfigError:
        return
    assert n_star >= 2


@settings(max_examples=60, deadline=None)
@given(
    spec=_homogeneous_specs(),
    alpha_grid=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4),
    rho_grid=st.lists(st.floats(0.0, 0.95), max_size=3).map(lambda r: [0.0] + r),
    # tiny fractions mostly give cells where the CCP never wins: keep them rare
    w=st.one_of(
        st.just(1.0), st.floats(1e-3, 1.0), st.floats(0.0, 1e-3, exclude_min=True)
    ),
)
@example(
    spec=HomogeneousSpec((1.0,), (1.0,), 0.0, 0), alpha_grid=[2.0], rho_grid=[0.0], w=1.0
)
def test_surface_matches_per_cell_solve(spec, alpha_grid, rho_grid, w):
    """Each surface cell is the threshold of the fully checked spec with that
    cell's alpha and rho, and the cell the surface solves equals that spec."""
    c = spec.cleared_class
    checked = [
        HomogeneousSpec(
            credit_exposures=spec.credit_exposures,
            alphas=spec.alphas[:c] + (alpha,) + spec.alphas[c + 1 :],
            rho=rho,
            cleared_class=c,
            class_names=spec.class_names,
        )
        for alpha in alpha_grid
        for rho in rho_grid
    ]
    expected = [_outcome(cell, w) for cell in checked]
    errors = [e for e in expected if isinstance(e, str)]
    with mock.patch.object(
        analytic, "min_clearing_members", wraps=min_clearing_members
    ) as solve:
        if errors:
            with pytest.raises(ConfigError) as exc:
                threshold_surface(spec, alpha_grid, rho_grid, w=w)
            assert str(exc.value) == errors[0]
        else:
            surf = threshold_surface(spec, alpha_grid, rho_grid, w=w)
            assert surf.ravel().tolist() == expected
    cells = [call.args[0] for call in solve.call_args_list]
    assert cells == checked[: len(cells)]
    assert len(cells) == (expected.index(errors[0]) + 1 if errors else len(checked))


@pytest.mark.parametrize(
    "alpha_grid,rho_grid",
    [
        ([1.0, math.inf], [0.0]),
        ([1.0, math.nan], [0.0]),
        ([1.0, 0.0], [0.0]),
        ([1.0, -2.0], [0.0]),
        ([1.0], [0.0, -0.1]),
        ([1.0], [0.0, 1.0]),
        ([1.0], [0.0, math.nan]),
        ([[1.0, 2.0]], [0.0]),
        ([1.0], 0.0),
    ],
    ids=["alpha-inf", "alpha-nan", "alpha-zero", "alpha-negative",
         "rho-negative", "rho-one", "rho-nan", "alpha-2d", "rho-scalar"],
)
def test_surface_rejects_bad_grids_before_solving(monkeypatch, alpha_grid, rho_grid):
    """A bad value fails the whole grid before any cell is solved, also when
    good values come first."""
    calls = []
    monkeypatch.setattr(analytic, "min_clearing_members", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError):
        threshold_surface(_bis_spec(), alpha_grid, rho_grid)
    assert calls == []


def test_surface_checks_the_spec_at_most_once(monkeypatch):
    spec = _bis_spec()
    checks = []
    post_init = HomogeneousSpec.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(HomogeneousSpec, "__post_init__", counted)
    surf = threshold_surface(spec, np.linspace(1.0, 3.0, 20), np.linspace(0.0, 0.5, 20))
    assert surf.shape == (20, 20)
    assert len(checks) <= 1


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
