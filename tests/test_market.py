"""Market types: validation reporting, pair scales, scenario invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpnet.market import (
    ClearedClass,
    ClearingScenario,
    ConfigError,
    Dealer,
    HomogeneousSpec,
    Marginal,
    MarketConfig,
    joint_ccp,
    no_ccp,
    pair_scale_matrix,
    single_ccp,
    standard_scenarios,
    two_ccps,
    validate,
)
from helpers import make_config


def test_validate_rejects_single_dealer():
    config = make_config([[1.0]], betas=[1.0])
    report = validate(config)
    assert not report.ok
    assert any("N >= 2" in v for v in report.violations)
    with pytest.raises(ConfigError):
        report.raise_if_invalid()


def test_validate_accepts_plain_market():
    config = make_config(np.ones((3, 4)), betas=[0.5] * 4, rho=0.1)
    assert validate(config).ok


def test_validate_flags_zero_counterparty_denominator():
    # one dealer holds the entire class: nobody to face
    config = make_config([[1.0], [0.0], [0.0]], betas=[1.0])
    report = validate(config)
    assert any("zero counterparty notional denominator" in v for v in report.violations)


def test_validate_rho_bounds():
    assert not validate(make_config([[1.0], [1.0]], [1.0], rho=1.0)).ok
    assert not validate(make_config([[1.0], [1.0]], [1.0], rho=-0.1)).ok
    assert validate(make_config([[1.0], [1.0]], [1.0], rho=0.0)).ok


def test_validate_negative_notional_and_beta():
    assert not validate(make_config([[1.0], [-1.0]], [1.0])).ok
    assert not validate(make_config([[1.0], [1.0]], [0.0])).ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_flags_non_finite_notional_and_beta(bad):
    notional = validate(make_config([[1.0, 2.0], [bad, 1.0]], [1.0, 1.0]))
    assert any("non-finite notional" in v for v in notional.violations)
    # +bad and -bad in one class: the class total is NaN at bad = inf
    mixed = validate(make_config([[1.0, 2.0], [bad, 1.0], [-bad, 1.0]], [1.0, 1.0]))
    assert sum("non-finite notional" in v for v in mixed.violations) == 2
    beta = validate(make_config([[1.0, 2.0], [3.0, 1.0]], [1.0, bad]))
    assert any("beta must be finite" in v for v in beta.violations)


def test_validate_rejects_reserved_dealer_and_repeated_class_names():
    config = make_config(np.ones((3, 2)), betas=[1.0, 1.0])
    for reserved in ("__total__", "__max__"):
        dealers = (*config.dealers[:2], Dealer(2, reserved, (1.0, 1.0)))
        assert validate(MarketConfig(dealers, config.classes)).violations == (
            f"dealer names reserved by the report dump: [{reserved!r}]",
        )
    twice = make_config(np.ones((3, 2)), betas=[1.0, 1.0], names=["swaps", "swaps"])
    assert validate(twice).violations == (
        "class names must be unique, repeated: ['swaps']",
    )


def test_homogeneous_spec_rejects_repeated_class_names():
    with pytest.raises(ConfigError, match=r"repeated: \['credit'\]"):
        HomogeneousSpec((1.0, 2.0), (1.0, 1.0), 0.0, 1, class_names=("credit", "credit"))
    assert HomogeneousSpec((1.0, 2.0), (1.0, 1.0), 0.0, 1).class_names == ()


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c", "d")])
def test_homogeneous_spec_rejects_class_name_count_mismatch(names):
    with pytest.raises(ConfigError, match="one name per class"):
        HomogeneousSpec((1.0, 2.0, 3.0), (1.0, 1.0, 1.0), 0.0, 2, class_names=names)
    names = ("a", "b", "c")
    spec = HomogeneousSpec((1.0, 2.0, 3.0), (1.0, 1.0, 1.0), 0.0, 2, class_names=names)
    assert spec.class_names == names


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_homogeneous_spec_rejects_non_finite(bad):
    with pytest.raises(ConfigError, match="credit exposures"):
        HomogeneousSpec((1.0, bad), (1.0, 1.0), 0.0, 1)
    with pytest.raises(ConfigError, match="alphas"):
        HomogeneousSpec((1.0, 2.0), (bad, 1.0), 0.0, 1)


def test_pair_scale_two_dealers_unit():
    config = make_config([[1.0], [1.0]], betas=[1.0])
    assert pair_scale_matrix(config, 0)[1, 0] == 1.0


def test_pair_scale_hand_value():
    # beta * Z_i * Z_j / (sum of the others): 0.5 * 10 * 4 / 10 = 2
    config = make_config([[10.0], [4.0], [6.0]], betas=[0.5])
    assert pair_scale_matrix(config, 0)[1, 0] == pytest.approx(2.0, abs=0.0)


def test_pair_scale_zero_notional_is_zero():
    config = make_config([[10.0], [0.0], [6.0]], betas=[0.5])
    assert pair_scale_matrix(config, 0)[1, 0] == 0.0
    assert pair_scale_matrix(config, 1)[0, 0] == 0.0


def test_pair_scale_diagonal_row_is_zero():
    config = make_config([[1.0, 2.0], [1.0, 3.0], [4.0, 1.0]], betas=[1.0, 0.5])
    for i in range(3):
        s = pair_scale_matrix(config, i)
        assert np.array_equal(s[i], np.zeros(2))
        assert (np.delete(s, i, axis=0) > 0).all()


@given(
    z=st.lists(
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=2),
        min_size=2,
        max_size=4,
    ),
    beta=st.floats(0.01, 5.0),
    c=st.floats(0.01, 100.0),
)
@settings(max_examples=50, deadline=None)
def test_pair_scale_homogeneous_in_notionals(z, beta, c):
    config = make_config(z, betas=[beta, beta])
    scaled = make_config([[c * v for v in row] for row in z], betas=[beta, beta])
    for k in range(2):
        assert pair_scale_matrix(scaled, 0)[1, k] == pytest.approx(
            c * pair_scale_matrix(config, 0)[1, k], rel=1e-12
        )


@given(
    z=st.lists(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=1),
        min_size=2,
        max_size=5,
    ),
    beta=st.floats(0.01, 5.0),
)
@settings(max_examples=50, deadline=None)
def test_pair_scales_sum_to_beta_times_own_notional(z, beta):
    config = make_config(z, betas=[beta])
    n = len(z)
    for i in range(n):
        total = sum(pair_scale_matrix(config, i)[j, 0] for j in range(n) if j != i)
        assert total == pytest.approx(beta * z[i][0], rel=1e-12)


def test_scenario_fraction_bounds():
    with pytest.raises(ConfigError):
        single_ccp(0, 1.5)
    with pytest.raises(ConfigError):
        single_ccp(0, -0.1)
    single_ccp(0, 0.0)  # all-zero clearing is legal and equals no clearing


def test_scenario_distinct_classes():
    with pytest.raises(ConfigError):
        joint_ccp([(0, 0.5), (0, 0.6)])


def test_constructors_place_each_class_at_its_ccp():
    assert no_ccp().cleared == ()
    assert single_ccp(1, 0.5).cleared == (ClearedClass(1, 0.5, ccp=0),)
    assert two_ccps([(0, 0.5), (2, 0.4)]).cleared == (
        ClearedClass(0, 0.5, ccp=0),
        ClearedClass(2, 0.4, ccp=1),
    )
    assert joint_ccp([(0, 0.5), (2, 0.4)]).cleared == (
        ClearedClass(0, 0.5, ccp=0),
        ClearedClass(2, 0.4, ccp=0),
    )
    # any placement is a scenario: two classes share a CCP, a third has its own
    mixed = ClearingScenario(
        (ClearedClass(0, 0.5), ClearedClass(1, 0.5), ClearedClass(2, 0.4, ccp=1)),
        "mixed",
    )
    assert [g.tolist() for g in mixed.ccp_groups(3)] == [[0.5, 0.5, 0.0], [0.0, 0.0, 0.4]]


def test_scenario_weight_vectors():
    scen = two_ccps([(2, 0.9), (3, 0.85)])
    resid = scen.residual_weights(4)
    assert resid.tolist() == [1.0, 1.0, pytest.approx(0.1), pytest.approx(0.15)]
    groups = scen.ccp_groups(4)
    assert len(groups) == 2
    assert groups[0].tolist() == [0.0, 0.0, 0.9, 0.0]
    assert groups[1].tolist() == [0.0, 0.0, 0.0, 0.85]
    joint = joint_ccp([(2, 0.9), (3, 0.85)])
    assert len(joint.ccp_groups(4)) == 1


def test_standard_scenarios_shape():
    scens = standard_scenarios()
    assert [s.name for s in scens] == [
        "no_ccp",
        "irs_ccp",
        "cds_ccp",
        "two_ccps",
        "joint_ccp",
    ]
    assert scens[0].cleared == ()
    assert [c.ccp for c in scens[3].cleared] == [0, 1]
    assert [c.ccp for c in scens[4].cleared] == [0, 0]


def test_dealer_notionals_coerced_to_floats():
    d = Dealer(id=0, name="x", notionals=(1, 2))
    assert d.notionals == (1.0, 2.0)


def test_marginal_flags():
    config = make_config(
        np.ones((2, 2)),
        betas=[1.0, 1.0],
        marginals=[Marginal.GAUSSIAN, Marginal.STUDENT_T3],
    )
    assert config.has_t_marginals()
    assert config.marginals()[1] is Marginal.STUDENT_T3
