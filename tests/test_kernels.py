"""The scenario-exposure kernel against the straight-line oracle."""

import numpy as np
import pytest

from ccpnet import kernels
from ccpnet.market import joint_ccp, no_ccp, single_ccp, standard_scenarios, two_ccps
from ccpnet.montecarlo import _scenario_arrays
from helpers import oracle_exposures

# two_ccps and joint_ccp clear the same fractions, so they share one
# bilateral-remainder row
STANDARD = standard_scenarios(irs_class=1, cds_class=2, w_irs=0.9, w_cds=0.85)
ZERO_GROUP = (
    no_ccp(),
    single_ccp(0, 0.6, name="one"),
    two_ccps([(0, 0.6), (2, 0.0)], name="one_plus_idle"),
    joint_ccp([(0, 0.6), (1, 0.3)], name="joint"),
)
SINGLE_CLASS = (no_ccp(), single_ccp(0, 0.7, name="all"), single_ccp(0, 1.0, name="full"))


def _random_problem(
    seed, n_paths=64, n_dealers=5, n_classes=3, antisymmetric=True, scenarios=STANDARD
):
    rng = np.random.default_rng(seed)
    if antisymmetric:
        ii, jj = np.triu_indices(n_dealers, k=1)
    else:  # one row per ordered pair, reverse direction unscaled
        ii, jj = np.nonzero(~np.eye(n_dealers, dtype=bool))
    n_pairs = ii.size
    y = rng.standard_normal((n_paths, n_pairs, n_classes))
    s_plus = rng.uniform(0.0, 2.0, (n_pairs, n_classes))
    s_minus = (
        rng.uniform(0.0, 2.0, (n_pairs, n_classes))
        if antisymmetric
        else np.zeros((n_pairs, n_classes))
    )
    resid, ccp_w, offsets = _scenario_arrays(scenarios, n_classes)
    return y, s_plus, s_minus, ii.astype(np.intp), jj.astype(np.intp), resid, ccp_w, offsets, n_dealers


def test_no_ccp_only_and_empty_groups():
    y, sp, sm, pi, pj, *_, n = _random_problem(7)
    resid, ccp_w, offsets = _scenario_arrays([no_ccp()], 3)
    assert ccp_w.shape[0] == 0
    out = kernels.scenario_exposures(y, sp, sm, pi, pj, resid, ccp_w, offsets, n)
    assert out.shape == (y.shape[0], 1, n)
    assert (out >= 0).all()


def test_zero_fraction_scenario_bitwise_equals_base():
    y, sp, sm, pi, pj, *_, n = _random_problem(11)
    scens = [no_ccp(), single_ccp(1, 0.0, name="idle_ccp")]
    resid, ccp_w, offsets = _scenario_arrays(scens, 3)
    out = kernels.scenario_exposures(y, sp, sm, pi, pj, resid, ccp_w, offsets, n)
    assert np.array_equal(out[:, 0, :], out[:, 1, :])


def test_zero_weight_group_adds_exactly_nothing():
    y, sp, sm, pi, pj, resid, ccp_w, offsets, n = _random_problem(13, scenarios=ZERO_GROUP)
    out = kernels.scenario_exposures(y, sp, sm, pi, pj, resid, ccp_w, offsets, n)
    assert np.array_equal(out[:, 1, :], out[:, 2, :])


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"scenarios": ZERO_GROUP},
        {"antisymmetric": False},
        {"n_classes": 1, "scenarios": SINGLE_CLASS},
        {"n_dealers": 2, "scenarios": SINGLE_CLASS, "n_classes": 1},
    ],
    ids=["standard", "zero_group", "independent", "one_class", "one_pair"],
)
def test_kernel_matches_straight_line_oracle(kwargs):
    scenarios = kwargs.get("scenarios", STANDARD)
    y, sp, sm, pi, pj, resid, ccp_w, offsets, n = _random_problem(
        3, n_paths=8, **{"n_dealers": 4, **kwargs}
    )
    k = y.shape[2]
    out = kernels.scenario_exposures(y, sp, sm, pi, pj, resid, ccp_w, offsets, n)
    assert out.shape == (y.shape[0], len(scenarios), n)
    for c in range(y.shape[0]):
        x = np.zeros((n, n, k))
        x[pi, pj] = y[c] * sp
        if kwargs.get("antisymmetric", True):
            x[pj, pi] = -y[c] * sm
        ref = oracle_exposures(x, scenarios)
        for s, scen in enumerate(scenarios):
            assert np.allclose(out[c, s], ref[scen.name], rtol=1e-12, atol=1e-10)
