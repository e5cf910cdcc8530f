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
# CCP groups that clear nothing: no class enters a net position
NOTHING_CLEARED = (
    no_ccp(),
    single_ccp(1, 0.0, name="idle"),
    two_ccps([(0, 0.0), (2, 0.0)], name="idle_two"),
)
# every class is cleared by some CCP
ALL_CLEARED = (
    no_ccp(),
    joint_ccp([(0, 0.5), (1, 0.7), (2, 1.0)], name="all_joint"),
    two_ccps([(0, 0.5), (2, 0.4)], name="two"),
    single_ccp(1, 0.7, name="one"),
)


def _random_problem(
    seed,
    n_paths=64,
    n_dealers=5,
    n_classes=3,
    antisymmetric=True,
    shuffled=False,
    scenarios=STANDARD,
):
    rng = np.random.default_rng(seed)
    if antisymmetric:
        ii, jj = np.triu_indices(n_dealers, k=1)
    else:  # one row per ordered pair, reverse direction unscaled
        ii, jj = np.nonzero(~np.eye(n_dealers, dtype=bool))
    if shuffled:  # pair rows in no dealer's order
        rows = rng.permutation(ii.size)
        ii, jj = ii[rows], jj[rows]
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
    out = kernels.scenario_exposures(
        [y], len(y), sp, sm, pi, pj, resid, ccp_w, offsets, n
    )
    assert out.shape == (y.shape[0], 1, n)
    assert (out >= 0).all()


def test_zero_fraction_scenario_bitwise_equals_base():
    y, sp, sm, pi, pj, *_, n = _random_problem(11)
    scens = [no_ccp(), single_ccp(1, 0.0, name="idle_ccp")]
    resid, ccp_w, offsets = _scenario_arrays(scens, 3)
    out = kernels.scenario_exposures(
        [y], len(y), sp, sm, pi, pj, resid, ccp_w, offsets, n
    )
    assert np.array_equal(out[:, 0, :], out[:, 1, :])


def test_zero_weight_group_adds_exactly_nothing():
    y, sp, sm, pi, pj, resid, ccp_w, offsets, n = _random_problem(13, scenarios=ZERO_GROUP)
    out = kernels.scenario_exposures(
        [y], len(y), sp, sm, pi, pj, resid, ccp_w, offsets, n
    )
    assert np.array_equal(out[:, 1, :], out[:, 2, :])


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"scenarios": ZERO_GROUP},
        {"antisymmetric": False},
        {"n_classes": 1, "scenarios": SINGLE_CLASS},
        {"n_dealers": 2, "scenarios": SINGLE_CLASS, "n_classes": 1},
        {"shuffled": True},
        {"scenarios": NOTHING_CLEARED},
        {"scenarios": ALL_CLEARED},
    ],
    ids=[
        "standard",
        "zero_group",
        "independent",
        "one_class",
        "one_pair",
        "shuffled",
        "nothing_cleared",
        "all_cleared",
    ],
)
def test_kernel_matches_straight_line_oracle(kwargs):
    scenarios = kwargs.get("scenarios", STANDARD)
    y, sp, sm, pi, pj, resid, ccp_w, offsets, n = _random_problem(
        3, n_paths=8, **{"n_dealers": 4, **kwargs}
    )
    k = y.shape[2]
    out = kernels.scenario_exposures(
        [y], len(y), sp, sm, pi, pj, resid, ccp_w, offsets, n
    )
    assert out.shape == (y.shape[0], len(scenarios), n)
    for c in range(y.shape[0]):
        x = np.zeros((n, n, k))
        x[pi, pj] = y[c] * sp
        if kwargs.get("antisymmetric", True):
            x[pj, pi] = -y[c] * sm
        ref = oracle_exposures(x, scenarios)
        for s, scen in enumerate(scenarios):
            assert np.allclose(out[c, s], ref[scen.name], rtol=1e-12, atol=1e-10)


def test_blocks_match_one_block_and_cover_the_paths():
    y, *args = _random_problem(17, n_paths=30)
    whole = kernels.scenario_exposures([y], 30, *args)
    split = kernels.scenario_exposures(iter([y[:10], y[10:20], y[20:]]), 30, *args)
    assert np.allclose(split, whole, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="expected 30"):
        kernels.scenario_exposures([y[:20]], 30, *args)
    with pytest.raises(ValueError, match="more than 20"):
        kernels.scenario_exposures([y[:10], y[10:]], 20, *args)


def test_shuffled_pairs_permute_both_directions():
    *_, pi, pj, _, _, _, n = _random_problem(3, n_dealers=4, shuffled=True)
    assert kernels._owner_slabs(pi, n)[0] is not None
    assert kernels._owner_slabs(pj, n)[0] is not None
    # triu rows are already in + owner order; the - direction needs a permutation
    ii, jj = np.triu_indices(4, k=1)
    assert kernels._owner_slabs(ii, 4)[0] is None
    assert kernels._owner_slabs(jj, 4)[0] is not None


def test_path_bits_independent_of_block_and_sub_block_split(monkeypatch):
    """Each path rounds alike whatever the block and sub-block widths, a
    lone path included."""
    y, *args = _random_problem(19, n_paths=301, n_dealers=7)
    whole = kernels.scenario_exposures([y], 301, *args)
    for cuts in ([1, 2, 300], [150], [7, 100, 299]):
        split = kernels.scenario_exposures(np.split(y, cuts), 301, *args)
        assert np.array_equal(split, whole)
    monkeypatch.setattr(kernels, "_SCRATCH_DOUBLES", 1)  # one path per sub-block
    assert np.array_equal(kernels.scenario_exposures([y], 301, *args), whole)
