"""The scenario-exposure kernel against the straight-line oracle."""

import numpy as np
import pytest

from ccpnet import kernels
from ccpnet.market import (
    ClearedClass,
    ClearingScenario,
    joint_ccp,
    no_ccp,
    single_ccp,
    standard_scenarios,
    two_ccps,
)
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

# classes 0 and 1 net at one CCP, class 2 at another, beside the same
# fractions at one CCP per class and at one joint CCP
MIXED_FRACTIONS = [(0, 0.5), (1, 0.7), (2, 0.4)]
MIXED = (
    no_ccp(),
    ClearingScenario(
        (ClearedClass(0, 0.5), ClearedClass(1, 0.7), ClearedClass(2, 0.4, ccp=1)),
        "mixed",
    ),
    two_ccps(MIXED_FRACTIONS, name="separate"),
    joint_ccp(MIXED_FRACTIONS, name="joint"),
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
    return y, s_plus, s_minus, ii.astype(np.intp), jj.astype(np.intp), scenarios, n_dealers


def _exposures(y, plan):
    """The kernel on the shocks ``y`` handed over as one block."""
    out = np.empty((y.shape[0], plan.n_scenarios, plan.n_dealers))
    return kernels.scenario_exposures([y], plan, out)


def test_no_ccp_only_and_empty_groups():
    y, sp, sm, pi, pj, *_, n = _random_problem(7)
    assert no_ccp().ccp_groups(3) == []
    out = _exposures(y, kernels.plan(sp, sm, pi, pj, [no_ccp()], n))
    assert out.shape == (y.shape[0], 1, n)
    assert (out >= 0).all()


def test_zero_fraction_scenario_bitwise_equals_base():
    y, sp, sm, pi, pj, *_, n = _random_problem(11)
    scens = [no_ccp(), single_ccp(1, 0.0, name="idle_ccp")]
    out = _exposures(y, kernels.plan(sp, sm, pi, pj, scens, n))
    assert np.array_equal(out[:, 0, :], out[:, 1, :])


def test_zero_weight_group_adds_exactly_nothing():
    y, *args = _random_problem(13, scenarios=ZERO_GROUP)
    out = _exposures(y, kernels.plan(*args))
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
        {"scenarios": MIXED},
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
        "mixed",
    ],
)
def test_kernel_matches_straight_line_oracle(kwargs):
    scenarios = kwargs.get("scenarios", STANDARD)
    y, sp, sm, pi, pj, _, n = _random_problem(3, n_paths=8, **{"n_dealers": 4, **kwargs})
    k = y.shape[2]
    out = _exposures(y, kernels.plan(sp, sm, pi, pj, scenarios, n))
    assert out.shape == (y.shape[0], len(scenarios), n)
    for c in range(y.shape[0]):
        x = np.zeros((n, n, k))
        x[pi, pj] = y[c] * sp
        if kwargs.get("antisymmetric", True):
            x[pj, pi] = -y[c] * sm
        ref = oracle_exposures(x, scenarios)
        for s, scen in enumerate(scenarios):
            assert np.allclose(out[c, s], ref[scen.name], rtol=1e-12, atol=1e-10)


def test_out_is_filled_and_returned():
    y, *args = _random_problem(17, n_paths=30)
    plan = kernels.plan(*args)
    whole = _exposures(y, plan)
    out = np.full((40, *whole.shape[1:]), np.nan)
    result = kernels.scenario_exposures([y], plan, out=out[5:35])
    assert result.base is out
    assert np.array_equal(out[5:35], whole)
    assert np.isnan(out[:5]).all() and np.isnan(out[35:]).all()


def test_blocks_must_cover_out():
    """The blocks cover out's paths exactly, each at most
    ``block_paths(plan)`` wide: too few or too many paths, or too wide a
    block, is the kernel's own error, not a partly written or overrun
    output."""
    y, *args = _random_problem(17, n_paths=30)
    plan = kernels.plan(*args)
    out = np.empty((30, plan.n_scenarios, plan.n_dealers))
    with pytest.raises(ValueError, match="hold 20 of the 30 paths"):
        kernels.scenario_exposures([y[:20]], plan, out)
    with pytest.raises(ValueError, match="block of 1 paths at path 30 overruns the 30 paths"):
        kernels.scenario_exposures([y, y[:1]], plan, out)
    out = np.full((10, plan.n_scenarios, plan.n_dealers), np.nan)
    with pytest.raises(ValueError, match="block of 20 paths at path 0 overruns the 10 paths"):
        kernels.scenario_exposures([y[:20]], plan, out)
    assert np.isnan(out).all()
    step = kernels.block_paths(plan)
    wide = np.zeros((step + 1, *y.shape[1:]))
    out = np.empty((step + 1, plan.n_scenarios, plan.n_dealers))
    too_wide = f"block of {step + 1} paths is wider than the kernel's {step}"
    with pytest.raises(ValueError, match=too_wide):
        kernels.scenario_exposures([wide], plan, out)


def test_path_bits_independent_of_block_and_sub_block_split(monkeypatch):
    """Each path rounds alike whatever the block widths, a lone path
    included, and whether the blocks come in one call or in several."""
    y, *args = _random_problem(19, n_paths=301, n_dealers=7)
    plan = kernels.plan(*args)
    whole = _exposures(y, plan)
    out = np.empty_like(whole)
    for cuts in ([1, 2, 300], [150], [7, 100, 299]):
        split = [_exposures(block, plan) for block in np.split(y, cuts)]
        assert np.array_equal(np.concatenate(split), whole)
        kernels.scenario_exposures(np.split(y, cuts), plan, out)
        assert np.array_equal(out, whole)
    monkeypatch.setattr(kernels, "_SCRATCH_DOUBLES", 1)  # one path per block
    assert kernels.block_paths(plan) == 1
    kernels.scenario_exposures(np.split(y, y.shape[0]), plan, out)
    assert np.array_equal(out, whole)


def test_plan_is_read_only_and_reused():
    """Workers share one plan: none of its arrays can be written, and
    evaluating through it leaves it as it was."""
    y, *args = _random_problem(23, shuffled=True, scenarios=MIXED)
    plan = kernels.plan(*args)
    arrays = [plan.shared, plan.ccp_w, plan.gather, plan.coef]
    copies = [a.copy() for a in arrays]
    first = _exposures(y, plan)
    assert np.array_equal(_exposures(y, plan), first)
    for a, before in zip(arrays, copies):
        assert not a.flags.writeable
        assert np.array_equal(a, before)
    # each dealer owns one run: its + rows, then its - rows, in pair order
    *_, pi, pj, _, n = args
    for d, run in enumerate(plan.gather.reshape(n, -1)):
        owned = np.concatenate((np.flatnonzero(pi == d), np.flatnonzero(pj == d)))
        assert np.array_equal(run, owned)
    assert plan.coef.shape[0] == plan.gather.size
    # two CCPs and one joint CCP clearing the same fractions share a row
    standard = kernels.plan(*_random_problem(23)[1:])
    assert standard.n_bilateral == len(STANDARD) - 1
    assert standard.shared[3] == standard.shared[4]


def test_plan_rejects_dealers_owning_unequal_rows():
    """Each dealer's directed rows are one run of a common length, so a
    layout that leaves one dealer short is refused, not padded."""
    _, sp, sm, pi, pj, scenarios, n = _random_problem(29)
    with pytest.raises(ValueError, match="unequal"):
        kernels.plan(sp[1:], sm[1:], pi[1:], pj[1:], scenarios, n)
