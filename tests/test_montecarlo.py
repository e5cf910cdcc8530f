"""Monte Carlo engine: sampling law, counter determinism, risk measures."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit

from ccpnet import analytic, dataio, kernels, montecarlo
from ccpnet.market import (
    MILLIONS_PER_BILLION,
    ClearedClass,
    ClearingScenario,
    ConfigError,
    Marginal,
    joint_ccp,
    no_ccp,
    pair_scale_matrix,
    single_ccp,
    standard_scenarios,
    two_ccps,
)
from ccpnet.montecarlo import (
    empirical_quantile,
    freedman_diaconis_edges,
    simulate,
    student_t3_unit_ppf,
)
from helpers import (
    _normals,
    check_path_dump,
    check_pathwise,
    copula_values,
    ee_zscores,
    exposures_for_paths,
    joined_shocks,
    make_config,
    oracle_exposures,
    quad_tail_stats,
    reports_equal,
    sample_draws,
    student_t3_unit_cdf,
)


# ---------------------------------------------------------------------------
# Counter-based noise
# ---------------------------------------------------------------------------


def _stream_reference(seed, per_path, start, count):
    """The normals of paths [start, start+count), built straight from the
    stream layout: paths [64 g, 64 g + 64) read stream g, which is
    PCG64DXSM(seed) after advance(g << 64), per_path normals each in path
    order."""
    rows = []
    for g in range(start // 64, (start + count - 1) // 64 + 1):
        bg = np.random.PCG64DXSM(seed)
        bg.advance(g << 64)
        stream = np.random.Generator(bg).standard_normal(64 * per_path).reshape(64, -1)
        lo, hi = max(start, 64 * g), min(start + count, 64 * g + 64)
        rows.append(stream[lo - 64 * g : hi - 64 * g])
    return np.concatenate(rows)


@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_normals_are_pcg64dxsm_streams_of_64_paths(rho):
    """Paths [64 g, 64 g + 64) draw their normals from PCG64DXSM(seed) after
    advance(g << 64), each path its pairs * W in turn (W = K at rho = 0,
    K+1 at rho > 0), whatever the block size: from a run's first path, from
    inside a stream and across stream seams, at the largest seed and far
    out in the path index."""
    config = make_config(np.ones((5, 3)), betas=[1.0] * 3, rho=rho)
    n_pairs = montecarlo._draws(config)[0]
    width = 3 + (rho > 0.0)
    assert n_pairs == 10
    for seed, p, n, step in (
        (7, 0, 9, 4),  # one stream, from its first path
        (7, 50, 100, 11),  # starts mid-stream, crosses two seams
        (2**128 - 1, 13, 60, 53),  # mid-stream to the next stream
        (3, 10**12 + 1, 70, 1),  # 1 path per block across a seam
    ):
        # each block is drawn into one buffer, so it is copied out
        blocks = [z.copy() for z in montecarlo._normal_blocks(seed, config, p, n, step)]
        assert [z.shape for z in blocks] == [
            (min(step, n - a), n_pairs, width) for a in range(0, n, step)
        ]
        got = np.concatenate(blocks).reshape(n, -1)
        assert np.array_equal(got, _stream_reference(seed, n_pairs * width, p, n))


def test_normals_are_pure_functions_of_path_index():
    config = make_config(np.ones((4, 3)), betas=[1.0] * 3)
    whole = _normals(99, config, 0, 200)
    assert whole.shape == (200, 6, 3)  # 6 unordered pairs, K coordinates at rho = 0
    for start, count in ((5, 4), (63, 2), (64, 1), (100, 100), (199, 1)):
        assert np.array_equal(_normals(99, config, start, count), whole[start : start + count])
    # different seeds decouple
    assert not np.array_equal(_normals(98, config, 0, 200), whole)


def test_normals_shape_and_moments():
    config = make_config(np.ones((3, 2)), betas=[1.0, 1.0], rho=0.2)
    z = _normals(1, config, 0, 20_000)
    assert z.shape == (20_000, 3, 3)  # 3 unordered pairs, K+1 coordinates at rho > 0
    assert np.isfinite(z).all()
    # 180,000 normals: mean within 4 SE (0.0094) of 0, variance within 4 SE
    # (0.013) of 1
    assert abs(z.mean()) < 0.0094
    assert abs(z.var() - 1.0) < 0.013


# ---------------------------------------------------------------------------
# Normalized t3 marginal
# ---------------------------------------------------------------------------


def test_t3_ppf_round_trip_is_machine_precision():
    u = np.concatenate(
        [
            np.linspace(1e-9, 1 - 1e-9, 20001),
            [2.0**-53, 1 - 2.0**-53, 0.5, 0.15, 0.15000001],
        ]
    )
    x = student_t3_unit_ppf(u)
    assert np.abs(student_t3_unit_cdf(x) - u).max() < 5e-16


def test_t3_ppf_agrees_with_independent_inversion():
    u = np.linspace(1e-6, 1 - 1e-6, 100001)
    ours = student_t3_unit_ppf(u)
    ref = stdtrit(3, u) / math.sqrt(3.0)
    err = np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)
    assert err.max() < 1e-8


def test_t3_ppf_extreme_tails_relative_accuracy():
    # the copula reaches u ~ 1e-24 at rho = 0.1, and 1 - u down to 2^-53
    upper = 1.0 - np.array([2.0**-53, 1e-15, 1e-12, 1e-9])
    u = np.concatenate([np.logspace(-100, -6, 941), upper])
    ref = stdtrit(3, u) / math.sqrt(3.0)
    assert np.abs(student_t3_unit_ppf(u) / ref - 1.0).max() < 1e-8
    # stdtrit itself fails this deep (-inf at 1e-300), so compare with the
    # leading tail term, exact to ~q^(2/3) relative
    q = np.logspace(-300, -150, 151)
    lead = np.cbrt(2.0 / (3.0 * np.pi * q))
    assert np.abs(-student_t3_unit_ppf(q) / lead - 1.0).max() < 1e-12
    assert student_t3_unit_ppf(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


def _bisect_t3_unit_cdf(q):
    """x with student_t3_unit_cdf(x) = q, by 80 bisection steps on [-30, 30]."""
    lo, hi = np.full_like(q, -30.0), np.full_like(q, 30.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = student_t3_unit_cdf(mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_t3_ppf_at_start_table_knots_and_midpoints():
    """The start is linear between knots, so its error peaks between them:
    at every knot r = cbrt(q) of the start table, every midpoint and both
    sides of the tail-series switch, the quantile agrees with a bisection on
    the closed-form CDF within 1e-12 relative and round-trips to 5e-16."""
    halves = np.arange(2 * montecarlo._T3_STEPS + 1) / 2.0
    r = montecarlo._T3_R0 + montecarlo._T3_STEP * halves
    switch = montecarlo._T3_TAIL_Q * (1.0 + np.array([-1.0, 1.0]) * 2.0**-52)
    q = np.concatenate([r**3, switch])
    x = student_t3_unit_ppf(q)
    assert np.abs(student_t3_unit_cdf(x) - q).max() < 5e-16
    ref = _bisect_t3_unit_cdf(q)
    median = 2 * montecarlo._T3_STEPS  # the last knot, q = 1/2 to rounding
    assert abs(x[median]) < 1e-15 and abs(ref[median]) < 1e-15
    rest = np.delete(np.arange(q.size), median)
    assert np.abs(x[rest] / ref[rest] - 1.0).max() < 1e-12


def _peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_t3_ppf_peak_memory():
    u = np.random.Generator(np.random.Philox(key=5)).random(4096 * 190)
    assert _peak_traced_bytes(student_t3_unit_ppf, u) <= 4 * u.nbytes


def test_t3_ppf_in_place_is_bitwise_equal():
    """out=u gives the out-of-place quantile bit for bit, zero signs and
    infinities included, across block seams and a short last block, and
    keeps no second array of u's size."""
    n = 8 * montecarlo._T3_BLOCK + 5  # a short last block
    u = np.random.Generator(np.random.Philox(key=12)).random(n)
    u[:3] = [0.0, 0.5, 1.0]
    u[3:8] = [1e-300, 1e-9, montecarlo._T3_TAIL_Q / 2, 1 - 1e-9, 1 - 2.0**-53]  # q < _T3_TAIL_Q
    u[montecarlo._T3_BLOCK - 2 : montecarlo._T3_BLOCK + 2] = [0.5, 0.75, 0.25, 0.5]  # a seam
    assert (u > 0.5).sum() > n // 3
    ref = student_t3_unit_ppf(u)
    got = u.copy()
    assert student_t3_unit_ppf(got, out=got) is got
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert ref[:3].tolist() == [-math.inf, 0.0, math.inf]
    # a separate out array gets the same bits and leaves u alone
    before, other = u.copy(), np.empty_like(u)
    student_t3_unit_ppf(u, out=other)
    assert np.array_equal(other.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(u, before)
    got = u.copy()
    assert _peak_traced_bytes(lambda v: student_t3_unit_ppf(v, out=v), got) < got.nbytes
    with pytest.raises(ValueError, match="C-contiguous float64"):
        student_t3_unit_ppf(u[::2], out=u[::2])


def test_t3_ppf_symmetry_and_median():
    u = np.array([0.01, 0.2, 0.4])
    assert np.allclose(student_t3_unit_ppf(u), -student_t3_unit_ppf(1 - u), atol=1e-12)
    assert student_t3_unit_ppf(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)


def test_t3_marginal_unit_variance_by_sampling():
    rng = np.random.Generator(np.random.Philox(key=2024))
    v = student_t3_unit_ppf(rng.random(1_000_000))
    # heavy tail widens the CI; fixed seed keeps this deterministic
    assert v.var() == pytest.approx(1.0, abs=0.05)
    assert v.mean() == pytest.approx(0.0, abs=0.01)


# ---------------------------------------------------------------------------
# Copula sampling
# ---------------------------------------------------------------------------


def test_copula_independent_classes_uncorrelated():
    """At rho = 0 a pair row's class shocks are the engine's independent
    standard normals."""
    config = make_config(np.ones((2, 2)), betas=[1.0, 1.0])  # one pair row
    y = joined_shocks(config, 5, 0, 100_000, 100_000)[:, 0, :]
    corr = np.corrcoef(y.T)
    assert abs(corr[0, 1]) < 0.01
    assert y[:, 0].std() == pytest.approx(1.0, abs=0.02)


def test_copula_recovers_linear_correlation():
    rng = np.random.Generator(np.random.Philox(key=6))
    z = rng.standard_normal((1_000_000, 1, 3))
    y = copula_values(z, 0.1, (Marginal.GAUSSIAN, Marginal.GAUSSIAN))[:, 0, :]
    corr = np.corrcoef(y.T)
    assert corr[0, 1] == pytest.approx(0.1, abs=0.01)


# Normals of the largest magnitude the ziggurat returns: its tail draw is
# r - log1p(-u) / r with r = 3.654 and u <= 1 - 2^-53, so at most about 13.7.
_EDGE_NORMAL = 13.7


@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_copula_bitwise_equals_factor_split(rho):
    """The copula's arithmetic is exactly the equicorrelation factor split
    sqrt(rho) * common + sqrt(1-rho) * idiosyncratic, edge normals included;
    at rho = 0 no common factor is drawn and the shocks are the normals."""
    rng = np.random.Generator(np.random.Philox(key=8))
    z = rng.standard_normal((500, 3, 4))
    hi, lo = _EDGE_NORMAL, -_EDGE_NORMAL
    z[0, 0, :] = lo
    z[1, 1, :] = 0.0
    z[2, 2, :] = hi
    z[3, 0, :] = [lo, 0.0, hi, 0.0]
    z[3, 1, :] = [0.0, lo, 0.0, hi]
    before = z.copy()
    y = copula_values(z if rho > 0.0 else z[..., 1:], rho, (Marginal.GAUSSIAN,) * 3)
    ref = math.sqrt(rho) * z[..., :1] + math.sqrt(1.0 - rho) * z[..., 1:]
    assert np.isfinite(ref).all()
    assert np.array_equal(y, ref)
    assert np.array_equal(np.signbit(y), np.signbit(ref))
    assert np.array_equal(z, before)  # the caller's normals are not overwritten


@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_copula_t3_tails_finite_and_mirrored(rho):
    """Mirrored normals give mirrored t3 shocks, at the extremes too: the
    upper tail must not round to a CDF of 1.0 and an infinite quantile."""
    hi, lo = _EDGE_NORMAL, -_EDGE_NORMAL
    t3 = 1 if rho > 0.0 else 0  # the t3 class's column, after any common factor
    z = np.zeros((4, 1, t3 + 3))
    z[0], z[1] = hi, lo  # common factor and every class at the extreme
    z[2, 0, t3], z[3, 0, t3] = hi, lo  # the t3 class alone
    marginals = (Marginal.STUDENT_T3, Marginal.GAUSSIAN, Marginal.GAUSSIAN)
    y = copula_values(z, rho, marginals)[:, 0, 0]
    assert np.isfinite(y).all()
    assert y[0] > 0 and y[2] > 0
    assert y[0] == pytest.approx(-y[1], rel=1e-12)
    assert y[2] == pytest.approx(-y[3], rel=1e-12)


def _t3_of_normal(a):
    """The t3 map x(a) = F^-1(Phi(-a)) of the magnitudes ``a``, as the copula
    computes it, on a copy."""
    return montecarlo._t3_from_normal(np.array(a, dtype=float))


def _erfc_tail(a):
    """Phi(-a) = erfc(a / sqrt 2) / 2, the q the map's knots are built from."""
    return np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in np.ravel(a)])


def test_t3_map_tail_switch_is_where_phi_crosses_tail_q():
    a_tail = montecarlo._T3_A_TAIL
    above = math.nextafter(a_tail, math.inf)
    assert _erfc_tail(a_tail)[0] >= montecarlo._T3_TAIL_Q > _erfc_tail(above)[0]


def test_t3_map_at_knots_midpoints_and_tail_switch():
    """The map is a cubic between knots, so its error peaks between them: at
    every knot, every midpoint and both sides of the tail switch it agrees
    with a bisection on the closed-form CDF at q = erfc(a / sqrt 2) / 2
    within 1e-12 relative, and it is exactly 0 at a = 0."""
    halves = np.arange(2 * montecarlo._T3_MAP_STEPS + 1) / 2.0
    a_tail = montecarlo._T3_A_TAIL
    switch = [math.nextafter(a_tail, 0.0), a_tail, math.nextafter(a_tail, math.inf)]
    a = np.concatenate([montecarlo._T3_MAP_STEP * halves, switch, [4.0]])
    x = _t3_of_normal(a)
    assert x[0] == 0.0 and not np.signbit(x[0])
    ref = _bisect_t3_unit_cdf(_erfc_tail(a[1:]))
    assert np.abs(x[1:] / ref - 1.0).max() < 1e-12


def test_t3_map_relative_accuracy_near_the_median():
    """x(a) tends to -a sqrt(pi / 8), -a phi(0) / f(0), and keeps every
    digit as a -> 0, where Phi(-a) rounds to 1/2: the map never forms it."""
    a = np.logspace(-300, -8, 293)
    x = _t3_of_normal(a)
    assert np.abs(x / (-a * math.sqrt(math.pi / 8.0)) - 1.0).max() < 1e-12


def test_t3_map_zero_signs_and_infinite_tails():
    """y = +-0 keeps its sign, and a score whose tail probability underflows
    to q = 0 maps to an infinite shock of its own sign."""
    y = np.array([0.0, -0.0, 40.0, -40.0, math.inf, -math.inf]).reshape(-1, 1, 1)
    got = montecarlo._apply_marginals(y, (Marginal.STUDENT_T3,))[:, 0, 0]
    assert _erfc_tail(40.0)[0] == 0.0
    assert got.tolist() == [0.0, -0.0, math.inf, -math.inf, math.inf, -math.inf]
    assert np.signbit(got).tolist() == [False, True, False, True, False, True]


def test_t3_map_bitwise_equal_across_blocks():
    """The map is elementwise: the whole array, with _T3_BLOCK seams and a
    short last block, gets the bits of pieces mapped apart, tail values at
    the seams included."""
    block = montecarlo._T3_BLOCK
    n = 3 * block + 5  # a short last block
    a = np.abs(np.random.Generator(np.random.Philox(key=13)).standard_normal(n))
    a[block - 2 : block + 2] = [5.0, montecarlo._T3_A_TAIL, 0.0, 9.0]  # a seam
    a[-3:] = [4.5, 1e-12, 38.0]
    assert (a > montecarlo._T3_A_TAIL).sum() > 10
    whole = _t3_of_normal(a)
    cuts = [0, 7, block + 1, 2 * block - 3, 2 * block + 40, n]
    pieces = np.concatenate([_t3_of_normal(a[i:j]) for i, j in zip(cuts, cuts[1:])])
    assert np.array_equal(whole.view(np.uint64), pieces.view(np.uint64))
    one_by_one = np.concatenate([_t3_of_normal(a[i : i + 1]) for i in range(block - 3, block + 3)])
    assert np.array_equal(whole[block - 3 : block + 3], one_by_one)


# A bound on what the t3 quantile allocates besides its output: its three
# scratch rows of _T3_BLOCK doubles (one also holds the start table's index)
# and the block's tail mask, with room for two more block-sized doubles and
# two more masks. The start table is a fixed 32 KiB.
_T3_SCRATCH_NBYTES = (3 + 2) * montecarlo._T3_BLOCK * 8 + 3 * montecarlo._T3_BLOCK


def test_copula_peak_memory_with_t3_class():
    """The copula's output, plus one class column (the common factor's
    normals, then the t3 class's contiguous copy, which its quantile
    overwrites in place), plus the quantile's scratch."""
    z = np.random.Generator(np.random.Philox(key=9)).standard_normal((4096, 190, 5))
    marginals = (Marginal.STUDENT_T3,) + (Marginal.GAUSSIAN,) * 3
    out_nbytes = z[..., 1:].size * 8
    column_nbytes = z[..., 0].size * 8
    peak = _peak_traced_bytes(copula_values, z, 0.1, marginals)
    assert peak <= out_nbytes + column_nbytes + _T3_SCRATCH_NBYTES


def _plan_nbytes(plan):
    return sum(a.nbytes for a in (plan.shared, plan.ccp_w, plan.gather, plan.coef))


def test_gaussian_chunk_peak_memory_is_output_plus_one_block(paper_market):
    """On a Gaussian market the kernel pulls the shocks block by block, so a
    chunk holds its (paths, scenarios, dealers) output, one block of shocks
    (at rho = 0 the normals are drawn straight into it, so there is no
    second buffer), the kernel scratch and the plan that the traced call builds,
    besides the two buffers of ``np.getbufsize()`` doubles that a ufunc on a
    strided view iterates through (the kernel's positive part): never the
    chunk's shocks."""
    config, scenarios, _ = paper_market
    chunk = montecarlo._chunk_paths(config)
    plan = montecarlo._plan(config, scenarios)
    step = kernels.block_paths(plan)
    n_pairs = montecarlo._draws(config)[0]
    assert config.rho == 0.0
    block_nbytes = step * n_pairs * config.n_classes * 8
    out_nbytes = chunk * len(scenarios) * config.n_dealers * 8
    ufunc_nbytes = 2 * np.getbufsize() * 8
    bound = out_nbytes + block_nbytes + kernels._SCRATCH_DOUBLES * 8 + _plan_nbytes(plan)
    bound += ufunc_nbytes
    assert bound < chunk * n_pairs * config.n_classes * 8  # below the chunk's shocks
    peak = _peak_traced_bytes(exposures_for_paths, config, scenarios, 1, 0, chunk)
    assert peak <= bound


def test_chunk_peak_memory_is_output_plus_shocks(paper_market_t3):
    """One chunk of the default t3 market holds its (paths, scenarios,
    dealers) output plus its shocks, one block of normals while they are
    correlated, then the t3 class's column and the quantile's
    scratch. The block and the column never coexist, so their sum also
    covers the kernel plan that the traced call builds."""
    config, scenarios = paper_market_t3
    chunk = montecarlo._chunk_paths(config)
    n_pairs, draws = montecarlo._draws(config)
    shocks_nbytes = chunk * n_pairs * config.n_classes * 8
    normal_nbytes = kernels.block_paths(montecarlo._plan(config, scenarios)) * draws * 8
    column_nbytes = chunk * n_pairs * 8
    out_nbytes = chunk * len(scenarios) * config.n_dealers * 8
    peak = _peak_traced_bytes(exposures_for_paths, config, scenarios, 1, 0, chunk)
    assert peak <= (
        out_nbytes + shocks_nbytes + normal_nbytes + column_nbytes + _T3_SCRATCH_NBYTES
    )


def test_chunk_calls_the_kernel_once(paper_market, paper_market_t3, monkeypatch):
    """A chunk makes one kernel call, which writes the whole chunk output.
    Its shock blocks cover the chunk's paths in order: on a Gaussian market
    none is larger than the kernel's block, and a t3 chunk arrives as one
    block. A default-market chunk is 2207 paths, so a 2000-path run is one
    kernel call."""
    config, scenarios, _ = paper_market
    chunk = montecarlo._chunk_paths(config)
    assert chunk == 2207
    step = kernels.block_paths(montecarlo._plan(config, scenarios))
    assert step == 53
    calls = []
    kernel = kernels.scenario_exposures

    def recording_kernel(blocks, *args, out):
        seen = []  # each block is copied as the kernel reads it
        calls.append((seen, out))
        return kernel((seen.append(y.copy()) or y for y in blocks), *args, out=out)

    monkeypatch.setattr(kernels, "scenario_exposures", recording_kernel)
    for market, gaussian in ((config, True), (paper_market_t3[0], False)):
        e = exposures_for_paths(market, scenarios, 2, 0, chunk)
        assert e.shape == (chunk, len(scenarios), market.n_dealers)
        [(blocks, out)] = calls
        assert out is e
        assert np.array_equal(
            np.concatenate(blocks), joined_shocks(market, 2, 0, chunk, step)
        )
        sizes = [y.shape[0] for y in blocks]
        assert max(sizes) <= step if gaussian else sizes == [chunk]
        calls.clear()
    simulate(config, scenarios, 2000, 3)
    [(blocks, out)] = calls
    assert sum(y.shape[0] for y in blocks) == out.shape[0] == 2000


@pytest.mark.parametrize("marginal", ["gaussian", "t3"])
@pytest.mark.parametrize("step", [1, 53, "count"])
@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_shock_blocks_join_to_one_pass_copula(rho, step, marginal):
    """A chunk's shock blocks, joined in order, are the one-pass copula of
    its normals bit for bit, a last block of one path included. No block of
    a Gaussian chunk is larger than ``step``, and a t3 chunk arrives as one
    block."""
    rc = dataio.RunConfig(rho=rho, marginals={"credit": marginal})
    config, _, _ = dataio.build_market(rc)
    count = 2 * 53 + 1
    step = count if step == "count" else step
    blocks = [y.copy() for y in montecarlo._shocks(config, 6, 5, count, step)]
    ref = copula_values(_normals(6, config, 5, count), rho, config.marginals())
    assert np.array_equal(np.concatenate(blocks), ref)
    sizes = [y.shape[0] for y in blocks]  # a Gaussian block is at most step paths
    gaussian = [min(step, count - a) for a in range(0, count, step)]
    assert sizes == (gaussian if marginal == "gaussian" else [count])


@pytest.mark.parametrize("n_dealers", [3, 20, 60])
def test_chunk_paths_bounded(n_dealers):
    """A chunk holds at most _CHUNK_PATHS paths and at most _BLOCK_DOUBLES
    draws (K+1 per pair row), unless it is one path."""
    config = make_config(np.ones((n_dealers, 4)), betas=[1.0] * 4)
    chunk = montecarlo._chunk_paths(config)
    draws = montecarlo._draws(config)[1]
    assert 1 <= chunk <= montecarlo._CHUNK_PATHS
    assert chunk == 1 or chunk * draws <= montecarlo._BLOCK_DOUBLES
    # and no smaller than both bounds make it
    over_block = (chunk + 1) * draws > montecarlo._BLOCK_DOUBLES
    assert chunk == montecarlo._CHUNK_PATHS or over_block


def test_simulate_builds_one_kernel_plan(monkeypatch):
    """The kernel's plan is built once per run, and every chunk's kernel
    calls, on every worker, read that one plan."""
    config, scenarios = _small_market()
    plans, used = [], []
    build, kernel = kernels.plan, kernels.scenario_exposures

    def counting_plan(*args):
        plans.append(build(*args))
        return plans[-1]

    def recording_kernel(y, plan, out):
        used.append(plan)
        return kernel(y, plan, out=out)

    monkeypatch.setattr(kernels, "plan", counting_plan)
    monkeypatch.setattr(kernels, "scenario_exposures", recording_kernel)
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave inside the kernel
    try:
        report = simulate(config, scenarios, 3000, 5, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert len(plans) == 1
    assert len(used) >= 6 and all(plan is plans[0] for plan in used)  # six chunks
    monkeypatch.undo()
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 500)
    assert reports_equal(report, simulate(config, scenarios, 3000, 5))


@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_shocks_bitwise_equal_one_pass_copula(rho):
    """Shocks are mapped from their normals in blocks; the mapping is
    elementwise, so any block seam gives the one-pass values exactly."""
    marginals = [Marginal.STUDENT_T3, Marginal.GAUSSIAN]
    config = make_config(np.ones((30, 2)), betas=[1.0, 1.0], rho=rho, marginals=marginals)
    step = 11
    count = 2 * step + 7  # two full blocks and a short one
    y = joined_shocks(config, 4, 3, count, step)
    ref = copula_values(_normals(4, config, 3, count), rho, marginals)
    assert np.array_equal(y, ref)


def test_shocks_depend_on_market_only_through_sampling_law():
    """A chunk's shocks read the market's dealer and class counts, rho and
    marginals alone: other notionals and betas give bitwise-equal shocks,
    another rho or marginal other shocks."""
    marginals = [Marginal.STUDENT_T3, Marginal.GAUSSIAN]
    base = make_config(np.ones((5, 2)), betas=[1.0, 1.0], rho=0.2, marginals=marginals)
    y = joined_shocks(base, 7, 11, 50, 16)
    other_book = make_config(
        np.arange(1.0, 11.0).reshape(5, 2), betas=[0.3, 2.0], rho=0.2, marginals=marginals
    )
    assert np.array_equal(joined_shocks(other_book, 7, 11, 50, 16), y)
    other_rho = make_config(np.ones((5, 2)), betas=[1.0, 1.0], rho=0.3, marginals=marginals)
    assert not np.array_equal(joined_shocks(other_rho, 7, 11, 50, 16), y)
    gaussian = make_config(np.ones((5, 2)), betas=[1.0, 1.0], rho=0.2)
    assert not np.array_equal(joined_shocks(gaussian, 7, 11, 50, 16), y)


def test_sample_pair_exposures_scales_and_antisymmetry():
    """Both directions of a pair are one standardized draw, each under its
    owner's pair scale, the reverse direction negated."""
    config = make_config([[10.0, 2.0], [4.0, 3.0], [6.0, 5.0]], betas=[0.5, 1.0])
    y = copula_values(_normals(9, config, 0, 1000), config.rho, config.marginals())
    x = sample_draws(config, seed=9, start=0, count=1000)
    # one row per unordered pair, owned by the lower index
    for p, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        s_ij = pair_scale_matrix(config, i)[j] * MILLIONS_PER_BILLION
        s_ji = pair_scale_matrix(config, j)[i] * MILLIONS_PER_BILLION
        assert np.array_equal(x[:, i, j], y[:, p] * s_ij)
        assert np.array_equal(x[:, j, i], -y[:, p] * s_ji)


def test_sample_draws_antisymmetric_structure():
    config = make_config([[10.0, 2.0], [4.0, 3.0], [6.0, 5.0]], betas=[0.5, 1.0])
    x = sample_draws(config, seed=4, start=0, count=50)
    assert x.shape == (50, 3, 3, 2)
    assert np.array_equal(x[:, 0, 0, :], np.zeros((50, 2)))
    # both directions are driven by one standardized draw: the ratio of
    # opposite entries equals minus the ratio of their scales
    for k in range(2):
        s01, s10 = pair_scale_matrix(config, 0)[1, k], pair_scale_matrix(config, 1)[0, k]
        assert np.allclose(x[:, 1, 0, k] * s01, -x[:, 0, 1, k] * s10, atol=1e-9)


# ---------------------------------------------------------------------------
# Scenario evaluation vs the straight-line oracle
# ---------------------------------------------------------------------------


def test_evaluate_scenario_zero_draw_is_zero():
    scenarios = standard_scenarios(irs_class=0, cds_class=1)
    ii, jj = np.triu_indices(3, k=1)
    scales = np.ones((3, 2))
    plan = kernels.plan(scales, scales, ii, jj, scenarios, 3)
    e = kernels.scenario_exposures([np.zeros((1, 3, 2))], plan, np.empty((1, len(scenarios), 3)))
    assert np.array_equal(e, np.zeros((1, len(scenarios), 3)))


def test_evaluate_scenario_hand_values():
    # N=3, K=2 with hand-set positions; w = (0, 1) on the second class
    x = np.zeros((3, 3, 2))
    x[0, 1] = (4.0, -1.0)
    x[0, 2] = (-2.0, 5.0)
    x[1, 0] = (-4.0, 1.0)
    x[1, 2] = (3.0, 3.0)
    x[2, 0] = (2.0, -5.0)
    x[2, 1] = (-3.0, -3.0)
    scen = single_ccp(1, 1.0, name="full_clearing")
    # explicit layout: one unit-scale row per ordered pair, no reverse scale
    ii, jj = np.nonzero(~np.eye(3, dtype=bool))
    plan = kernels.plan(np.ones((6, 2)), np.zeros((6, 2)), ii, jj, [scen], 3)
    e = kernels.scenario_exposures([x[ii, jj][None]], plan, np.empty((1, 1, 3)))[0, 0]
    ref = oracle_exposures(x, [scen])["full_clearing"]
    for i in range(3):
        assert e[i] == pytest.approx(ref[i], rel=1e-15)
    # dealer 0: bilateral remainder max(4,0)+max(-2,0)=4; CCP max(-1+5,0)=4
    assert e[0] == pytest.approx(8.0)


def test_evaluate_scenarios_reductions():
    rng = np.random.default_rng(14)
    config = make_config(rng.uniform(0.5, 5.0, (3, 2)), betas=[1.0, 2.0])
    scenarios = [no_ccp(), single_ccp(1, 0.8, name="one"), single_ccp(1, 0.0, name="idle")]
    assert [scen.clears_nothing for scen in scenarios] == [True, False, True]
    e = exposures_for_paths(config, scenarios, seed=2, start=0, count=1)[0]
    ref = oracle_exposures(sample_draws(config, seed=2, start=0, count=1)[0], scenarios)
    for s, scen in enumerate(scenarios):
        assert np.allclose(e[s], ref[scen.name], rtol=1e-12, atol=1e-9)
        assert (e[s] >= 0).all()
    eps = e[0] - e  # per-dealer reduction against the base
    assert np.array_equal(eps[0], np.zeros(3))
    assert np.array_equal(eps[2], np.zeros(3))  # w=0 clears nothing


def test_evaluate_scenarios_without_base_has_no_eps():
    config = make_config([[1.0], [2.0]], betas=[1.0])
    only = [single_ccp(0, 0.5, name="only")]
    report = simulate(config, only, 1000, 3, collect_histograms=True)
    assert report.base_index is None
    assert report.histograms is None


def test_evaluate_scenario_zero_fraction_matches_base():
    rng = np.random.default_rng(8)
    config = make_config(rng.uniform(0.5, 5.0, (3, 2)), betas=[1.0, 2.0])
    scenarios = [no_ccp(), single_ccp(1, 0.0, name="idle")]
    e = exposures_for_paths(config, scenarios, seed=1, start=0, count=20)
    assert np.array_equal(e[:, 1], e[:, 0])


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_engine_matches_oracle_and_reference_evaluator(rho):
    rng = np.random.default_rng(123)
    z = rng.uniform(0.1, 10.0, (4, 3))
    z[2, 1] = 0.0  # keep a zero-notional cell in play
    config = make_config(
        z,
        betas=[0.5, 1.5, 1.0],
        rho=rho,
        marginals=[Marginal.GAUSSIAN, Marginal.STUDENT_T3, Marginal.GAUSSIAN],
    )
    scenarios = [
        no_ccp(),
        single_ccp(2, 0.7, name="one"),
        two_ccps([(1, 0.9), (2, 0.85)]),
        joint_ccp([(1, 0.9), (2, 0.85)]),
    ]
    n_paths = 50
    engine = exposures_for_paths(config, scenarios, seed=77, start=0, count=n_paths)
    draws = sample_draws(config, seed=77, start=0, count=n_paths)
    scale = np.abs(engine).max()
    for c in range(n_paths):
        ref = oracle_exposures(draws[c], scenarios)
        for s, scen in enumerate(scenarios):
            assert np.allclose(
                engine[c, s], ref[scen.name], rtol=1e-12, atol=1e-12 * max(scale, 1.0)
            )


# ---------------------------------------------------------------------------
# empirical_quantile
# ---------------------------------------------------------------------------


def test_empirical_quantile_interpolation_rule():
    sample = np.arange(1.0, 101.0)
    assert empirical_quantile(sample, 0.99) == pytest.approx(99.01, rel=1e-12)


def test_empirical_quantile_constant_sample():
    sample = np.full(37, 5.5)
    for level in (0.01, 0.5, 0.99):
        assert empirical_quantile(sample, level) == 5.5


def test_empirical_quantile_median():
    assert empirical_quantile(np.array([-3.0, -1.0, 1.0, 3.0]), 0.5) == 0.0


def test_empirical_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        empirical_quantile(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        empirical_quantile(np.array([1.0]), 1.0)


@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    l1=st.floats(0.01, 0.99),
    l2=st.floats(0.01, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_empirical_quantile_bounds_and_monotonicity(values, l1, l2):
    xs = np.sort(np.asarray(values))
    lo, hi = min(l1, l2), max(l1, l2)
    q_lo, q_hi = empirical_quantile(xs, lo), empirical_quantile(xs, hi)
    assert xs[0] <= q_lo <= q_hi <= xs[-1]


def _streamed_tail(x: np.ndarray, chunk: int, level: float):
    """Tail stats of x from top-m buffers reduced and merged chunk by chunk,
    as ``simulate`` does per (scenario, dealer) cell."""
    n = x.size
    m = montecarlo._tail_size(n, level)
    tops = montecarlo._TopRows((1, 1), m, min(m, chunk))
    for a in range(0, n, chunk):
        tops.add(montecarlo._top(x[a : a + chunk].reshape(-1, 1, 1).copy(), m))
    top = tops.sorted()
    assert top.shape == (1, 1, min(m, n))
    return montecarlo._tail_stats(top[0, 0], level, n)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([-1.0, 0.0, 2.5, 7.0]),  # ties
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=400,
    ),
    chunk=st.integers(1, 97),
    level=st.floats(0.5, 0.999),
)
@example(values=[3.0] * 250, chunk=64, level=0.99)  # constant sample
@example(values=list(range(1000)), chunk=300, level=0.999)
def test_streamed_tail_equals_full_sort(values, chunk, level):
    """VaR, ES and the exceedance count from merged chunk top-m buffers equal
    those of the fully sorted float64 sample, bit for bit."""
    x = np.array(values)
    n = x.size
    assert montecarlo._tail_size(n, level) <= math.ceil((1.0 - level) * n) + 1
    assert _streamed_tail(x, chunk, level) == montecarlo._tail_stats(np.sort(x), level)


@pytest.mark.parametrize("chunk", [257, 500, 700])
def test_chunk_summary_fold_matches_one_pass(chunk):
    """Summaries folded in chunk order agree with one pass over all paths,
    and one merge into the empty summary leaves a chunk's arrays unchanged."""
    e = np.maximum(np.random.default_rng(11).normal(size=(2000, 5, 7)), 0.0)
    fields = ("mean", "sq_dev", "max_sum")
    folded = montecarlo._ChunkSummary(e[:0])
    assert folded.n == 0 and folded.mean.shape == folded.sq_dev.shape == (5, 7)
    assert folded.max_sum.shape == (5,)
    assert not any(getattr(folded, f).any() for f in fields)
    for a in range(0, e.shape[0], chunk):
        part = montecarlo._ChunkSummary(e[a : a + chunk])
        alone = montecarlo._ChunkSummary(e[:0])
        alone.merge(part)
        assert alone.n == part.n
        for f in fields:
            got, want = getattr(alone, f), getattr(part, f)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f
        folded.merge(part)
    mean = e.mean(axis=0)
    assert folded.n == e.shape[0]
    np.testing.assert_allclose(folded.mean, mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(folded.sq_dev, ((e - mean) ** 2).sum(axis=0), rtol=1e-12, atol=0)
    np.testing.assert_allclose(folded.max_sum, e.max(axis=2).sum(axis=0), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _small_market():
    config = make_config(
        [[10.0, 2.0], [4.0, 3.0], [6.0, 5.0], [1.0, 8.0]], betas=[0.5, 1.0], rho=0.1
    )
    scenarios = [
        no_ccp(),
        single_ccp(0, 0.9, name="one"),
        two_ccps([(0, 0.9), (1, 0.85)]),
        joint_ccp([(0, 0.9), (1, 0.85)]),
    ]
    return config, scenarios


def test_simulate_rejects_path_floor_and_bad_inputs():
    config, scenarios = _small_market()
    with pytest.raises(ConfigError):
        simulate(config, scenarios, 999, 1)
    with pytest.raises(ConfigError):
        simulate(config, [], 2000, 1)
    with pytest.raises(ConfigError):
        simulate(config, [no_ccp(), no_ccp()], 2000, 1)  # duplicate names
    for rho in (1.0, -0.2):  # the copula correlation must lie in [0, 1)
        bad_rho = make_config(config.notional_matrix(), config.betas(), rho=rho)
        with pytest.raises(ConfigError):
            simulate(bad_rho, scenarios, 2000, 1)
    with pytest.raises(ConfigError):
        simulate(config, scenarios, 2000, 1, level=1.0)
    for threads in (0, -2, montecarlo.MAX_THREADS + 1):
        with pytest.raises(ConfigError, match="threads"):
            simulate(config, scenarios, 2000, 1, threads=threads)
    # the tail buffer is bounded before it is allocated; the default market's
    # 100 cells fit at 10^6 paths and at 10^8 paths at level 0.99
    with pytest.raises(ConfigError, match="tail buffer"):
        simulate(config, scenarios, 10**13, 1)
    paper, paper_scenarios, _ = dataio.build_market(dataio.RunConfig())
    for n_paths in (10**6, 10**8):
        montecarlo.check_run(paper, paper_scenarios, n_paths, 1, 1, 0.99)
    with pytest.raises(ConfigError, match="tail buffer"):
        montecarlo.check_run(paper, paper_scenarios, 10**13, 1, 1, 0.99)


def test_simulate_deterministic_across_threads_and_reruns(monkeypatch):
    config, scenarios = _small_market()
    check_pathwise(exposures_for_paths(config, scenarios, 11, 0, 3000), scenarios)
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 512)
    a = simulate(config, scenarios, 3000, 11, threads=1)
    b = simulate(config, scenarios, 3000, 11, threads=2)
    c = simulate(config, scenarios, 3000, 11, threads=1)
    for other in (b, c):
        assert np.array_equal(a.ee, other.ee)
        assert np.array_equal(a.var, other.var)
        assert np.array_equal(a.es, other.es)
        assert np.array_equal(a.mean_max, other.mean_max)
        assert np.array_equal(a.es_exceedances, other.es_exceedances)


def test_report_and_histogram_files_byte_identical_across_threads(tmp_path, monkeypatch):
    """Five chunks, the last one short: the written report and histograms
    are the same bytes at 1, 2 and 3 threads."""
    config, scenarios = _small_market()
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 700)
    files = []
    for threads in (1, 2, 3):
        report = simulate(
            config, scenarios, 3000, 12, threads=threads, collect_histograms=True
        )
        out = tmp_path / f"t{threads}"
        dataio.write_report(report, str(out))
        files.append([(out / f).read_bytes() for f in ("report.csv", "histograms.csv")])
    assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("failing_start", [0, 1500], ids=["first", "middle"])
def test_failed_chunk_error_reaches_caller(monkeypatch, failing_start, threads):
    """A chunk that fails, the first (whose summary fixes the histogram
    grids) or a middle one, raises its own error from ``simulate``, which
    returns promptly instead of waiting on the other chunks."""
    config, scenarios = _small_market()
    chunk_exposures = montecarlo._chunk_exposures

    def failing_chunk(config, plan, seed, start, count):
        if start == failing_start:
            time.sleep(0.2)  # let the other workers run ahead
            raise RuntimeError(f"chunk at {start} failed")
        return chunk_exposures(config, plan, seed, start, count)

    monkeypatch.setattr(montecarlo, "_chunk_exposures", failing_chunk)
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 500)
    errors = []

    def run():
        try:
            simulate(config, scenarios, 3000, 1, threads=threads, collect_histograms=True)
        except RuntimeError as exc:
            errors.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [str(e) for e in errors] == [f"chunk at {failing_start} failed"]


def test_threads_keep_a_bounded_window_of_chunks(monkeypatch):
    """At threads > 1 at most 2 * threads chunks are submitted and not yet
    merged, however many chunks the run has, and the report is the
    one-thread report."""
    config, scenarios = _small_market()
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 25)
    counts = {"submitted": 0, "merged": 0}
    ahead = []  # chunks submitted and not yet merged, at each submit
    submit = montecarlo.ThreadPoolExecutor.submit
    merge = montecarlo._ChunkSummary.merge

    def counting_submit(pool, *args):
        counts["submitted"] += 1
        ahead.append(counts["submitted"] - counts["merged"])
        return submit(pool, *args)

    def counting_merge(summary, other):
        counts["merged"] += 1
        return merge(summary, other)

    monkeypatch.setattr(montecarlo.ThreadPoolExecutor, "submit", counting_submit)
    monkeypatch.setattr(montecarlo._ChunkSummary, "merge", counting_merge)
    report = simulate(config, scenarios, 3000, 5, threads=2, collect_histograms=True)
    assert len(ahead) == 3000 // 25
    assert max(ahead) == 2 * 2
    monkeypatch.undo()
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 25)
    assert reports_equal(report, simulate(config, scenarios, 3000, 5, collect_histograms=True))


def test_simulate_peak_memory_bounded_in_paths(paper_market):
    """Without a path dump, the traced peak of ``simulate`` grows with the
    path count only by its top-m tail buffer and the sorted copy of it."""
    config, scenarios, _ = paper_market
    peaks = {}
    for n_paths in (8192, 32768):
        tracemalloc.start()
        try:
            simulate(config, scenarios, n_paths, 3, collect_histograms=True)
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    cells = len(scenarios) * config.n_dealers

    def tail_bytes(n_paths):
        # _TopRows holds 2m - 1 + min(m, chunk) float64 values per cell, and
        # its sorted() returns an m-value copy
        m = montecarlo._tail_size(n_paths, 0.99)
        return (2 * m - 1 + min(m, 4096) + m) * cells * 8

    assert peaks[32768] - peaks[8192] < 0.25e6 + tail_bytes(32768) - tail_bytes(8192)


def test_check_pathwise_pairs_joint_with_one_ccp_per_class():
    """A joint CCP is checked against one CCP per class at the same
    fractions; a scenario that nets only some classes together is not."""
    fractions = [(0, 0.5), (1, 0.7), (2, 0.4)]
    mixed = ClearingScenario(
        (ClearedClass(0, 0.5), ClearedClass(1, 0.7), ClearedClass(2, 0.4, ccp=1)),
        "mixed",
    )
    scenarios = (
        two_ccps(fractions, name="separate"),
        joint_ccp(fractions, name="joint"),
        mixed,
        joint_ccp([(0, 0.5), (1, 0.6), (2, 0.4)], name="other_joint"),
    )
    e = np.ones((4, len(scenarios), 3))
    check_pathwise(e, scenarios)
    unpaired = e.copy()
    unpaired[:, 2:] = 5.0  # above "separate", but neither is its pair
    check_pathwise(unpaired, scenarios)
    joint_above = e.copy()
    joint_above[1, 1, 0] = 1.5
    with pytest.raises(AssertionError, match="joint-CCP exposure exceeded"):
        check_pathwise(joint_above, scenarios)
    negative = e.copy()
    negative[3, 2, 2] = -1.0
    with pytest.raises(AssertionError, match="negative realized exposure"):
        check_pathwise(negative, scenarios)


def test_simulate_rejects_negative_seed():
    config, scenarios = _small_market()
    with pytest.raises(ConfigError):
        simulate(config, scenarios, 2000, -1)
    # a seed has at most 128 bits: the largest runs, the next is rejected
    with pytest.raises(ConfigError, match="seed"):
        simulate(config, scenarios, 2000, 2**128)
    assert simulate(config, scenarios, 1000, 2**128 - 1).seed == 2**128 - 1


def test_per_path_samples_independent_of_chunking(tmp_path, monkeypatch):
    """Per-path exposures are pure functions of (seed, path), so chunk size
    regroups only the accumulators: the float64 path dumps are the same
    bytes (eight chunks written by four threads against one chunk), the
    quantile measures match exactly, expectations to float regrouping
    tolerance."""
    config, scenarios = _small_market()
    reports, dumps = [], []
    for chunk, threads in ((257, 4), (4096, 1)):
        monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", chunk)
        path = tmp_path / f"paths_{chunk}.npy"
        with dataio.open_path_dump(str(path), 2000, len(scenarios), config.n_dealers) as dump:
            reports.append(simulate(config, scenarios, 2000, 21, threads=threads, dump=dump))
        dumps.append(path.read_bytes())
    a, b = reports
    assert dumps[0] == dumps[1]
    assert np.array_equal(a.var, b.var)
    assert np.array_equal(a.es, b.es)
    assert np.allclose(a.ee, b.ee, rtol=1e-12, atol=1e-12)
    assert np.allclose(a.mean_max, b.mean_max, rtol=1e-12, atol=1e-9)


def test_ee_standard_error_is_calibrated():
    """Over 40 seeds x 2048 paths of the default Gaussian market, z = (MC EE
    - closed form) / ee_se has mean 0 and mean square 1 across all 100 cells.

    Bounds from the per-seed spread: each seed's mean of z^2 over its cells
    has a standard deviation of 0.32 across seeds (its cells share draws, so
    they are far from independent), so the 40-seed mean has an SE of 0.051.
    It must lie within 3.5 SE of 1, which a calibrated SE misses with
    probability 5e-4: |mean z^2 - 1| < 0.18. Seeds 1-40 read 1.047; an SE
    stated 1.15x too large or too small would read 0.79 or 1.38. Likewise
    each seed's mean z has a spread of 0.14, an SE of 0.022 over 40 seeds,
    so |mean z| < 0.08 (3.5 SE); seeds 1-40 read 0.049."""
    z = ee_zscores(range(1, 41), 2048)
    assert z.shape == (40, 100) and np.isfinite(z).all()
    assert abs((z * z).mean() - 1.0) < 0.18
    assert abs(z.mean()) < 0.08


def test_chunk_seams_on_default_market(paper_market_t3, monkeypatch):
    """Chunks that are not a whole number of kernel sub-blocks: reports are
    bitwise equal at 1 and 2 threads, and the paths on both sides of a chunk
    seam and of sub-block seams match the straight-line oracle."""
    config, scenarios = paper_market_t3
    # chunks [0, 2207), [2207, 4414) and [4414, 5000)
    chunk = montecarlo._chunk_paths(config)
    assert 2 * chunk < 5000
    a = simulate(config, scenarios, 5000, 8, threads=1)
    b = simulate(config, scenarios, 5000, 8, threads=2)
    assert reports_equal(a, b)

    widths = []  # paths of each kernel sub-block, in order
    carve = kernels._carve

    def recording_carve(flat, paths, *shapes):
        widths.append(paths)
        return carve(flat, paths, *shapes)

    monkeypatch.setattr(kernels, "_carve", recording_carve)
    # the first two chunks, each evaluated as simulate evaluates it
    engine = np.concatenate(
        [exposures_for_paths(config, scenarios, 8, start, chunk) for start in (0, chunk)]
    )
    check_pathwise(engine, scenarios)
    step = widths[0]
    assert chunk % step  # each chunk ends in a short sub-block
    short = chunk // step * step
    for seam in (step, short, chunk):
        draws = sample_draws(config, 8, seam - 1, 2)  # the paths either side
        for c in range(2):
            ref = oracle_exposures(draws[c], scenarios)
            for s, scen in enumerate(scenarios):
                assert np.allclose(
                    engine[seam - 1 + c, s], ref[scen.name], rtol=1e-12, atol=1e-9
                )


def test_simulate_dealer_with_no_positions():
    """An all-zero dealer is legal: zero exposures, zero tail, nan-free report
    except for the undefined 0/0 ratios."""
    config = make_config([[1.0, 1.0], [2.0, 1.0], [0.0, 0.0]], betas=[1.0, 0.5])
    report = simulate(config, [no_ccp(), single_ccp(0, 0.9, name="one")], 1500, 1)
    assert (report.ee[:, 2] == 0).all()
    assert (report.var[:, 2] == 0).all()
    assert (report.es[:, 2] == 0).all()
    assert np.isnan(report.ee_ratio[:, 2]).all()
    assert np.isfinite(report.total_ee_ratio).all()


def test_simulate_zero_fraction_scenarios_bitwise_equal_base():
    config, _ = _small_market()
    scenarios = [
        no_ccp(),
        single_ccp(0, 0.0, name="idle_single"),
        joint_ccp([(0, 0.0), (1, 0.0)], name="idle_joint"),
    ]
    report = simulate(config, scenarios, 2000, 3)
    for s in (1, 2):
        assert np.array_equal(report.ee[0], report.ee[s])
        assert np.array_equal(report.var[0], report.var[s])
        assert np.array_equal(report.es[0], report.es[s])
        assert report.mean_max[0] == report.mean_max[s]
    assert report.base_index == 0
    assert np.all(report.total_ee_ratio == 1.0)


def test_simulate_scales_linearly_with_notionals():
    config, scenarios = _small_market()
    doubled = make_config(
        2.0 * config.notional_matrix(), betas=[0.5, 1.0], rho=0.1
    )
    a = simulate(config, scenarios, 2000, 9)
    b = simulate(doubled, scenarios, 2000, 9)
    assert np.array_equal(2.0 * a.ee, b.ee)
    assert np.array_equal(2.0 * a.var, b.var)
    assert np.array_equal(2.0 * a.mean_max, b.mean_max)


def test_simulate_tail_measures_single_pair(monkeypatch):
    """Degenerate two-dealer market: the exposure is max(s*Y, 0) with s known,
    so the 99% quantile and its tail mean have quadrature oracles."""
    config = make_config([[1.0], [1.0]], betas=[1.0])
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 65536)
    report = simulate(config, [no_ccp()], 1_000_000, 17)
    sigma = 1000.0  # unit pair scale, reported in millions
    q_ref, es_ref = quad_tail_stats(1.0, 0.99)
    assert q_ref == pytest.approx(2.3263478740408408, rel=1e-9)
    assert es_ref == pytest.approx(2.665214220345808, rel=1e-9)
    for dealer in range(2):
        assert report.var[0, dealer] == pytest.approx(sigma * q_ref, abs=0.02 * sigma)
        assert report.es[0, dealer] == pytest.approx(sigma * es_ref, abs=0.02 * sigma)
    assert report.ee[0, 0] == pytest.approx(sigma * 0.3989422804014327, abs=0.01 * sigma)


def test_simulate_ee_matches_analytic_within_three_se(paper_market):
    config, scenarios, _ = paper_market
    report = simulate(config, scenarios, 20_000, 29, threads=2)
    for s, scen in enumerate(scenarios):
        ref = 1000.0 * np.array(
            analytic.scenario_expected_exposures(config, scen).per_dealer
        )
        dev = np.abs(report.ee[s] - ref) / np.maximum(report.ee_se[s], 1e-12)
        assert (dev < 3.0).all(), f"{scen.name}: max dev {dev.max():.2f} SE"


def test_clearing_benefit_grows_with_correlation(paper_market):
    """Regression on the default market (not a general theorem): positive
    cross-class correlation erodes bilateral netting, so the cleared
    scenarios' total-EE ratios fall when rho rises from 0 to 0.1."""
    config0, scenarios, _ = paper_market
    z = config0.notional_matrix()
    betas = [c.beta for c in config0.classes]
    ratios = {}
    for rho in (0.0, 0.1):
        config = make_config(z, betas, rho=rho)
        report = simulate(config, scenarios, 30_000, 55, threads=2)
        ratios[rho] = report.total_ee_ratio
    assert (ratios[0.1][1:] <= ratios[0.0][1:] + 0.002).all()


def test_simulate_risk_measure_orderings():
    config, scenarios = _small_market()
    check_pathwise(exposures_for_paths(config, scenarios, 2, 0, 5000), scenarios)
    report = simulate(config, scenarios, 5000, 2)
    assert (report.es >= report.var).all()
    assert (report.var >= 0).all()
    assert (report.ee >= 0).all()
    # joint multilateral netting cannot lose to split CCPs in expectation either
    assert report.total_ee[3] <= report.total_ee[2] + 1e-9


def test_simulate_low_confidence_flag():
    config, scenarios = _small_market()
    report = simulate(config, scenarios, 1000, 4)
    # 1% of 1000 paths leaves ~10 exceedances per cell: every cell low-confidence
    assert report.low_confidence.all()
    bigger = simulate(config, scenarios, 20_000, 4)
    assert not bigger.low_confidence.any()


def test_simulate_histograms():
    config, scenarios = _small_market()
    report = simulate(config, scenarios, 2000, 6, collect_histograms=True)
    assert set(report.histograms) == {"one", "two_ccps", "joint_ccp"}
    for edges, counts in report.histograms.values():
        assert len(edges) == len(counts) + 1
        assert (np.diff(edges) > 0).all()
        assert counts.sum() == 2000 * config.n_dealers


def test_freedman_diaconis_edges_degenerate():
    edges = freedman_diaconis_edges(np.zeros(100))
    assert len(edges) == 2
    # more than half the values tied: zero IQR, one bin over the range
    edges = freedman_diaconis_edges(np.array([0.0] * 60 + [1.0, 5.0]))
    assert np.array_equal(edges, [0.0, 5.0, 10.0])


def test_freedman_diaconis_edges_whole_bins_and_pairwise_cap(monkeypatch):
    v = np.random.default_rng(3).standard_normal(10_000)
    q25, q75 = np.percentile(v, [25.0, 75.0])
    width = 2.0 * (q75 - q25) / 10_000 ** (1.0 / 3.0)
    edges = freedman_diaconis_edges(v)
    assert edges[0] == v.min() and edges[-2] <= v.max() < edges[-1]
    assert np.allclose(np.diff(edges), width)
    # the run's total count fixes the width; the cap doubles it
    assert np.allclose(np.diff(freedman_diaconis_edges(v, n_total=8 * v.size)), width / 2)
    monkeypatch.setattr(montecarlo, "_MAX_BINS", len(edges) // 3)
    capped = freedman_diaconis_edges(v)
    assert len(capped) - 1 <= len(edges) // 3
    assert np.allclose(np.diff(capped), 4 * width)


def _binned_counts(values, grid_block, n_total, max_bins):
    """Reference for ``_Histogram``: every value's bin index j on the grid of
    ``grid_block``, counted in bin j >> shift for the smallest shift that
    spans all of j in fewer than ``max_bins`` bins; (edges, counts)."""
    edges = freedman_diaconis_edges(grid_block, n_total=n_total)
    origin, width = float(edges[0]), float(edges[1] - edges[0])
    j = np.floor((values - origin) / width).astype(np.int64)
    shift = 0
    while (j.max() >> shift) - (j.min() >> shift) >= max_bins:
        shift += 1
    first = j.min() >> shift
    counts = np.bincount((j >> shift) - first)
    return origin + width * 2.0**shift * np.arange(first, first + counts.size + 1), counts


@pytest.mark.parametrize("block", [1, 7, 250, 4000])
def test_streamed_histogram_independent_of_chunking(block, monkeypatch):
    """The first block fixes the grid; the counts do not depend on how the
    rest of the stream is split, and count every value in its bin of the
    whole stream, merged pairwise to the cap."""
    monkeypatch.setattr(montecarlo, "_MAX_BINS", 64)
    v = np.random.default_rng(5).standard_t(3, 4000) * 10.0
    whole = montecarlo._Histogram(v.size)
    whole.add(v[:250])
    whole.add(v[250:])
    hist = montecarlo._Histogram(v.size)
    hist.add(v[:250])
    for a in range(250, v.size, block):
        hist.add(v[a : a + block])
    edges = hist.edges()
    assert np.array_equal(edges, whole.edges()) and np.array_equal(hist.counts, whole.counts)
    ref_edges, ref_counts = _binned_counts(v, v[:250], v.size, 64)
    assert np.allclose(edges, ref_edges, rtol=0, atol=1e-12 * np.abs(edges).max())
    assert np.array_equal(hist.counts, ref_counts) and hist.counts.dtype == np.int64
    assert hist.counts.sum() == v.size and hist.counts.size <= 64
    assert hist.counts[0] > 0 and hist.counts[-1] > 0
    assert edges[0] <= v.min() and v.max() < edges[-1]


def test_streamed_histogram_outlier_coarsens_earlier_counts(monkeypatch):
    """A later block far outside the first block's range raises the shift,
    so the counts already held are merged onto the wider bins."""
    monkeypatch.setattr(montecarlo, "_MAX_BINS", 64)
    v = np.random.default_rng(7).standard_normal(1000)
    hist = montecarlo._Histogram(v.size + 1)
    hist.add(v)
    fine = hist.edges()
    assert fine.size - 1 < 64
    outlier = v.max() + 1000 * (fine[1] - fine[0])
    hist.add(np.array([outlier]))
    edges = hist.edges()
    assert edges[1] - edges[0] >= 16 * (fine[1] - fine[0])
    ref_edges, ref_counts = _binned_counts(np.append(v, outlier), v, v.size + 1, 64)
    assert np.allclose(edges, ref_edges, rtol=0, atol=1e-12 * np.abs(edges).max())
    assert np.array_equal(hist.counts, ref_counts)
    assert hist.counts.size <= 64 and hist.counts.sum() == v.size + 1
    assert hist.counts[-1] == 1 and edges[-2] <= outlier < edges[-1]


def test_write_path_dump(tmp_path, monkeypatch):
    """The dump loads with numpy as the float64 exposures the report was
    reduced from, in the report's scenario and dealer order; a run that
    fails, or leaves paths out, leaves no file behind."""
    config, scenarios = _small_market()
    out = tmp_path / "paths.npy"
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 300)
    with dataio.open_path_dump(str(out), 1000, len(scenarios), config.n_dealers) as dump:
        report = simulate(config, scenarios, 1000, 8, dump=dump)
    paths = np.load(out)
    check_path_dump(paths, report)
    assert np.array_equal(paths, exposures_for_paths(config, scenarios, 8, 0, 1000))
    assert not (tmp_path / "paths.npy.part").exists()

    out.unlink()
    with pytest.raises(ValueError, match="shape"):
        with dataio.open_path_dump(str(out), 2000, len(scenarios), config.n_dealers) as dump:
            simulate(config, scenarios, 1000, 8, dump=dump)
    with pytest.raises(RuntimeError, match="missing paths"):
        with dataio.open_path_dump(str(out), 1000, len(scenarios), config.n_dealers) as dump:
            rows = exposures_for_paths(config, scenarios, 8, 0, 999)
            with pytest.raises(ValueError, match="float64 paths of shape"):
                dump.write(0, rows.astype(np.float32))
            dump.write(0, rows)
    assert list(tmp_path.iterdir()) == []


def test_path_dump_memory_does_not_grow_with_paths(tmp_path):
    """A dumping run's traced peak is flat in the path count: 8192 and 32768
    paths differ by less than 0.25 MB. Between them the tail buffers and
    their sorted copy grow by 4 (m2 - m1) doubles per cell, with m the
    tail size (83 and 329 values): 0.13 MB for the 16 cells here. A kept
    float32 copy of every exposure would add 4 bytes per value, 1.6 MB."""
    config, scenarios = _small_market()
    peaks = []
    for n in (8192, 32768):
        out = str(tmp_path / f"paths_{n}.npy")
        with dataio.open_path_dump(out, n, len(scenarios), config.n_dealers) as dump:
            tracemalloc.start()
            try:
                simulate(config, scenarios, n, 4, collect_histograms=True, dump=dump)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.25e6, peaks
