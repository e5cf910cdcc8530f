"""Shared test utilities: independent oracles, small config builders, and
the engine entry points that only tests call.

The oracles here re-implement the exposure definitions in deliberately
straight-line Python so they cannot share bugs with the engine's vectorized
or compiled paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from ccpnet import montecarlo
from ccpnet.market import (
    MILLIONS_PER_BILLION,
    AssetClass,
    ConfigError,
    Dealer,
    HomogeneousSpec,
    Marginal,
    MarketConfig,
    pair_scales,
)


def make_config(notionals, betas, rho=0.0, marginals=None, names=None):
    """Small market from a plain nested list of notionals (dealers x classes)."""
    notionals = [list(row) for row in notionals]
    k = len(notionals[0])
    marginals = marginals or [Marginal.GAUSSIAN] * k
    names = names or [f"c{j}" for j in range(k)]
    classes = tuple(
        AssetClass(id=j, name=names[j], beta=float(betas[j]), marginal=marginals[j])
        for j in range(k)
    )
    dealers = tuple(
        Dealer(id=i, name=f"dealer{i}", notionals=tuple(row))
        for i, row in enumerate(notionals)
    )
    return MarketConfig(dealers=dealers, classes=classes, rho=rho)


def quad_positive_mean(sigma: float) -> float:
    """E[max(X, 0)] for X ~ N(0, sigma^2) by numerical quadrature."""
    if sigma == 0.0:
        return 0.0
    pdf = lambda x: math.exp(-x * x / (2 * sigma * sigma)) / (
        sigma * math.sqrt(2 * math.pi)
    )
    val, _ = quad(lambda x: x * pdf(x), 0.0, 40.0 * sigma, limit=200)
    return val


def quad_bilateral_ee(config: MarketConfig, i: int) -> float:
    """Bilateral expected exposure of dealer i via per-pair quadrature.

    Builds each pair's cross-class covariance explicitly, then integrates
    the positive part of the Gaussian sum numerically; independent of the
    engine's folded-mean prefactor.
    """
    z = config.notional_matrix()
    corr = config.correlation_matrix()
    betas = config.betas()
    k = config.n_classes
    total = 0.0
    for j in range(config.n_dealers):
        if j == i:
            continue
        s = np.zeros(k)
        for kk in range(k):
            denom = z[:, kk].sum() - z[i, kk]
            if z[i, kk] > 0 and z[j, kk] > 0:
                s[kk] = betas[kk] * z[i, kk] * z[j, kk] / denom
        var = float(s @ corr @ s)
        total += quad_positive_mean(math.sqrt(var))
    return total


def quad_tail_stats(sigma: float, level: float) -> tuple[float, float]:
    """(quantile, conditional tail mean) of max(X, 0), X ~ N(0, sigma^2),
    by root solving plus quadrature."""
    from scipy.optimize import brentq

    pdf = lambda x: math.exp(-x * x / (2 * sigma * sigma)) / (
        sigma * math.sqrt(2 * math.pi)
    )
    cdf_above = lambda q: quad(pdf, q, 40 * sigma, limit=200)[0]
    q = brentq(lambda x: cdf_above(x) - (1.0 - level), 0.0, 10.0 * sigma, xtol=1e-12)
    tail_mean = quad(lambda x: x * pdf(x), q, 40 * sigma, limit=200)[0] / cdf_above(q)
    return q, tail_mean


def student_t3_unit_cdf(x):
    """CDF of a Student-t with 3 dof rescaled to unit variance: the reference
    that the engine's quantile is inverted against.

    For v = t3/sqrt(3) the CDF collapses to 1/2 + (arctan v + v/(1+v^2))/pi.
    """
    v = np.asarray(x, dtype=float)
    return 0.5 + (np.arctan(v) + v / (1.0 + v * v)) / np.pi


def _normals(seed: int, config: MarketConfig, start: int, count: int) -> np.ndarray:
    """Normals for paths [start, start+count) as one block: shape
    (count, pairs, W), W = K at rho = 0 and K+1 at rho > 0."""
    (z,) = montecarlo._normal_blocks(seed, config, start, count, count)
    return z


def copula_values(z: np.ndarray, rho: float, marginals) -> np.ndarray:
    """Standardized class shocks (..., K) from normals (..., W) in one pass:
    the normals themselves at rho = 0 (W = K), the engine's factor split of
    (..., K+1) at rho > 0, then its t3 marginals."""
    y = z.copy() if rho == 0.0 else montecarlo._correlate(z, rho)
    return montecarlo._apply_marginals(y, marginals)


def joined_shocks(config: MarketConfig, seed: int, start: int, count: int, step: int):
    """The shocks of paths [start, start+count) as one (count, pairs, K)
    array: the blocks of ``montecarlo._shocks``, each copied when it is
    pulled (a Gaussian market draws every block into one buffer), joined in
    order."""
    blocks = montecarlo._shocks(config, seed, start, count, step)
    return np.concatenate([y.copy() for y in blocks])


def sample_draws(config: MarketConfig, seed: int, start: int, count: int) -> np.ndarray:
    """Position matrices for paths [start, start+count): (count, N, N, K).

    Entry [c, i, j, k] is what dealer i holds in class k facing dealer j
    (millions USD), built from the shocks the simulation kernel consumes for
    the same seed and path indices.
    """
    y = joined_shocks(config, seed, start, count, count)
    n, k = config.n_dealers, config.n_classes
    ii, jj = np.triu_indices(n, k=1)
    x = np.zeros((count, n, n, k))
    x[:, ii, jj, :] = y * (pair_scales(config, ii, jj) * MILLIONS_PER_BILLION)
    x[:, jj, ii, :] = -y * (pair_scales(config, jj, ii) * MILLIONS_PER_BILLION)
    return x


def exposures_for_paths(
    config: MarketConfig, scenarios, seed: int, start: int, count: int
) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for the given paths:
    the chunk evaluation ``simulate`` runs before it reduces a chunk."""
    plan = montecarlo._plan(config, scenarios)
    return montecarlo._chunk_exposures(config, plan, seed, start, count)


def check_pathwise(e: np.ndarray, scenarios) -> None:
    """Raise AssertionError unless the exposures ``e`` (paths, scenarios,
    dealers) hold pathwise: none is negative, and a joint CCP never exceeds
    one CCP per class clearing the same fractions."""
    if (e < 0.0).any():
        raise AssertionError("negative realized exposure")
    # a joint CCP nets across classes inside one max, so pathwise it can
    # never exceed one CCP per class clearing the same fractions
    separate, joint = {}, []
    for s, scen in enumerate(scenarios):
        key = frozenset((c.class_id, c.fraction) for c in scen.cleared)
        n_ccps = len({c.ccp for c in scen.cleared})
        if n_ccps == len(scen.cleared):
            separate[key] = s
        elif n_ccps == 1:
            joint.append((key, s))
    for key, s in joint:
        if key in separate:
            ej, et = e[:, s, :], e[:, separate[key], :]
            tol = 1e-9 * (1.0 + np.abs(et))
            if (ej > et + tol).any():
                raise AssertionError("joint-CCP exposure exceeded two-CCP exposure")


def oracle_exposures(x, scenarios):
    """Straight-line re-implementation of the scenario exposure definitions.

    x: one draw as a nested structure indexable as x[i][j][k]. Returns
    {scenario name: [exposure per dealer]}.
    """
    n = len(x)
    k = len(x[0][0])
    out = {}
    for scen in scenarios:
        resid = [1.0] * k
        ccps: dict[int, list] = {}
        for c in scen.cleared:
            resid[c.class_id] = 1.0 - c.fraction
            ccps.setdefault(c.ccp, []).append((c.class_id, c.fraction))
        per_dealer = []
        for i in range(n):
            e = 0.0
            for j in range(n):
                if j == i:
                    continue
                net = 0.0
                for kk in range(k):
                    net += resid[kk] * x[i][j][kk]
                if net > 0.0:
                    e += net
            for cleared in ccps.values():
                net = 0.0
                for j in range(n):
                    if j == i:
                        continue
                    for kk, w in cleared:
                        net += w * x[i][j][kk]
                if net > 0.0:
                    e += net
            per_dealer.append(e)
        out[scen.name] = per_dealer
    return out


def reports_equal(a, b) -> bool:
    """Field-by-field numeric equality of two RiskReports; used by the
    round-trip and thread-determinism checks."""
    return (
        a.dealer_names == b.dealer_names
        and a.scenario_names == b.scenario_names
        and a.n_paths == b.n_paths
        and a.seed == b.seed
        and a.level == b.level
        and a.base_index == b.base_index
        and a.assumptions == b.assumptions
        and a.inputs == b.inputs
        and np.array_equal(a.ee, b.ee)
        and np.array_equal(a.ee_se, b.ee_se)
        and np.array_equal(a.var, b.var)
        and np.array_equal(a.es, b.es)
        and np.array_equal(a.es_exceedances, b.es_exceedances)
        and np.array_equal(a.mean_max, b.mean_max)
    )


def check_path_dump(paths: np.ndarray, report) -> None:
    """Raise AssertionError unless the loaded path dump ``paths`` (paths,
    scenarios, dealers) holds the exposures ``report`` was reduced from: the
    per-cell mean is the EE, the mean over paths of each scenario's largest
    dealer exposure is the mean-max, and the per-cell order statistic at
    (paths - 1) * level is the VaR, bit for bit."""
    assert paths.dtype == np.float64 and paths.flags.c_contiguous
    n_scen, n_dealers = len(report.scenario_names), len(report.dealer_names)
    assert paths.shape == (report.n_paths, n_scen, n_dealers)
    np.testing.assert_allclose(paths.mean(axis=0), report.ee, rtol=1e-12)
    np.testing.assert_allclose(paths.max(axis=2).mean(axis=0), report.mean_max, rtol=1e-12)
    ordered = np.sort(paths, axis=0)
    var = [
        [montecarlo.empirical_quantile(ordered[:, s, d], report.level) for d in range(n_dealers)]
        for s in range(n_scen)
    ]
    assert np.array_equal(var, report.var)


def ee_zscores(seeds, n_paths: int) -> np.ndarray:
    """z = (MC EE - closed form) / reported SE for every (scenario, dealer)
    cell of the default Gaussian market, one row per seed: (seeds, cells)."""
    from ccpnet import analytic, dataio

    config, scenarios, _ = dataio.build_market(dataio.RunConfig())
    exact = MILLIONS_PER_BILLION * np.array(
        [analytic.scenario_expected_exposures(config, s).per_dealer for s in scenarios]
    )
    rows = []
    for seed in seeds:
        report = montecarlo.simulate(config, scenarios, n_paths, seed)
        rows.append(((report.ee - exact) / report.ee_se).ravel())
    return np.array(rows)


def oracle_min_clearing_members(spec: HomogeneousSpec, w: float = 1.0) -> int:
    """Member threshold by the matrix form of the pair variances and an
    integer scan: every N in [2, 10 n*] below the closed form's n* <= 100,000,
    a +-1000 window around it above. Raises the engine's ConfigError messages
    when the curves never cross or cross more than once."""
    sig = np.array(spec.alphas) * np.array(spec.credit_exposures)
    corr = np.full((spec.n_classes, spec.n_classes), spec.rho)
    np.fill_diagonal(corr, 1.0)
    a = math.sqrt(float(sig @ corr @ sig))
    resid = np.ones(spec.n_classes)
    resid[spec.cleared_class] -= w
    sr = sig * resid
    b = math.sqrt(float(sr @ corr @ sr))
    if a <= b:
        raise ConfigError("CCP never reduces expected exposure for this spec")
    sigma_c = float(sig[spec.cleared_class])
    x = w * sigma_c / (a - b)
    n_star = max(2, math.floor(1.0 + x * x) + 1)
    if n_star <= 100_000:
        ns = np.arange(2, 10 * n_star + 1)
    else:
        ns = np.arange(max(2, n_star - 1000), n_star + 1000)
    bilat = (ns - 1) * a
    ccp = (ns - 1) * b + w * sigma_c * np.sqrt(ns - 1.0)
    below = ccp < bilat
    crossing = np.flatnonzero(below)
    if crossing.size == 0:
        raise ConfigError("CCP never reduces expected exposure for this spec")
    if not below[crossing[0]:].all():
        raise ConfigError("expected-exposure curves cross more than once")
    return int(ns[crossing[0]])
