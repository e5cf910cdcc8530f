"""Copula-based exposure sampling and risk-measure estimation.

Sampling is counter-based: the uniform block feeding (path, pair, class) is a
pure function of (seed, path, pair, class), implemented with numpy's Philox
generator plus explicit block arithmetic. Workers therefore cannot influence
results; a report is bit-identical for a fixed (seed, n_paths, chunk_size)
at any thread count.

All clearing scenarios are evaluated on the same draws (common random
numbers), which is what makes scenario differences and the exposure-reduction
histograms low-variance.

Each chunk streams through uniforms, copula and kernel in equal blocks of a
bounded number of paths (``_BLOCK_DOUBLES`` uniforms each), so a worker's
working set is one block's shocks and temporaries plus its chunk's
(paths, scenarios, dealers) exposures, whatever the chunk size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import kernels
from .market import (
    MILLIONS_PER_BILLION,
    ConfigError,
    Marginal,
    MarketConfig,
    ScenarioKind,
    pair_scales,
    validate,
)

# smallest uniform we map through ndtri; anything below only occurs with
# probability 2^-53 per draw and would otherwise produce -inf
_MIN_UNIFORM = 2.0 ** -53


# ---------------------------------------------------------------------------
# Normalized t3 marginal
# ---------------------------------------------------------------------------


def student_t3_unit_cdf(x):
    """CDF of a Student-t with 3 dof rescaled to unit variance.

    For v = t3/sqrt(3) the CDF collapses to 1/2 + (arctan v + v/(1+v^2))/pi.
    """
    v = np.asarray(x, dtype=float)
    return 0.5 + (np.arctan(v) + v / (1.0 + v * v)) / np.pi


# Values are inverted in blocks of this size so that the three Halley scratch
# buffers stay in cache; results do not depend on it.
_T3_BLOCK = 32768
# Below this tail probability F(x) - q loses digits to cancellation, so such
# quantiles come from the tail series instead of the Halley iteration.
_T3_TAIL_Q = 1e-4
# pi q = w^3 P(w^2) for the tail probability q at |v| = 1/w, with
# P(y) = sum_{n>=1} (-1)^(n+1) 2n/(2n+1) y^(n-1); highest power first
_T3_TAIL_SERIES = tuple((-1) ** (n + 1) * 2 * n / (2 * n + 1) for n in range(13, 0, -1))


def _t3_tail_magnitude(q):
    """|v| with tail probability 1 - F(|v|) = q, for 0 <= q < _T3_TAIL_Q.

    Three Newton steps on z = w / cbrt(pi q), which solves z^3 P(w^2) = 1 and
    tends to (3/2)^(1/3) as q -> 0; nothing underflows or cancels.
    """
    c = np.cbrt(np.pi * q)
    z = np.full_like(q, 1.5 ** (1.0 / 3.0))
    for _ in range(3):
        y = (c * z) ** 2
        z -= (z**3 * np.polyval(_T3_TAIL_SERIES, y) - 1.0) * (1.0 + y) ** 2 / (2.0 * z * z)
    with np.errstate(divide="ignore"):  # q = 0 is u = 0 or 1: infinite quantile
        return 1.0 / (c * z)


def student_t3_unit_ppf(u):
    """Quantile of the unit-variance t3 marginal.

    There is no algebraic closed form at 3 dof (the CDF mixes arctan with a
    rational term), so it is inverted numerically on the lower half: with
    q = min(u, 1-u), which is exact, solve F(x) = q for x <= 0 and return
    x for u < 1/2 and -x above.

    Start from a rational guess near the median and from the cubic tail
    2/(3 pi |x|^3) for q < 0.15, then take three Halley steps. With
    s = 1+x^2 and g = pi (F(x) - q), and since F''/F'^2 = -2 pi x s, the
    Halley step is x -= g s^2 / 2 / (1 + g x s). For q < 1e-4, where
    F(x) - q cancels, x comes instead from the series
    pi q = sum_n (-1)^(n+1) 2n/(2n+1) w^(2n+1) in w = 1/|x|
    (see _t3_tail_magnitude).

    The round-trip defect |cdf(ppf(u)) - u| is at machine epsilon. Against
    a 60-digit inversion the relative error is at most about 1e-13 (near
    q = 1e-4) and about 1e-16 in the series range, for u down to 1e-300 and
    up to 1 - 2^-53. u = 0 and 1 map to -inf and inf.
    """
    u = np.asarray(u, dtype=float)
    v = np.empty(u.shape)
    flat_u, flat_v = u.reshape(-1), v.reshape(-1)
    scratch = np.empty((3, min(_T3_BLOCK, flat_u.size)))
    for start in range(0, flat_u.size, _T3_BLOCK):
        ub = flat_u[start : start + _T3_BLOCK]
        x = flat_v[start : start + _T3_BLOCK]
        q, a, b = scratch[:, : ub.size]
        np.subtract(1.0, ub, out=q)
        np.minimum(q, ub, out=q)
        tail = np.flatnonzero(q < _T3_TAIL_Q)
        q_tail = q[tail]
        # the Halley pass runs on q >= _T3_TAIL_Q; the tail is overwritten
        np.maximum(q, _T3_TAIL_Q, out=q)
        # start: slope pi/2 at the median, 1 - F(v) ~ 2/(3 pi v^3) in the tail
        np.subtract(q, 0.5, out=x)
        np.multiply(x, x, out=a)
        a *= -1.6
        a += 1.0
        x *= np.pi / 2.0
        x /= a
        far = q < 0.15
        x[far] = -np.cbrt(2.0 / (3.0 * np.pi * q[far]))
        q -= 0.5
        q *= -np.pi  # pi (1/2 - q), so that g = q + arctan x + x/s
        for _ in range(3):
            np.multiply(x, x, out=b)
            b += 1.0
            np.divide(x, b, out=b)
            np.arctan(x, out=a)
            a += b
            a += q
            np.multiply(x, x, out=b)
            b += 1.0
            a *= b  # g s
            b *= a
            b *= 0.5  # g s^2 / 2
            a *= x
            a += 1.0  # 1 + g x s
            b /= a
            x -= b
        x[tail] = -_t3_tail_magnitude(q_tail)
        np.negative(x, out=x, where=ub > 0.5)
    return v


# ---------------------------------------------------------------------------
# Pair layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairLayout:
    """Pair bookkeeping and sampling law shared by every chunk of a run.

    Each row holds one copula draw: one row per unordered pair i<j, in
    ``np.triu_indices`` order (so ``pair_i`` is sorted). The two directions
    of a pair are the two sides of one trade: the draw feeds dealer i with
    scale ``s_plus`` and dealer j, negated, with scale ``s_minus``. ``rho``
    and ``marginals`` are the market config's copula correlation and
    per-class marginal laws.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    n_dealers: int
    rho: float
    marginals: tuple[Marginal, ...]

    @property
    def n_classes(self) -> int:
        return len(self.marginals)

    @property
    def n_pairs(self) -> int:
        return self.pair_i.shape[0]

    @property
    def draws_per_path(self) -> int:
        # one common factor plus one idiosyncratic shock per class, per row
        return self.n_pairs * (self.n_classes + 1)

    @property
    def padded_draws(self) -> int:
        # Philox advances whole blocks of 4 doubles; pad so each path starts
        # exactly on a block boundary
        return -(-self.draws_per_path // 4) * 4


def _build_layout(config: MarketConfig) -> _PairLayout:
    n = config.n_dealers
    ii, jj = np.triu_indices(n, k=1)
    s_plus = pair_scales(config, ii, jj) * MILLIONS_PER_BILLION
    s_minus = pair_scales(config, jj, ii) * MILLIONS_PER_BILLION
    return _PairLayout(
        pair_i=ii.astype(np.intp),
        pair_j=jj.astype(np.intp),
        s_plus=np.ascontiguousarray(s_plus),
        s_minus=np.ascontiguousarray(s_minus),
        n_dealers=n,
        rho=config.rho,
        marginals=config.marginals(),
    )


def _uniforms(seed: int, layout: _PairLayout, start: int, count: int) -> np.ndarray:
    """Uniform block for paths [start, start+count): shape (count, pairs, K+1).

    Pure function of (seed, path index): path p owns doubles
    [p * padded_draws, p * padded_draws + draws_per_path).
    """
    bg = np.random.Philox(key=seed)
    bg.advance(start * layout.padded_draws // 4)
    u = np.random.Generator(bg).random(count * layout.padded_draws)
    np.maximum(u, _MIN_UNIFORM, out=u)
    u = u.reshape(count, layout.padded_draws)[:, : layout.draws_per_path]
    return u.reshape(count, layout.n_pairs, layout.n_classes + 1)


def _copula_values(u: np.ndarray, rho: float, marginals) -> np.ndarray:
    """Map uniforms (..., K+1) to standardized class shocks (..., K).

    Gaussian coordinates come from the equicorrelation factor split
    sqrt(rho) * common + sqrt(1-rho) * idiosyncratic; t3 classes are pushed
    through the Gaussian copula (normal CDF, then the t3 quantile). The t3
    quantile takes the tail probability Phi(-|y|) and gets the sign of y back,
    so both tails resolve as far as the lower one: Phi(y) itself rounds to
    1.0 for y above about 8.3. The simulation applies the two steps apart
    (see ``_shocks``).
    """
    return _apply_marginals(_gaussian_copula(u, rho), marginals)


def _gaussian_copula(u: np.ndarray, rho: float, out=None) -> np.ndarray:
    """Equicorrelated standard normals (..., K) from uniforms (..., K+1),
    written to ``out`` when it is given."""
    # Bit-identical to sqrt(rho) * z[..., :1] + sqrt(1-rho) * z[..., 1:]:
    # addition commutes, and at rho = 0 that sum is 0.0 * z0 + 1.0 * z == z
    # for finite z, so the common factor needs no ndtri at all.
    y = ndtri(u[..., 1:], out=out)
    if rho > 0.0:
        y *= math.sqrt(1.0 - rho)
        common = ndtri(u[..., :1])
        common *= math.sqrt(rho)
        y += common
    return y


def _apply_marginals(y: np.ndarray, marginals) -> np.ndarray:
    """Replace the Gaussian coordinates of t3 classes by t3 ones, in place."""
    for k, marginal in enumerate(marginals):
        if marginal is Marginal.STUDENT_T3:
            col = y[..., k]
            p = np.abs(col)
            np.negative(p, out=p)
            ndtr(p, out=p)
            np.copysign(student_t3_unit_ppf(p), col, out=col)
    return y


# Uniforms are drawn and mapped to normals in sub-blocks of at most this many
# doubles, so a block's shocks never coexist with all of its uniforms. The
# mapping is elementwise: results do not depend on it.
_UNIFORM_DOUBLES = 2**18


def _shocks(layout: _PairLayout, seed: int, start: int, count: int) -> np.ndarray:
    """Standardized class shocks for paths [start, start+count):
    (count, pairs, K), the ``_copula_values`` of their uniforms."""
    y = np.empty((count, layout.n_pairs, layout.n_classes))
    step = max(1, _UNIFORM_DOUBLES // layout.padded_draws)
    for a in range(0, count, step):
        u = _uniforms(seed, layout, start + a, min(step, count - a))
        _gaussian_copula(u, layout.rho, out=y[a : a + u.shape[0]])
    return _apply_marginals(y, layout.marginals)


def sample_draws(config: MarketConfig, seed: int, start: int, count: int) -> np.ndarray:
    """Position matrices for paths [start, start+count): (count, N, N, K).

    Entry [c, i, j, k] is what dealer i holds in class k facing dealer j
    (millions USD), identical to what the simulation kernel consumes for the
    same seed and path indices; used by the oracle-equivalence tests.
    """
    layout = _build_layout(config)
    y = _shocks(layout, seed, start, count)
    n, k = layout.n_dealers, layout.n_classes
    x = np.zeros((count, n, n, k))
    x[:, layout.pair_i, layout.pair_j, :] = y * layout.s_plus
    x[:, layout.pair_j, layout.pair_i, :] = -y * layout.s_minus
    return x


def _scenario_arrays(scenarios, n_classes: int):
    resid = np.empty((len(scenarios), n_classes))
    groups: list[np.ndarray] = []
    offsets = [0]
    for s, scen in enumerate(scenarios):
        resid[s] = scen.residual_weights(n_classes)
        groups.extend(scen.ccp_groups(n_classes))
        offsets.append(len(groups))
    ccp_w = (
        np.vstack(groups) if groups else np.zeros((0, n_classes))
    )
    return resid, ccp_w, np.asarray(offsets, dtype=np.intp)


# A chunk is sampled and evaluated in equal blocks of paths (their sizes
# differ by at most one) holding at most this many uniform doubles, so a
# worker's working set does not grow with the chunk size. The split moves no
# bits: the kernel's BLAS products run per pair over classes, with paths as
# columns, and round every path alike whatever the block or sub-block width.
# 2**21 keeps a 2000-path chunk of the default market in one block, where the
# benchmark self-test (perfbench/selftest.py) counts one t3 quantile call.
_BLOCK_DOUBLES = 2**21


def _path_blocks(layout: _PairLayout, start: int, count: int) -> list[int]:
    """Bounds [b_0 = start, ..., b_n = start + count] of the equal blocks
    that paths [start, start+count) are evaluated in."""
    per_block = max(1, _BLOCK_DOUBLES // layout.padded_draws)
    n_blocks = -(-count // per_block)
    return [start + count * b // n_blocks for b in range(n_blocks + 1)]


def _chunk_exposures(
    layout: _PairLayout, scenario_arrays: tuple, seed: int, start: int, count: int
) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for one chunk of paths.

    The kernel draws each block's shocks just before it evaluates them, so
    only one block of uniforms and shocks exists at a time."""
    bounds = _path_blocks(layout, start, count)
    return kernels.scenario_exposures(
        (_shocks(layout, seed, a, b - a) for a, b in zip(bounds, bounds[1:])),
        count,
        layout.s_plus,
        layout.s_minus,
        layout.pair_i,
        layout.pair_j,
        *scenario_arrays,
        layout.n_dealers,
    )


def exposures_for_paths(
    config: MarketConfig, scenarios, seed: int, start: int, count: int
) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for the given paths.

    This is exactly the simulation hot path; ``simulate`` runs it chunk by
    chunk and aggregates.
    """
    layout = _build_layout(config)
    arrays = _scenario_arrays(scenarios, layout.n_classes)
    return _chunk_exposures(layout, arrays, seed, start, count)


# ---------------------------------------------------------------------------
# Risk measures
# ---------------------------------------------------------------------------


def empirical_quantile(sorted_sample, level: float) -> float:
    """Order-statistic quantile with linear interpolation between adjacent
    order statistics: index h = (n-1) * level into the ascending sample."""
    x = np.asarray(sorted_sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if x.size == 1:
        return float(x[0])
    h = (x.size - 1) * level
    lo = int(math.floor(h))
    frac = h - lo
    if lo >= x.size - 1:
        return float(x[-1])
    return float(x[lo] + frac * (x[lo + 1] - x[lo]))


def _tail_stats(sorted_sample: np.ndarray, level: float) -> tuple[float, float, int]:
    """(VaR, ES, exceedance count): ES is the mean of values above VaR and
    falls back to VaR itself when nothing exceeds it."""
    var = empirical_quantile(sorted_sample, level)
    idx = np.searchsorted(sorted_sample, var, side="right")
    tail = sorted_sample[idx:]
    if tail.size == 0:
        return var, var, 0
    return var, float(tail.mean()), int(tail.size)


def freedman_diaconis_edges(values: np.ndarray, max_bins: int = 2000) -> np.ndarray:
    """Histogram bin edges with the Freedman-Diaconis width, capped."""
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return np.array([lo - 0.5, hi + 0.5])
    q25, q75 = np.percentile(v, [25.0, 75.0])
    width = 2.0 * (q75 - q25) / v.size ** (1.0 / 3.0)
    if width <= 0:
        n_bins = 1
    else:
        n_bins = int(np.clip(math.ceil((hi - lo) / width), 1, max_bins))
    return np.linspace(lo, hi, n_bins + 1)


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Per-dealer and per-scenario risk measures from one common-random-numbers
    pass, all in millions USD, plus ratios against the no-CCP base."""

    dealer_names: tuple[str, ...]
    scenario_names: tuple[str, ...]
    n_paths: int
    seed: int
    level: float
    ee: np.ndarray              # (scenarios, dealers)
    ee_se: np.ndarray           # standard error of each EE estimate
    var: np.ndarray             # empirical quantile at `level`
    es: np.ndarray              # mean exceedance beyond the quantile
    es_exceedances: np.ndarray  # tail sample size behind each ES cell
    mean_max: np.ndarray        # (scenarios,) mean over paths of max_i e_i
    base_index: int | None
    assumptions: tuple[str, ...] = ()
    histograms: dict | None = None   # scenario name -> (bin edges, counts)
    samples: np.ndarray | None = None  # (scenarios, paths, dealers) float32

    @property
    def total_ee(self) -> np.ndarray:
        return self.ee.sum(axis=1)

    def _ratio(self, values: np.ndarray) -> np.ndarray:
        if self.base_index is None:
            raise ValueError("report has no no-CCP base scenario")
        base = values[self.base_index]
        return np.divide(
            values, base, out=np.full_like(values, np.nan), where=base != 0
        )

    @property
    def ee_ratio(self) -> np.ndarray:
        return self._ratio(self.ee)

    @property
    def var_ratio(self) -> np.ndarray:
        return self._ratio(self.var)

    @property
    def es_ratio(self) -> np.ndarray:
        return self._ratio(self.es)

    @property
    def total_ee_ratio(self) -> np.ndarray:
        return self._ratio(self.total_ee)

    @property
    def mean_max_ratio(self) -> np.ndarray:
        return self._ratio(self.mean_max)

    @property
    def low_confidence(self) -> np.ndarray:
        """ES cells whose tail holds fewer than 100 samples."""
        return self.es_exceedances < 100


def _check_pathwise(e: np.ndarray, scenarios) -> None:
    if (e < 0.0).any():
        raise AssertionError("negative realized exposure")
    # a joint CCP nets across classes inside one max, so pathwise it can
    # never exceed the matching two-CCP scenario
    keyed: dict[tuple, dict] = {}
    for s, scen in enumerate(scenarios):
        key = tuple(sorted((c.class_id, c.fraction) for c in scen.cleared))
        keyed.setdefault(key, {})[scen.kind] = s
    for key, kinds in keyed.items():
        if ScenarioKind.JOINT_CCP in kinds and ScenarioKind.TWO_CCPS in kinds:
            ej = e[:, kinds[ScenarioKind.JOINT_CCP], :]
            et = e[:, kinds[ScenarioKind.TWO_CCPS], :]
            tol = 1e-9 * (1.0 + np.abs(et))
            if (ej > et + tol).any():
                raise AssertionError("joint-CCP exposure exceeded two-CCP exposure")


def simulate(
    config: MarketConfig,
    scenarios,
    n_paths: int,
    seed: int,
    *,
    threads: int = 1,
    chunk_size: int = 4096,
    level: float = 0.99,
    collect_histograms: bool = False,
    check_invariants: bool = False,
    keep_samples: bool = False,
    assumptions: tuple[str, ...] = (),
) -> RiskReport:
    """Estimate EE, VaR, ES and mean-max for every scenario in one pass.

    Parameters
    ----------
    config
        Market; it also fixes the sampling law (copula correlation rho and
        per-class marginals).
    scenarios
        Clearing scenarios, all evaluated on the same draws. Ratios are
        reported against the first scenario that clears nothing.
    n_paths, seed
        Path count (>= 1000) and Philox key. Fixed (seed, n_paths,
        chunk_size) gives a bit-identical report at any ``threads``.
    threads
        Chunks evaluated concurrently (>= 1).
    chunk_size
        Paths per chunk (>= 1). Each worker evaluates its chunk in blocks of
        bounded size, so its working set does not grow with ``chunk_size``;
        the chunk size still regroups the EE sums, so it is part of what
        fixes the report's bits.
    """
    validate(config).raise_if_invalid()
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ConfigError("at least one scenario required")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    if n_paths < 1000:
        raise ConfigError("n_paths below the 10^3 floor")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    if not 0.0 < level < 1.0:
        raise ConfigError("risk-measure level must lie in (0, 1)")
    if not 0 <= seed < 2**128:  # the Philox key is 128 bits
        raise ConfigError("seed must be an integer in [0, 2**128)")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    layout = _build_layout(config)
    arrays = _scenario_arrays(scenarios, layout.n_classes)
    n_scen, n_dealers = len(scenarios), layout.n_dealers

    base_candidates = [s for s, scen in enumerate(scenarios) if scen.clears_nothing]
    base_index = base_candidates[0] if base_candidates else None

    samples = np.empty((n_scen, n_paths, n_dealers), dtype=np.float32)

    chunks = [
        (ci, start, min(chunk_size, n_paths - start))
        for ci, start in enumerate(range(0, n_paths, chunk_size))
    ]

    def run_chunk(job):
        ci, start, count = job
        e = _chunk_exposures(layout, arrays, seed, start, count)
        if check_invariants:
            _check_pathwise(e, scenarios)
        samples[:, start : start + count, :] = e.transpose(1, 0, 2)
        return ci, e.sum(axis=0), (e * e).sum(axis=0), e.max(axis=2).sum(axis=0)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, chunks))
    else:
        partials = [run_chunk(job) for job in chunks]

    ee_sum = np.zeros((n_scen, n_dealers))
    sq_sum = np.zeros((n_scen, n_dealers))
    mm_sum = np.zeros(n_scen)
    for _, esum, sqsum, mmsum in sorted(partials, key=lambda p: p[0]):
        ee_sum += esum
        sq_sum += sqsum
        mm_sum += mmsum

    ee = ee_sum / n_paths
    ee_se = np.sqrt(np.maximum(sq_sum / n_paths - ee * ee, 0.0) / n_paths)
    mean_max = mm_sum / n_paths

    var = np.empty((n_scen, n_dealers))
    es = np.empty((n_scen, n_dealers))
    exceed = np.empty((n_scen, n_dealers), dtype=np.int64)
    for s in range(n_scen):
        for n in range(n_dealers):
            xs = np.sort(samples[s, :, n].astype(np.float64))
            var[s, n], es[s, n], exceed[s, n] = _tail_stats(xs, level)

    histograms = None
    if collect_histograms and base_index is not None:
        histograms = {}
        base = samples[base_index].astype(np.float64)
        for s, scen in enumerate(scenarios):
            if s == base_index:
                continue
            eps = (base - samples[s].astype(np.float64)).ravel()
            edges = freedman_diaconis_edges(eps)
            counts, _ = np.histogram(eps, bins=edges)
            histograms[scen.name] = (edges, counts)

    return RiskReport(
        dealer_names=tuple(d.name for d in config.dealers),
        scenario_names=tuple(names),
        n_paths=n_paths,
        seed=seed,
        level=level,
        ee=ee,
        ee_se=ee_se,
        var=var,
        es=es,
        es_exceedances=exceed,
        mean_max=mean_max,
        base_index=base_index,
        assumptions=tuple(assumptions),
        histograms=histograms,
        samples=samples if keep_samples else None,
    )


def write_path_dump(report: RiskReport, path) -> None:
    """Per-path diagnostic dump: one ``scenario,dealer,value`` row per
    realized exposure. Needs a report built with ``keep_samples=True``."""
    if report.samples is None:
        raise ValueError("report was built without keep_samples=True")
    with open(path, "w") as fh:
        fh.write("scenario,dealer,value\n")
        for s, sname in enumerate(report.scenario_names):
            for n, dname in enumerate(report.dealer_names):
                for v in report.samples[s, :, n]:
                    fh.write(f"{sname},{dname},{float(v)!r}\n")
