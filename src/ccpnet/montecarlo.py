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
bounded number of paths (``_BLOCK_DOUBLES`` uniforms each): the chunk loop
draws one block's shocks and hands them to the kernel, which writes that
block's rows of the chunk's (paths, scenarios, dealers) exposures. A
worker's working set is one block's shocks and temporaries plus its chunk's
exposures, whatever the chunk size.

Each worker reduces only its own chunk, as soon as its exposures exist: EE
moments, mean-max sums, the exposure reductions to histogram and, per
(scenario, dealer), the largest values that VaR and ES read. The calling
thread merges these summaries in chunk order; chunk 0, merged first, fixes
the histogram grids. No worker waits on another, and only the calling thread
writes run-wide state. No per-path buffer is kept unless a path dump asks
for one.
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
    pair_scales,
    validate,
)

# smallest uniform we map through ndtri; anything below only occurs with
# probability 2^-53 per draw and would otherwise produce -inf
_MIN_UNIFORM = 2.0 ** -53


# ---------------------------------------------------------------------------
# Normalized t3 marginal
# ---------------------------------------------------------------------------


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
    """Pair bookkeeping, sampling law and kernel plan shared by every chunk
    of a run.

    Each row holds one copula draw: one row per unordered pair i<j, in
    ``np.triu_indices`` order (so ``pair_i`` is sorted). The two directions
    of a pair are the two sides of one trade: the draw feeds dealer i with
    scale ``pair_scales(config, i, j)`` and dealer j, negated, with scale
    ``pair_scales(config, j, i)``; ``plan`` folds both scales into the
    kernel's coefficients. ``rho`` and ``marginals`` are the market config's
    copula correlation and per-class marginal laws.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    n_dealers: int
    rho: float
    marginals: tuple[Marginal, ...]
    plan: kernels.Plan

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


def _build_layout(config: MarketConfig, scenarios) -> _PairLayout:
    n = config.n_dealers
    ii, jj = (k.astype(np.intp) for k in np.triu_indices(n, k=1))
    s_plus = pair_scales(config, ii, jj) * MILLIONS_PER_BILLION
    s_minus = pair_scales(config, jj, ii) * MILLIONS_PER_BILLION
    return _PairLayout(
        pair_i=ii,
        pair_j=jj,
        n_dealers=n,
        rho=config.rho,
        marginals=config.marginals(),
        plan=kernels.plan(s_plus, s_minus, ii, jj, scenarios, n),
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
    """Replace the Gaussian coordinates of t3 classes by t3 ones, in place.

    The copula pushes a t3 class through the normal CDF, then the t3
    quantile. The quantile takes the tail probability Phi(-|y|) and gets the
    sign of y back, so both tails resolve as far as the lower one: Phi(y)
    itself rounds to 1.0 for y above about 8.3.
    """
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
    (count, pairs, K): the Gaussian copula of their uniforms, with each t3
    class's marginal applied."""
    y = np.empty((count, layout.n_pairs, layout.n_classes))
    step = max(1, _UNIFORM_DOUBLES // layout.padded_draws)
    for a in range(0, count, step):
        u = _uniforms(seed, layout, start + a, min(step, count - a))
        _gaussian_copula(u, layout.rho, out=y[a : a + u.shape[0]])
    return _apply_marginals(y, layout.marginals)


# ``_chunk_exposures`` samples and evaluates a chunk in equal blocks of paths
# (their sizes differ by at most one) holding at most this many uniform
# doubles, one kernel call per block, so a worker's working set does not grow
# with the chunk size. The split moves no bits: the kernel's BLAS products run
# per pair over classes, with paths as columns, and round every path alike
# whatever the block or sub-block width.
# 2**21 keeps a 2000-path chunk of the default market in one block, where the
# benchmark self-test (perfbench/selftest.py) counts one t3 quantile call.
_BLOCK_DOUBLES = 2**21


def _path_blocks(layout: _PairLayout, start: int, count: int) -> list[int]:
    """Bounds [b_0 = start, ..., b_n = start + count] of the equal blocks
    that paths [start, start+count) are evaluated in."""
    per_block = max(1, _BLOCK_DOUBLES // layout.padded_draws)
    n_blocks = -(-count // per_block)
    return [start + count * b // n_blocks for b in range(n_blocks + 1)]


def _chunk_exposures(layout: _PairLayout, seed: int, start: int, count: int) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for one chunk of paths.

    Each block's shocks are drawn just before the kernel evaluates them and
    freed when it returns, so only one block of uniforms and shocks exists
    at a time."""
    out = np.empty((count, layout.plan.n_scenarios, layout.n_dealers))
    bounds = _path_blocks(layout, start, count)
    for a, b in zip(bounds, bounds[1:]):
        block = out[a - start : b - start]
        kernels.scenario_exposures(_shocks(layout, seed, a, b - a), layout.plan, out=block)
    return out


# ---------------------------------------------------------------------------
# Risk measures
# ---------------------------------------------------------------------------


def _order_statistic(sorted_top: np.ndarray, n: int, level: float) -> float:
    """Order statistic at index h = (n-1) * level of an ascending n-value
    sample, interpolated linearly between its neighbours. ``sorted_top``
    holds the sample's largest values in ascending order (all n of them, or
    at least ``_tail_size(n, level)``)."""
    h = (n - 1) * level
    lo = int(math.floor(h))
    if lo >= n - 1:
        return float(sorted_top[-1])
    x = sorted_top[lo - (n - sorted_top.size) :]
    return float(x[0] + (h - lo) * (x[1] - x[0]))


def empirical_quantile(sorted_sample, level: float) -> float:
    """Order-statistic quantile with linear interpolation between adjacent
    order statistics: index h = (n-1) * level into the ascending sample."""
    x = np.asarray(sorted_sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return _order_statistic(x, x.size, level)


def _tail_size(n: int, level: float) -> int:
    """How many of an n-value sample's largest values ``_tail_stats`` reads:
    the order statistic at floor((n-1) * level) and all above it, at most
    ceil((1-level) * n) + 1 values."""
    return n - int(math.floor((n - 1) * level))


def _tail_stats(
    sorted_top: np.ndarray, level: float, n: int | None = None
) -> tuple[float, float, int]:
    """(VaR, ES, exceedance count) of an n-value sample from its largest
    values in ascending order: all n of them (n defaults to their count) or
    at least ``_tail_size(n, level)``. ES is the mean of the values above
    VaR and falls back to VaR itself when nothing exceeds it."""
    n = sorted_top.size if n is None else n
    var = _order_statistic(sorted_top, n, level)
    idx = np.searchsorted(sorted_top, var, side="right")
    tail = sorted_top[idx:]
    if tail.size == 0:
        return var, var, 0
    return var, float(tail.mean()), int(tail.size)


def _top(values: np.ndarray, m: int) -> np.ndarray:
    """The m largest entries of each column of ``values`` along axis 0 (all
    of them when there are no more), unordered. ``values`` is partitioned
    in place and the top rows are copied out, so it can be freed."""
    k = values.shape[0] - m
    if k <= 0:
        return values
    values.partition(k, axis=0)
    return values[k:].copy()


class _TopRows:
    """The m largest values seen so far in each cell of a ``cells``-shaped
    array, fed blocks of at most ``max_rows`` rows of shape ``(rows, *cells)``.

    Rows lie contiguous on the buffer's last axis. Blocks are appended as
    they come and the buffer is partitioned down to m rows only once m rows
    beyond the kept m are pending, so a merge comes at most once per m rows
    added and partitions at most 3m - 1 rows per cell. The kept values are
    a fixed multiset whatever the blocks, so the tail statistics read from
    them do not depend on when the merges happen."""

    def __init__(self, cells: tuple[int, ...], m: int, max_rows: int):
        self._m = m
        self._buf = np.empty(cells + (2 * m - 1 + max_rows,))
        self._fill = 0

    def add(self, rows: np.ndarray) -> None:
        end = self._fill + rows.shape[0]
        self._buf[..., self._fill : end] = np.moveaxis(rows, 0, -1)
        self._fill = end
        if end >= 2 * self._m:
            self._keep_top()

    def _keep_top(self) -> None:
        m, fill = self._m, self._fill
        if fill > m:
            live = self._buf[..., :fill]
            live.partition(fill - m, axis=-1)
            self._buf[..., :m] = live[..., fill - m :]
            self._fill = m

    def sorted(self) -> np.ndarray:
        """Each cell's m largest values (all, when fewer came), ascending
        along the last axis."""
        self._keep_top()
        return np.sort(self._buf[..., : self._fill], axis=-1)


_MAX_BINS = 2000


def freedman_diaconis_edges(
    values: np.ndarray, max_bins: int = _MAX_BINS, n_total: int | None = None
) -> np.ndarray:
    """Histogram bin edges on a Freedman-Diaconis grid through ``values``.

    Bins of width 2 IQR / n^(1/3), with n = ``n_total`` (default: the
    number of values), start at the minimum and run to the bin holding the
    maximum; neighbouring bins merge pairwise while there are more than
    ``max_bins``. A constant sample gets the one bin [v - 0.5, v + 0.5], and
    a zero IQR one bin as wide as the range. ``simulate`` fixes its grid
    from chunk 0 with n the run's total count, so its bins are as fine as
    those of the whole run's values.
    """
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return np.array([lo - 0.5, hi + 0.5])
    q25, q75 = np.percentile(v, [25.0, 75.0])
    n = v.size if n_total is None else n_total
    width = 2.0 * (q75 - q25) / n ** (1.0 / 3.0)
    if not width > 0.0:
        width = hi - lo
    n_bins = math.floor((hi - lo) / width) + 1
    while n_bins > max_bins:
        width *= 2.0
        n_bins = math.floor((hi - lo) / width) + 1
    return lo + width * np.arange(n_bins + 1)


def _histogram_grid(values: np.ndarray, n_total: int) -> tuple[float, float]:
    """(origin, width) of the grid continuing the first bin of
    ``freedman_diaconis_edges(values, n_total=n_total)``."""
    edges = freedman_diaconis_edges(values, n_total=n_total)
    return float(edges[0]), float(edges[1] - edges[0])


# A streamed histogram is (first, shift, counts): counts[i] is the number of
# values in bin j = first + i of the grid origin + width * 2^shift * [j, j+1).
# Bin indices are integers computed once at shift 0, so merging neighbouring
# bins is j >> 1 and the counts do not depend on when bins were merged.


def _coarsen(hist, shift: int):
    """``hist`` with neighbouring bins merged pairwise up to ``shift``."""
    first, old, counts = hist
    if shift == old:
        return hist
    j = (first + np.arange(counts.size)) >> (shift - old)
    return int(j[0]), shift, np.bincount(j - j[0], weights=counts).astype(np.int64)


def _chunk_histogram(values: np.ndarray, grid: tuple[float, float], max_bins: int):
    """Histogram of ``values`` on ``grid`` = (origin, width), with at most
    ``max_bins`` bins."""
    origin, width = grid
    j = np.floor((values - origin) / width).astype(np.int64)
    lo, hi = int(j.min()), int(j.max())
    shift = 0
    while (hi >> shift) - (lo >> shift) >= max_bins:
        shift += 1
    j >>= shift
    return lo >> shift, shift, np.bincount(j - (lo >> shift))


def _merge_histograms(a, b, max_bins: int):
    """The histogram of both streams, with at most ``max_bins`` bins."""
    shift = max(a[1], b[1])
    a, b = _coarsen(a, shift), _coarsen(b, shift)
    first = min(a[0], b[0])
    counts = np.zeros(max(a[0] + a[2].size, b[0] + b[2].size) - first, dtype=np.int64)
    for f, _, c in (a, b):
        counts[f - first : f - first + c.size] += c
    hist = (first, shift, counts)
    while hist[2].size > max_bins:
        hist = _coarsen(hist, hist[1] + 1)
    return hist


def _histogram_edges(grid: tuple[float, float], hist) -> np.ndarray:
    origin, width = grid
    first, shift, counts = hist
    return origin + (width * 2.0**shift) * np.arange(first, first + counts.size + 1)


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


def check_run_args(n_paths: int, seed: int, threads: int, level: float) -> None:
    """Raise ConfigError for a path count, seed, thread count or level that
    ``simulate`` rejects, so a caller can check them before announcing a run."""
    if n_paths < 1000:
        raise ConfigError("n_paths below the 10^3 floor")
    if not 0.0 < level < 1.0:
        raise ConfigError("risk-measure level must lie in (0, 1)")
    if not 0 <= seed < 2**128:  # the Philox key is 128 bits
        raise ConfigError("seed must be an integer in [0, 2**128)")
    if threads < 1:
        raise ConfigError("threads must be >= 1")


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
        Chunks evaluated concurrently (>= 1). Each worker reduces only its
        own chunk; the calling thread merges the chunks' summaries in chunk
        order.
    chunk_size
        Paths per chunk (>= 1). Each worker evaluates its chunk in blocks of
        bounded size, so its working set does not grow with ``chunk_size``;
        the chunk size still regroups the EE sums and fixes the histogram
        grid, so it is part of what fixes the report's bits.
    collect_histograms
        Histogram, for each scenario but the base, the per-path and
        per-dealer exposure reductions against the base. Chunk 0, merged
        first, fixes the grid (see ``freedman_diaconis_edges``); the merge
        counts every chunk on it, widened by whole bins to its values.
    keep_samples
        Keep every realized exposure, as float32, for ``dataio.write_path_dump``.
        Without it, memory does not grow with ``n_paths`` beyond the tail
        buffer of at most about 3 (1 - level) * n_paths values per cell.
    """
    validate(config).raise_if_invalid()
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ConfigError("at least one scenario required")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    check_run_args(n_paths, seed, threads, level)
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")

    layout = _build_layout(config, scenarios)
    n_scen, n_dealers = len(scenarios), layout.n_dealers

    base_candidates = [s for s, scen in enumerate(scenarios) if scen.clears_nothing]
    base_index = base_candidates[0] if base_candidates else None
    compared = []  # scenarios histogrammed against the base
    if collect_histograms and base_index is not None:
        compared = [s for s in range(n_scen) if s != base_index]
    m = _tail_size(n_paths, level)

    def reduce_chunk(start):
        # everything here depends on this chunk alone; run-wide state is
        # the merge loop's
        count = min(chunk_size, n_paths - start)
        e = _chunk_exposures(layout, seed, start, count)
        rows = e.astype(np.float32) if keep_samples else None
        mean = e.sum(axis=0) / count
        sq_dev = np.empty_like(mean)  # per cell, the sum of squared deviations
        for s in range(n_scen):
            d = e[:, s] - mean[s]
            d *= d
            sq_dev[s] = d.sum(axis=0)
        mm = e.max(axis=2).sum(axis=0)
        diffs = [np.subtract(e[:, base_index], e[:, s]).ravel() for s in compared]
        return count, mean, sq_dev, mm, diffs, rows, _top(e, m)

    # Chunk summaries merge in chunk order in this thread, so the report's
    # bits do not depend on the thread count. EE moments use the pairwise
    # update of Chan, Golub and LeVeque (1983); the top-m buffers and
    # histogram counts merge exactly. Chunk 0, merged first, fixes each
    # compared scenario's histogram grid.
    n = 0
    ee = np.zeros((n_scen, n_dealers))
    m2 = np.zeros((n_scen, n_dealers))
    mm_sum = np.zeros(n_scen)
    tops = _TopRows((n_scen, n_dealers), m, min(m, chunk_size))
    grids = hists = samples = None
    if keep_samples:
        samples = np.empty((n_scen, n_paths, n_dealers), dtype=np.float32)
    starts = range(0, n_paths, chunk_size)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(reduce_chunk, starts) if threads > 1 else map(reduce_chunk, starts)
        for count, c_mean, c_m2, c_mm, c_diffs, c_rows, c_top in results:
            if samples is not None:
                samples[:, n : n + count] = c_rows.transpose(1, 0, 2)
            total = n + count
            delta = c_mean - ee
            ee += delta * (count / total)
            m2 += c_m2 + delta * delta * (n * count / total)
            n = total
            mm_sum += c_mm
            tops.add(c_top)
            if grids is None:
                grids = [_histogram_grid(d, n_paths * n_dealers) for d in c_diffs]
            c_hists = [_chunk_histogram(d, g, _MAX_BINS) for d, g in zip(c_diffs, grids)]
            hists = c_hists if hists is None else [
                _merge_histograms(h, c, _MAX_BINS) for h, c in zip(hists, c_hists)
            ]
            # free this chunk's arrays before the next one is drawn: without
            # threads, map evaluates it while these names still hold them
            del c_diffs, c_rows, c_top

    ee_se = np.sqrt(m2 / n_paths / n_paths)
    mean_max = mm_sum / n_paths

    var = np.empty((n_scen, n_dealers))
    es = np.empty((n_scen, n_dealers))
    exceed = np.empty((n_scen, n_dealers), dtype=np.int64)
    sorted_tops = tops.sorted()
    for s in range(n_scen):
        for d in range(n_dealers):
            var[s, d], es[s, d], exceed[s, d] = _tail_stats(
                sorted_tops[s, d], level, n_paths
            )

    histograms = None
    if compared:
        histograms = {}
        for s, grid, hist in zip(compared, grids, hists):
            histograms[scenarios[s].name] = (_histogram_edges(grid, hist), hist[2])

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
        samples=samples,
    )
