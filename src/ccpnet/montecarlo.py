"""Copula-based exposure sampling and risk-measure estimation.

Sampling is counter-based: the uniform block feeding (path, pair, class) is a
pure function of (seed, path, pair, class), implemented with numpy's Philox
generator plus explicit block arithmetic. Workers therefore cannot influence
results; a report is bit-identical for a fixed (seed, n_paths, level) at
any thread count.

All clearing scenarios are evaluated on the same draws (common random
numbers), which is what makes scenario differences and the exposure-reduction
histograms low-variance.

The chunk is the one unit of sampling, kernel evaluation, threading and
reduction. Its size comes from the market alone (``_chunk_paths``): at most
``_CHUNK_PATHS`` paths of at most ``_BLOCK_DOUBLES`` uniforms in all. A
worker draws its chunk's shocks in one call and hands them to the kernel in
one call, which writes the chunk's (paths, scenarios, dealers) exposures. A
worker's working set is one chunk's shocks, exposures and kernel scratch.

Each worker reduces only its own chunk, as soon as its exposures exist: a
``_ChunkSummary`` of its EE moments and mean-max sums, the exposure
reductions to histogram and, per (scenario, dealer), the largest values that
VaR and ES read. The calling thread merges these in chunk order, the
summaries by their one ``merge``; chunk 0, merged first, fixes the histogram
grids. No worker waits on another, and only the calling thread writes
run-wide state. No per-path buffer is kept: a path dump gets each
chunk's exposures from the worker that made them, written in place at that
chunk's offset in the file before the worker reduces them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import kernels
from .dataio import RiskReport, check_run_args
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


def student_t3_unit_ppf(u, out=None):
    """Quantile of the unit-variance t3 marginal, written to ``out`` when it
    is given: a C-contiguous float64 array of u's shape, which may be u
    itself.

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
    if out is None:
        out = np.empty(u.shape)
    elif out.dtype != float or out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of u's shape")
    flat_u, flat_v = u.reshape(-1), out.reshape(-1)
    scratch = np.empty((3, min(_T3_BLOCK, flat_u.size)))
    for start in range(0, flat_u.size, _T3_BLOCK):
        ub = flat_u[start : start + _T3_BLOCK]
        x = flat_v[start : start + _T3_BLOCK]
        q, a, b = scratch[:, : ub.size]
        # x may alias ub (out=u), so ub is read only before x is first written
        upper = ub > 0.5
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
        np.negative(x, out=x, where=upper)
    return out


# ---------------------------------------------------------------------------
# Pair layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairLayout:
    """Pair bookkeeping, sampling law and kernel plan shared by every chunk
    of a run.

    Each row holds one copula draw: one row per unordered pair i<j, in
    ``np.triu_indices`` order (so ``pair_i`` is sorted). The draw feeds two
    directed rows, the two sides of one trade: dealer i with scale
    ``pair_scales(config, i, j)`` and dealer j, negated, with scale
    ``pair_scales(config, j, i)``. Every dealer owns n-1 directed rows, one
    per counterparty; ``plan`` orders them by owning dealer and folds each
    signed scale into the kernel's coefficients. ``rho`` and ``marginals``
    are the market config's copula correlation and per-class marginal laws.
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


def _uniform_blocks(
    seed: int, layout: _PairLayout, start: int, count: int, step: int
):
    """Uniform blocks for paths [start, start+count), ``step`` paths each
    (the last may be shorter): shape (paths, pairs, K+1).

    Pure function of (seed, path index): path p owns doubles
    [p * padded_draws, p * padded_draws + draws_per_path). One Philox skips
    ahead to path ``start`` and the blocks are drawn one after another; each
    block is a whole number of Philox blocks, so the next one starts exactly
    where a skip-ahead to its first path would.
    """
    bg = np.random.Philox(key=seed)
    bg.advance(start * layout.padded_draws // 4)
    gen = np.random.Generator(bg)
    for a in range(0, count, step):
        n = min(step, count - a)
        u = gen.random(n * layout.padded_draws)
        np.maximum(u, _MIN_UNIFORM, out=u)
        u = u.reshape(n, layout.padded_draws)[:, : layout.draws_per_path]
        yield u.reshape(n, layout.n_pairs, layout.n_classes + 1)


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
    itself rounds to 1.0 for y above about 8.3. Each t3 class costs one
    contiguous copy of its column, which the quantile overwrites in place.
    """
    for k, marginal in enumerate(marginals):
        if marginal is Marginal.STUDENT_T3:
            col = y[..., k]
            p = np.abs(col, order="C")
            np.negative(p, out=p)
            ndtr(p, out=p)
            np.copysign(student_t3_unit_ppf(p, out=p), col, out=col)
    return y


# Uniforms are drawn and mapped to normals in sub-blocks of at most this many
# doubles (512 KiB), so a chunk's shocks never coexist with all of its
# uniforms and a sub-block stays in L2 cache while ndtri reads it. The
# sub-blocks continue one Philox stream and the mapping is elementwise:
# results do not depend on it.
_UNIFORM_DOUBLES = 2**16


def _shocks(layout: _PairLayout, seed: int, start: int, count: int) -> np.ndarray:
    """Standardized class shocks for paths [start, start+count):
    (count, pairs, K): the Gaussian copula of their uniforms, with each t3
    class's marginal applied."""
    y = np.empty((count, layout.n_pairs, layout.n_classes))
    step = max(1, _UNIFORM_DOUBLES // layout.padded_draws)
    blocks = _uniform_blocks(seed, layout, start, count, step)
    for a, u in zip(range(0, count, step), blocks):
        _gaussian_copula(u, layout.rho, out=y[a : a + u.shape[0]])
    return _apply_marginals(y, layout.marginals)


# A chunk holds at most _CHUNK_PATHS paths and at most _BLOCK_DOUBLES
# uniforms (or one path), so a worker's working set is bounded on any market
# and a small market still splits into chunks for threads. The chunk
# regroups the EE sums and fixes the histogram grid: like _MAX_BINS, both
# constants fix report bits.
# 2**21 keeps a 2000-path run of the default market in one chunk, where the
# benchmark self-test (perfbench/selftest.py) counts one kernel call and one
# t3 quantile call.
_BLOCK_DOUBLES = 2**21
_CHUNK_PATHS = 4096


def _chunk_paths(layout: _PairLayout) -> int:
    """Paths per chunk of a run on ``layout``: 2202 on the default market."""
    return min(_CHUNK_PATHS, max(1, _BLOCK_DOUBLES // layout.padded_draws))


def _chunk_exposures(layout: _PairLayout, seed: int, start: int, count: int) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for one chunk of paths:
    its shocks, drawn just before the kernel evaluates them and freed when
    it returns."""
    out = np.empty((count, layout.plan.n_scenarios, layout.n_dealers))
    return kernels.scenario_exposures(_shocks(layout, seed, start, count), layout.plan, out=out)


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


class _ChunkSummary:
    """Streamed sums of exposures e (paths, scenarios, dealers): the path
    count ``n``, per cell the EE ``mean`` and sum of squared deviations
    ``sq_dev``, per scenario ``max_sum`` = sum over paths of max_i e_i.
    ``merge`` folds in another summary: moments by Chan, Golub and LeVeque
    (1983), sums by addition. ``simulate`` folds chunks in chunk order in one
    thread from the summary of no paths (n = 0, zeros), so threads move no bit."""

    def __init__(self, e: np.ndarray):
        self.n = e.shape[0]
        self.mean = e.sum(axis=0) / max(self.n, 1)
        self.sq_dev = np.empty_like(self.mean)
        for s in range(e.shape[1]):
            d = e[:, s] - self.mean[s]
            d *= d
            self.sq_dev[s] = d.sum(axis=0)
        self.max_sum = e.max(axis=2).sum(axis=0)

    def merge(self, other: _ChunkSummary) -> None:
        total = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * (other.n / total)
        self.sq_dev += other.sq_dev + delta * delta * (self.n * other.n / total)
        self.max_sum += other.max_sum
        self.n = total


def simulate(
    config: MarketConfig,
    scenarios,
    n_paths: int,
    seed: int,
    *,
    threads: int = 1,
    level: float = 0.99,
    collect_histograms: bool = False,
    dump=None,
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
        Path count (>= 1000) and Philox key. Fixed (seed, n_paths, level)
        gives a bit-identical report at any ``threads``: the chunks are
        fixed by the market (``_chunk_paths``), not by the caller.
    threads
        Chunks evaluated concurrently (1 to ``dataio.MAX_THREADS``). Each
        worker reduces only its own chunk; the calling thread merges the
        chunks' ``_ChunkSummary`` (EE moments, mean-max sums), tails and
        histograms in chunk order.
    collect_histograms
        Histogram, for each scenario but the base, the per-path and
        per-dealer exposure reductions against the base. Chunk 0, merged
        first, fixes the grid (see ``freedman_diaconis_edges``); the merge
        counts every chunk on it, widened by whole bins to its values.
    dump
        An open path dump (``dataio.open_path_dump``) of shape (n_paths,
        scenarios, dealers), or None. Each worker writes its chunk's float64
        exposures into it at the chunk's offset, so its bytes do not depend
        on ``threads``, and nothing per path is kept.
        Memory does not grow with ``n_paths`` beyond the tail buffer of at
        most about 3 (1 - level) * n_paths values per cell.
    """
    validate(config).raise_if_invalid()
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ConfigError("at least one scenario required")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    check_run_args(n_paths, seed, threads, level)

    layout = _build_layout(config, scenarios)
    n_scen, n_dealers = len(scenarios), layout.n_dealers
    if dump is not None and dump.shape != (n_paths, n_scen, n_dealers):
        raise ValueError(
            f"path dump of shape {dump.shape} for a run of {(n_paths, n_scen, n_dealers)}"
        )

    base_candidates = [s for s, scen in enumerate(scenarios) if scen.clears_nothing]
    base_index = base_candidates[0] if base_candidates else None
    compared = []  # scenarios histogrammed against the base
    if collect_histograms and base_index is not None:
        compared = [s for s in range(n_scen) if s != base_index]
    m = _tail_size(n_paths, level)
    chunk = _chunk_paths(layout)

    def reduce_chunk(start):
        # everything here depends on this chunk alone; run-wide state is
        # the merge loop's
        e = _chunk_exposures(layout, seed, start, min(chunk, n_paths - start))
        if dump is not None:
            dump.write(start, e)  # before _top partitions e in place
        diffs = [np.subtract(e[:, base_index], e[:, s]).ravel() for s in compared]
        return _ChunkSummary(e), diffs, _top(e, m)  # _top, which partitions e, last

    sums = _ChunkSummary(np.empty((0, n_scen, n_dealers)))
    tops = _TopRows((n_scen, n_dealers), m, min(m, chunk))
    grids = hists = None
    starts = range(0, n_paths, chunk)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(reduce_chunk, starts) if threads > 1 else map(reduce_chunk, starts)
        for c_sums, c_diffs, c_top in results:
            sums.merge(c_sums)
            tops.add(c_top)
            if grids is None:
                grids = [_histogram_grid(d, n_paths * n_dealers) for d in c_diffs]
            c_hists = [_chunk_histogram(d, g, _MAX_BINS) for d, g in zip(c_diffs, grids)]
            hists = c_hists if hists is None else [
                _merge_histograms(h, c, _MAX_BINS) for h, c in zip(hists, c_hists)
            ]
            # free this chunk's arrays before the next one is drawn: without
            # threads, map evaluates it while these names still hold them
            del c_diffs, c_top

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
        ee=sums.mean,
        ee_se=np.sqrt(sums.sq_dev / n_paths / n_paths),
        var=var,
        es=es,
        es_exceedances=exceed,
        mean_max=sums.max_sum / n_paths,
        base_index=base_index,
        assumptions=tuple(assumptions),
        histograms=histograms,
    )
