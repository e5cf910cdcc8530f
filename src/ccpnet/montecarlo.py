"""Copula-based exposure sampling and risk-measure estimation.

Sampling is a pure function of (seed, path): paths [64 g, 64 g + 64) draw
standard normals from stream g, numpy's PCG64DXSM seeded with ``seed`` and
moved by an exact ``advance(g << 64)``, in path order (``_normal_blocks``).
The normals come from ``Generator.standard_normal`` (the ziggurat of
Marsaglia and Tsang 2000), which spends a varying number of outputs per
normal, so a run that starts inside a stream draws and discards the
stream's earlier paths. Workers, chunks and blocks therefore cannot
influence results; a report is bit-identical for a fixed (seed, n_paths,
level) at any thread count.

A run's whole state is its ``MarketConfig``, which alone fixes the sampling
law (rho and the per-class marginals), and one ``kernels.Plan`` (``_plan``).
Each path draws one pair row per unordered dealer pair i<j, in
``np.triu_indices`` order: K independent normals at rho = 0, and at rho > 0
K+1, a common factor and one per class, which ``_correlate`` mixes into K
equicorrelated ones. A t3 class then maps each normal score y to the t3
quantile of Phi(y), read off one table in |y| (``_t3_from_normal``). A pair
row's shocks feed both sides of that pair's trade.

All clearing scenarios are evaluated on the same draws (common random
numbers), which is what makes scenario differences and the exposure-reduction
histograms low-variance.

The chunk is the one unit of sampling, kernel evaluation, threading and
reduction. Its size comes from the market alone (``_chunk_paths``): at most
``_CHUNK_PATHS`` paths of at most ``_BLOCK_DOUBLES`` draws in all. A
worker makes one kernel call per chunk, which writes the chunk's (paths,
scenarios, dealers) exposures, and pulls the chunk's shocks from one
generator (``_shocks``) as it evaluates them. On a Gaussian market each
block is drawn into one reused buffer just before it is evaluated, so a
worker's working set is its chunk's exposures, one block of shocks (at
rho > 0 also that block's normals) and the kernel scratch. The t3 map
runs once over a chunk's whole column, so with a t3 class the generator
draws the chunk's shocks first and yields them as one block.

Each worker reduces only its own chunk, as soon as its exposures exist: a
``_ChunkSummary`` of its EE moments and mean-max sums, the exposure
reductions to histogram and, per (scenario, dealer), the largest values that
VaR and ES read. The calling thread merges these in chunk order, the
summaries by their one ``merge`` and each scenario's reductions by its
``_Histogram``'s ``add``; chunk 0, added first, fixes the histogram grids.
No worker waits on another, and only the calling thread writes run-wide
state. At most 2 * threads chunks are submitted ahead of the merge
(``_in_order``), so pending results are bounded. No per-path buffer is
kept: a path dump gets each chunk's exposures from the worker that made
them, written in place at that chunk's offset in the file before the worker
reduces them.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np

from . import kernels
from .dataio import RUN_INPUTS, RiskReport
from .market import (
    MILLIONS_PER_BILLION,
    ConfigError,
    Marginal,
    MarketConfig,
    pair_scales,
    validate,
)

# ---------------------------------------------------------------------------
# Normalized t3 marginal
# ---------------------------------------------------------------------------


# Values are inverted in blocks of this size so that the three scratch rows
# stay in cache; results do not depend on it.
_T3_BLOCK = 32768
# Below this tail probability F(x) - q loses digits to cancellation, so such
# quantiles come from the tail series instead of the Halley step.
_T3_TAIL_Q = 1e-4
# pi q = w^3 P(w^2) for the tail probability q at |v| = 1/w, with
# P(y) = sum_{n>=1} (-1)^(n+1) 2n/(2n+1) y^(n-1); highest power first
_T3_TAIL_SERIES = tuple((-1) ** (n + 1) * 2 * n / (2 * n + 1) for n in range(13, 0, -1))
# The Halley step starts from x r, with r = cbrt(q), interpolated linearly
# between _T3_STEPS + 1 even knots in r over [cbrt(_T3_TAIL_Q), cbrt(1/2)].
# x r is smooth there: 0 at the median, about -cbrt(2 / (3 pi)) in the tail.
# Plain floats, not np.cbrt: a numpy call at import raised the peak RSS of
# every run, Gaussian ones included, by about 0.1 MB.
_T3_STEPS = 2048
_T3_R0 = _T3_TAIL_Q ** (1.0 / 3.0)
_T3_STEP = (0.5 ** (1.0 / 3.0) - _T3_R0) / _T3_STEPS


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


@functools.cache
def _t3_start_table() -> tuple[np.ndarray, np.ndarray]:
    """(intercepts, slopes) of the _T3_STEPS segments of the start: x r is
    about intercept + slope * r on the segment holding r.

    Built on first use, so a run without a t3 class never builds it: each
    knot's x solves pi (F(x) - r^3) = 0 by 64 bisection steps on [-30, 0],
    which holds every knot since F(-30) < _T3_TAIL_Q.
    """
    r = _T3_R0 + _T3_STEP * np.arange(_T3_STEPS + 1)
    c = np.pi * (0.5 - r**3)
    lo, hi = np.full_like(r, -30.0), np.zeros_like(r)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = np.arctan(mid) + mid / (1.0 + mid * mid) + c < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    xr = 0.5 * (lo + hi) * r
    slopes = np.diff(xr) / _T3_STEP
    return xr[:-1] - slopes * r[:-1], slopes


def student_t3_unit_ppf(u, out=None):
    """Quantile of the unit-variance t3 marginal, written to ``out`` when it
    is given: a C-contiguous float64 array of u's shape, which may be u
    itself.

    There is no algebraic closed form at 3 dof (the CDF mixes arctan with a
    rational term), so it is inverted numerically from the tail probability
    q = min(u, 1-u), which is exact: solve F(x) = q for x <= 0, and return x
    for u < 1/2 and -x above.

    The start reads x r, with r = cbrt(q), off a table of 2048 even steps in
    r (``_t3_start_table``), and one Halley step follows. With s = 1+x^2 and
    g = pi (F(x) - q), and since F''/F'^2 = -2 pi x s, the step is
    x -= g s^2 / 2 / (1 + g x s). It runs on the signed quantile: with
    c = pi (q - 1/2) given the sign of u - 1/2, g = arctan x + x/s - c for
    both halves, so no pass negates the upper one. For q < 1e-4, where
    F(x) - q cancels, x comes instead from the series
    pi q = sum_n (-1)^(n+1) 2n/(2n+1) w^(2n+1) in w = 1/|x|
    (see _t3_tail_magnitude), once per call: that series costs mostly its
    numpy calls, and few values need it.

    The round-trip defect |cdf(ppf(u)) - u| is at machine epsilon. Against
    a 40-digit inversion the relative error is at most about 3e-13 (near
    q = 1e-4) and about 1e-16 in the series range, for u down to 1e-300 and
    up to 1 - 2^-53. u = 0 and 1 map to -inf and inf.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty(u.shape)
    elif out.dtype != float or out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of u's shape")
    flat_u, flat_v = u.reshape(-1), out.reshape(-1)
    intercepts, slopes = _t3_start_table()
    scratch = np.empty((3, min(_T3_BLOCK, flat_u.size)))
    tails, q_tails = [], []
    for start in range(0, flat_u.size, _T3_BLOCK):
        ub = flat_u[start : start + _T3_BLOCK]
        x = flat_v[start : start + _T3_BLOCK]
        q, a, b = scratch[:, : ub.size]
        k = b.view(np.intp)  # the segment index shares b's row
        # x may alias ub (out=u), so ub is read only before x is first written
        np.subtract(1.0, ub, out=q)
        np.minimum(q, ub, out=q)
        tail = np.flatnonzero(q < _T3_TAIL_Q)
        tails.append(tail + start)
        q_tails.append(q[tail])
        # the Halley step runs on q >= _T3_TAIL_Q; the tail is overwritten
        np.maximum(q, _T3_TAIL_Q, out=q)
        np.subtract(ub, 0.5, out=b)  # the sign of the quantile
        np.cbrt(q, out=a)
        q -= 0.5
        q *= np.pi
        np.copysign(q, b, out=q)  # c
        np.subtract(a, _T3_R0, out=x)
        x *= 1.0 / _T3_STEP
        np.copyto(k, x, casting="unsafe")  # truncates; clip mode takes the ends
        np.take(intercepts, k, out=x, mode="clip")
        x /= a
        np.take(slopes, k, out=a, mode="clip")
        x += a
        np.copysign(x, q, out=x)
        np.multiply(x, x, out=b)
        b += 1.0  # s
        np.divide(x, b, out=a)
        np.subtract(a, q, out=q)
        np.arctan(x, out=a)
        a += q  # g
        a *= b  # g s
        b *= a
        b *= 0.5  # g s^2 / 2
        a *= x
        a += 1.0  # 1 + g x s
        b /= a
        x -= b
    tail = np.concatenate(tails)
    flat_v[tail] = np.copysign(_t3_tail_magnitude(np.concatenate(q_tails)), flat_v[tail])
    return out


# The t3 shock of a normal score y is sign(y) |x(|y|)| with x(a) =
# F^-1(Phi(-a)) <= 0, read off a cubic Hermite table of _T3_MAP_STEPS even
# steps in a over [0, _T3_A_TAIL]; above it Phi(-a) < _T3_TAIL_Q and x comes
# from the tail series.
_T3_MAP_STEPS = 4096
_T3_A_TAIL = 3.7190164854556804  # -Phi^-1(_T3_TAIL_Q), to double precision
_T3_MAP_STEP = _T3_A_TAIL / _T3_MAP_STEPS


@functools.cache
def _t3_map_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c0, c1, c2, c3) of the _T3_MAP_STEPS segments of x(a) =
    F^-1(Phi(-a)): at a = (k + s) _T3_MAP_STEP, 0 <= s <= 1, x is about
    c0 + s (c1 + s (c2 + s c3)) with the coefficients of segment k.

    Each segment is the cubic Hermite interpolant of x's values and exact
    slopes at its two knots. The values come from one ``student_t3_unit_ppf``
    call at q = erfc(a / sqrt 2) / 2 (x = 0 exactly at a = 0, so that x / a
    keeps its digits near the median), the slopes from dx/da = -phi(a) /
    f(x), with f(x) = 2 / (pi (1 + x^2)^2) the t3 density. Built on first
    use, so a run without a t3 class never builds it; ``simulate`` builds it
    before its workers start.
    """
    a = _T3_MAP_STEP * np.arange(_T3_MAP_STEPS + 1)
    x = student_t3_unit_ppf([0.5 * math.erfc(v / math.sqrt(2.0)) for v in a.tolist()])
    x[0] = 0.0
    # the slopes times the step: -exp(-a^2 / 2) (1 + x^2)^2 sqrt(pi / 8) h
    d = (1.0 + x * x) ** 2 * np.exp(-0.5 * a * a)
    d *= -math.sqrt(math.pi / 8.0) * _T3_MAP_STEP
    dx = np.diff(x)
    d0, d1 = d[:-1], d[1:]
    return x[:-1], d0, 3.0 * dx - 2.0 * d0 - d1, d0 + d1 - 2.0 * dx


def _t3_from_normal(v: np.ndarray) -> np.ndarray:
    """Overwrite ``v``, a C-contiguous float64 array of magnitudes a = |y|
    of normal scores, with x(a) = F^-1(Phi(-a)) <= 0, the unit t3 quantile
    of their lower-tail probability, and return it.

    a <= _T3_A_TAIL reads the table (``_t3_map_table``) in _T3_BLOCK blocks
    with three scratch rows. Above it, about 2 values in 10^4, x comes from
    the tail series (``_t3_tail_magnitude``) at q = erfc(a / sqrt 2) / 2,
    in one call for the whole array: the series costs mostly its numpy
    calls. Against a 40-digit inversion the relative error is at most about
    3e-13, the knots' own, and x / a keeps it as a -> 0.
    """
    flat = v.reshape(-1)
    c0, c1, c2, c3 = _t3_map_table()
    scratch = np.empty((3, min(_T3_BLOCK, flat.size)))
    tails, a_tails = [], []
    for start in range(0, flat.size, _T3_BLOCK):
        x = flat[start : start + _T3_BLOCK]
        s, c, k = scratch[:, : x.size]
        k = k.view(np.intp)  # the segment index shares a scratch row
        tail = np.flatnonzero(x > _T3_A_TAIL)
        tails.append(tail + start)
        a_tails.append(x[tail])
        np.minimum(x, _T3_A_TAIL, out=s)  # the tail is overwritten below
        s *= _T3_MAP_STEPS / _T3_A_TAIL
        np.copyto(k, s, casting="unsafe")  # truncates
        np.minimum(k, _T3_MAP_STEPS - 1, out=k)  # a = _T3_A_TAIL: s = 1
        s -= k
        np.take(c3, k, out=x, mode="clip")
        x *= s
        for coef in (c2, c1):
            np.take(coef, k, out=c, mode="clip")
            x += c
            x *= s
        np.take(c0, k, out=c, mode="clip")
        x += c
    a_tail = np.concatenate(a_tails).tolist()
    q = np.array([0.5 * math.erfc(a / math.sqrt(2.0)) for a in a_tail])
    flat[np.concatenate(tails)] = -_t3_tail_magnitude(q)
    return v


# ---------------------------------------------------------------------------
# Pair rows and sampling
# ---------------------------------------------------------------------------


def _plan(config: MarketConfig, scenarios) -> kernels.Plan:
    """The kernel plan shared by every chunk of a run.

    Each pair row holds one copula draw: one row per unordered pair i<j, in
    ``np.triu_indices`` order. The draw feeds two directed rows, the two
    sides of one trade: dealer i with scale ``pair_scales(config, i, j)``
    and dealer j, negated, with scale ``pair_scales(config, j, i)``. Every
    dealer owns n-1 directed rows, one per counterparty; the plan orders
    them by owning dealer and folds each signed scale into the kernel's
    coefficients.
    """
    n = config.n_dealers
    ii, jj = (k.astype(np.intp) for k in np.triu_indices(n, k=1))
    s_plus = pair_scales(config, ii, jj) * MILLIONS_PER_BILLION
    s_minus = pair_scales(config, jj, ii) * MILLIONS_PER_BILLION
    return kernels.plan(s_plus, s_minus, ii, jj, scenarios, n)


def _draws(config: MarketConfig) -> tuple[int, int]:
    """(pair rows, K+1 draws per pair row): a common factor and one shock
    per class. That is a path's draws at rho > 0; at rho = 0 it takes one
    fewer per pair row, but the chunk is sized by K+1 either way."""
    n_pairs = config.n_dealers * (config.n_dealers - 1) // 2
    return n_pairs, n_pairs * (config.n_classes + 1)


# Paths [64 g, 64 g + 64) draw their normals from stream g. Like the chunk
# bounds it fixes report bits: it decides which normals each path gets.
_STREAM_PATHS = 64


def _normal_blocks(seed: int, config: MarketConfig, start: int, count: int, step: int):
    """Standard normal blocks for paths [start, start+count), ``step`` paths
    each (the last may be shorter): shape (paths, pairs, W), with W = K at
    rho = 0 and W = K+1, the common factor first, at rho > 0. Every block is
    drawn into one buffer, so a block holds until the next is drawn.

    Pure function of (seed, path index): paths [64 g, 64 g + 64) form stream
    g, the PCG64DXSM generator seeded with ``seed`` after ``advance(g <<
    64)``, and each of them in turn takes its pairs * W normals from
    ``Generator.standard_normal`` (numpy's ziggurat), by pair row and then
    by coordinate. A ziggurat normal spends a varying number of outputs, so
    a path inside a stream is reached by drawing and discarding the
    stream's earlier paths (at most 63). A default-market stream spends
    about 6 * 10^4 of the 2^64 outputs between streams, so streams do not
    overlap.
    """
    n_pairs, _ = _draws(config)
    width = config.n_classes + (1 if config.rho > 0.0 else 0)
    per_path = n_pairs * width
    bg = np.random.PCG64DXSM(seed)
    seeded = bg.state
    gen = np.random.Generator(bg)
    buf = np.empty(min(step, count) * per_path)
    for a in range(start, start + count, step):
        b = min(a + step, start + count)
        p = a
        while p < b:  # one run of paths per stream
            g, offset = divmod(p, _STREAM_PATHS)
            if offset == 0 or p == start:
                bg.state = seeded
                bg.advance(g << 64)
                skip = offset * per_path
                for i in range(0, skip, buf.size):
                    gen.standard_normal(out=buf[: min(buf.size, skip - i)])
            stop = min(b, (g + 1) * _STREAM_PATHS)
            gen.standard_normal(out=buf[(p - a) * per_path : (stop - a) * per_path])
            p = stop
        yield buf[: (b - a) * per_path].reshape(b - a, n_pairs, width)


def _correlate(z: np.ndarray, rho: float, out=None) -> np.ndarray:
    """Equicorrelated standard normals (..., K) from independent ones
    (..., K+1), the common factor first: sqrt(1-rho) z_k + sqrt(rho) z_0,
    written to ``out`` when it is given."""
    y = np.multiply(z[..., 1:], math.sqrt(1.0 - rho), out=out)
    y += z[..., :1] * math.sqrt(rho)
    return y


def _apply_marginals(y: np.ndarray, marginals) -> np.ndarray:
    """Replace the Gaussian coordinates of t3 classes by t3 ones, in place.

    The copula maps a t3 class's normal score y to F^-1(Phi(y)), computed as
    sign(y) |x(|y|)| (``_t3_from_normal``). The map reads the lower tail
    only, so both tails resolve as far as the lower one, and Phi(y), which
    rounds to 1.0 for y above about 8.3, is never formed. Each t3 class
    costs one contiguous copy of its column, which the map overwrites in
    place.
    """
    for k, marginal in enumerate(marginals):
        if marginal is Marginal.STUDENT_T3:
            col = y[..., k]
            x = np.abs(col, order="C")
            np.copysign(_t3_from_normal(x), col, out=col)
    return y


def _shocks(config: MarketConfig, seed: int, start: int, count: int, step: int):
    """Standardized class shocks for paths [start, start+count), in blocks
    (paths, pairs, K) that cover them in order: their normals
    (``_normal_blocks``), drawn ``step`` paths at a time, correlated at
    rho > 0 and with each t3 class's marginal applied. The mapping is
    elementwise, so no value depends on ``step``. A Gaussian market yields
    each block into one buffer, so a block holds until the next is pulled;
    with a t3 class, whose map runs once over the whole column, the one
    block is all ``count`` paths."""
    n_pairs, _ = _draws(config)
    normals = functools.partial(_normal_blocks, seed, config, start, count)
    rho, shape = config.rho, (n_pairs, config.n_classes)
    if not config.has_t_marginals():
        if rho == 0.0:  # the normals are the shocks
            yield from normals(step)
            return
        y = np.empty((min(step, count), *shape))
        for z in normals(step):
            yield _correlate(z, rho, out=y[: z.shape[0]])
        return
    if rho == 0.0:
        (y,) = normals(count)
    else:
        y = np.empty((count, *shape))
        for a, z in zip(range(0, count, step), normals(step)):
            _correlate(z, rho, out=y[a : a + z.shape[0]])
        z = None  # free the normal buffer before a t3 column is copied
    yield _apply_marginals(y, config.marginals())


# A chunk holds at most _CHUNK_PATHS paths and at most _BLOCK_DOUBLES
# draws, counted as K+1 per pair row at any rho (or one path), so a worker's
# working set is bounded on any market and a small market still splits into
# chunks for threads. The chunk
# regroups the EE sums and fixes the histogram grid: like _MAX_BINS, both
# constants fix report bits.
# 2**21 keeps a 2000-path run of the default market in one chunk, where the
# benchmark self-test (perfbench/selftest.py) counts one kernel call.
_BLOCK_DOUBLES = 2**21
_CHUNK_PATHS = 4096


def _chunk_paths(config: MarketConfig) -> int:
    """Paths per chunk of a run on ``config``: 2207 on the default market."""
    return min(_CHUNK_PATHS, max(1, _BLOCK_DOUBLES // _draws(config)[1]))


def _chunk_exposures(
    config: MarketConfig, plan: kernels.Plan, seed: int, start: int, count: int
) -> np.ndarray:
    """Realized exposures (count, scenarios, dealers) for one chunk of paths,
    from one kernel call, which pulls the chunk's shock blocks (``_shocks``)
    as it evaluates them."""
    out = np.empty((count, plan.n_scenarios, plan.n_dealers))
    blocks = _shocks(config, seed, start, count, kernels.block_paths(plan))
    return kernels.scenario_exposures(blocks, plan, out=out)


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


# every chunk thread holds a chunk's working set (on the default market about
# 5 MB when every class is Gaussian and about 18 MB with a t3 class), so the
# thread count is bounded before any thread starts
MAX_THREADS = 64
# Bound on a run's tail buffer (``_TopRows``) in doubles, 8 GiB: a path count
# whose buffer would be larger is rejected before any work starts.
MAX_TAIL_DOUBLES = 2**30


def check_run(
    config: MarketConfig, scenarios, n_paths: int, seed: int, threads: int, level: float
) -> None:
    """Raise ConfigError unless ``simulate`` accepts this run. In order: a
    valid market, one or more uniquely named scenarios, the ``RUN_INPUTS``
    rules for paths, level and seed, 1 <= threads <= ``MAX_THREADS``, and a
    tail buffer, (3m - 1) doubles per (scenario, dealer) cell for
    m = ``_tail_size(n_paths, level)``, of at most ``MAX_TAIL_DOUBLES``."""
    validate(config).raise_if_invalid()
    names = [s.name for s in scenarios]
    if not names:
        raise ConfigError("at least one scenario required")
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    rules = {row.key: row for row in RUN_INPUTS}
    for key, value in (("paths", n_paths), ("level", level), ("seed", seed)):
        rules[key].parse(value)
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if threads > MAX_THREADS:
        raise ConfigError(f"threads must be <= {MAX_THREADS}")
    doubles = len(names) * config.n_dealers * (3 * _tail_size(n_paths, level) - 1)
    if doubles > MAX_TAIL_DOUBLES:
        raise ConfigError(
            f"n_paths={n_paths} at level {level} needs a VaR/ES tail buffer of "
            f"{doubles} values, more than {MAX_TAIL_DOUBLES}"
        )


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


def freedman_diaconis_edges(values: np.ndarray, n_total: int | None = None) -> np.ndarray:
    """Histogram bin edges on a Freedman-Diaconis grid through ``values``.

    Bins of width 2 IQR / n^(1/3), with n = ``n_total`` (default: the
    number of values), start at the minimum and run to the bin holding the
    maximum; neighbouring bins merge pairwise while there are more than
    ``_MAX_BINS``. A constant sample gets the one bin [v - 0.5, v + 0.5], and
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
    while n_bins > _MAX_BINS:
        width *= 2.0
        n_bins = math.floor((hi - lo) / width) + 1
    return lo + width * np.arange(n_bins + 1)


class _Histogram:
    """Counts of a stream of values, fed in blocks to ``add``, on the grid
    continuing the first bin of ``freedman_diaconis_edges(first block,
    n_total=n_total)``.

    Each value's bin index j on that grid is computed once; it is counted in
    bin j >> shift of the grid with bins 2^shift times as wide, where shift
    is the smallest that spans the stream's range of j in fewer than
    ``_MAX_BINS`` bins. The counts therefore do not depend on how the stream
    is split into blocks."""

    def __init__(self, n_total: int):
        self._n_total = n_total
        self._origin = self._width = None
        self._lo, self._hi = math.inf, -math.inf  # range of j so far
        self._shift = 0
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, values: np.ndarray) -> None:
        if self._width is None:
            edges = freedman_diaconis_edges(values, n_total=self._n_total)
            self._origin, self._width = float(edges[0]), float(edges[1] - edges[0])
        j = np.floor((values - self._origin) / self._width).astype(np.int64)
        lo, hi = min(self._lo, int(j.min())), max(self._hi, int(j.max()))
        shift = self._shift
        while (hi >> shift) - (lo >> shift) >= _MAX_BINS:
            shift += 1
        first = lo >> shift
        n_bins = (hi >> shift) - first + 1
        j >>= shift
        j -= first
        counts = np.bincount(j, minlength=n_bins)
        if self.counts.size:
            old = (self._lo >> self._shift) + np.arange(self.counts.size)
            old >>= shift - self._shift
            old -= first
            counts += np.bincount(old, self.counts, n_bins).astype(np.int64)
        self._lo, self._hi, self._shift, self.counts = lo, hi, shift, counts

    def edges(self) -> np.ndarray:
        first = self._lo >> self._shift
        bins = np.arange(first, first + self.counts.size + 1)
        return self._origin + (self._width * 2.0**self._shift) * bins


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


def _in_order(pool, fn, items, window):
    """``fn`` over ``items`` on ``pool``, results in order, with at most
    ``window`` calls submitted and not yet consumed: the next call is
    submitted when the oldest result has been consumed. Unstarted calls are
    cancelled when a call fails or the generator is closed."""
    items = iter(items)
    pending = deque(pool.submit(fn, item) for item in islice(items, window))
    try:
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
    finally:
        for future in pending:
            future.cancel()


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
        Path count (>= 1000) and PCG64DXSM seed. Fixed (seed, n_paths, level)
        gives a bit-identical report at any ``threads``: the chunks are
        fixed by the market (``_chunk_paths``), not by the caller.
    threads
        Chunks evaluated concurrently (1 to ``MAX_THREADS``). Each
        worker reduces only its own chunk; the calling thread merges the
        chunks' ``_ChunkSummary`` (EE moments, mean-max sums), tails and
        ``_Histogram`` counts in chunk order. At most 2 * threads chunks are
        submitted ahead of the merge, so pending results stay bounded.
    collect_histograms
        Histogram, for each scenario but the base, the per-path and
        per-dealer exposure reductions against the base, one ``_Histogram``
        per scenario. Chunk 0, added first, fixes the grid (see
        ``freedman_diaconis_edges``); every chunk is counted on it, its bins
        merged pairwise while the run's values span ``_MAX_BINS`` or more.
    dump
        An open path dump (``dataio.open_path_dump``) of shape (n_paths,
        scenarios, dealers), or None. Each worker writes its chunk's float64
        exposures into it at the chunk's offset, so its bytes do not depend
        on ``threads``, and nothing per path is kept.
        Memory does not grow with ``n_paths`` beyond the tail buffer of at
        most about 3 (1 - level) * n_paths values per cell.
    """
    scenarios = tuple(scenarios)
    check_run(config, scenarios, n_paths, seed, threads, level)

    plan = _plan(config, scenarios)
    n_scen, n_dealers = len(scenarios), config.n_dealers
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
    chunk = _chunk_paths(config)

    def reduce_chunk(start):
        # everything here depends on this chunk alone; run-wide state is
        # the merge loop's
        e = _chunk_exposures(config, plan, seed, start, min(chunk, n_paths - start))
        if dump is not None:
            dump.write(start, e)  # before _top partitions e in place
        diffs = [np.subtract(e[:, base_index], e[:, s]).ravel() for s in compared]
        return _ChunkSummary(e), diffs, _top(e, m)  # _top, which partitions e, last

    sums = _ChunkSummary(np.empty((0, n_scen, n_dealers)))
    tops = _TopRows((n_scen, n_dealers), m, min(m, chunk))
    hists = [_Histogram(n_paths * n_dealers) for _ in compared]
    starts = range(0, n_paths, chunk)
    if config.has_t_marginals():
        _t3_map_table()  # built here, so that no two workers both build it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        if threads > 1:
            results = _in_order(pool, reduce_chunk, starts, 2 * threads)
        else:
            results = map(reduce_chunk, starts)
        for c_sums, c_diffs, c_top in results:
            sums.merge(c_sums)
            tops.add(c_top)
            for hist, d in zip(hists, c_diffs):
                hist.add(d)
            # free this chunk's arrays before the next one is drawn: without
            # threads, map evaluates it while these names still hold them
            c_diffs = c_top = d = None

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
        histograms = {scenarios[s].name: (h.edges(), h.counts) for s, h in zip(compared, hists)}

    return RiskReport(
        dealer_names=tuple(d.name for d in config.dealers),
        scenario_names=tuple(s.name for s in scenarios),
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
        histograms=histograms,
    )
