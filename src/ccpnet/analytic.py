"""Closed-form expected exposures and the minimum-clearing-member model.

The Gaussian closed forms give, per dealer, the expected net exposure under
pure bilateral netting and under one, two or a joint CCP. The homogeneous
model answers the market-design question: how many clearing members does a
single-class CCP need before it beats bilateral cross-class netting?

For the shipped six-class credit-exposure dataset the cleared class is the
CDS class; that reading (all six classes kept, CDS alpha scaled) is the one
that reproduces the published thresholds and is an inference, not stated in
the source data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market import (
    ClearingScenario,
    ConfigError,
    HomogeneousSpec,
    MarketConfig,
    pair_scale_matrix,
    validate,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_positive_mean(sigma: float) -> float:
    """Mean of max(X, 0) for centered Gaussian X: sigma / sqrt(2 pi)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return sigma * _INV_SQRT_2PI


@dataclass(frozen=True)
class ExpectedExposureResult:
    """Per-dealer expected exposures for one scenario plus their total."""

    scenario: str
    per_dealer: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.per_dealer))


def _expected_exposure(
    config: MarketConfig,
    i: int,
    resid_w: np.ndarray,
    ccp_groups: list[np.ndarray],
) -> float:
    """Bilateral-residual term plus one multilateral term per CCP group.

    Exposures to different counterparties are independent, so each CCP's
    netted position has variance equal to the sum over counterparties of the
    weighted within-pair covariance.
    """
    s = pair_scale_matrix(config, i)
    corr = config.correlation_matrix()
    a = s * resid_w
    pair_var = np.einsum("jk,km,jm->j", a, corr, a)
    ee = np.sqrt(np.maximum(pair_var, 0.0)).sum() * _INV_SQRT_2PI
    for wvec in ccp_groups:
        g = s * wvec
        var = float(np.einsum("jk,km,jm->", g, corr, g))
        ee += math.sqrt(max(var, 0.0)) * _INV_SQRT_2PI
    return float(ee)


def scenario_expected_exposures(
    config: MarketConfig, scenario: ClearingScenario
) -> ExpectedExposureResult:
    """Closed-form per-dealer expected exposures for any clearing scenario.

    The one closed-form entry point: pure bilateral netting is ``no_ccp()``,
    and one, two or a joint CCP are ``single_ccp``, ``two_ccps`` and
    ``joint_ccp``. A joint CCP keeps cross-class correlation inside one max.
    """
    validate(config).raise_if_invalid()
    if config.has_t_marginals():
        raise ConfigError(
            "closed forms are Gaussian-only; use the Monte Carlo engine for "
            "t-distributed marginals"
        )
    resid = scenario.residual_weights(config.n_classes)
    groups = scenario.ccp_groups(config.n_classes)
    per = tuple(
        _expected_exposure(config, i, resid, groups) for i in range(config.n_dealers)
    )
    return ExpectedExposureResult(scenario=scenario.name, per_dealer=per)


def _check_fraction(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise ConfigError(f"clearing fraction {w} outside [0, 1]")


# ---------------------------------------------------------------------------
# Homogeneous market: expected exposures and member threshold
# ---------------------------------------------------------------------------


# the key of _class_sums's last computed sums and those sums, replaced as one
# tuple so that no reader pairs one key with another key's sums
_sums_memo: tuple = ((), ())


def _class_sums(
    alphas: tuple[float, ...],
    credit_exposures: tuple[float, ...],
    cleared_class: int,
    w: float,
) -> tuple[float, float, float, float, float]:
    """Class-std sums of a pair's position: ``(total, squares, total_b,
    squares_b, sigma_c)``, the ``_b`` sums with the cleared class cut to its
    1-w remainder, and sigma_c the cleared class's std.

    Both sums run in one plain left-to-right loop, so they round the same on
    every Python version (``sum`` compensates its float additions since 3.12).
    None of them depends on rho, so a one-entry memo of the last key lets
    every cell of a row-major ``threshold_surface`` row reuse its row's sums.
    The key is compared by value, and a surface row's cells share its tuples,
    so a hit costs a few identity checks. A value key is safe: alphas and
    exposures are finite and > 0, and w is read only as ``1 - w``, so
    w = -0.0 and 0.0 (equal keys) give the same sums.

    Raises ConfigError when total^2 overflows: it bounds the squares and
    both variances for rho <= 1, so no later step can overflow either.
    """
    global _sums_memo
    key = (alphas, credit_exposures, cleared_class, w)
    memo_key, sums = _sums_memo
    if key == memo_key:
        return sums
    total = squares = total_b = squares_b = 0.0
    for k, (alpha, ce) in enumerate(zip(alphas, credit_exposures)):
        v = alpha * ce
        total += v
        squares += v * v
        if k == cleared_class:
            v *= 1.0 - w
        total_b += v
        squares_b += v * v
    if not math.isfinite(total * total):
        raise ConfigError(
            "class standard deviations overflow float64: "
            "alphas times credit exposures are too large"
        )
    sigma_c = alphas[cleared_class] * credit_exposures[cleared_class]
    sums = (total, squares, total_b, squares_b, sigma_c)
    _sums_memo = (key, sums)
    return sums


def _stds(spec: HomogeneousSpec, w: float) -> tuple[float, float, float]:
    """Std devs of a pair's class-sum position with all classes bilateral (A)
    and with the cleared class reduced to its 1-w remainder (B), and sigma_c.

    Under equicorrelation rho the variance of a sum of class positions with
    std devs v is sum v^2 + rho ((sum v)^2 - sum v^2). The cross term is kept
    as that difference so it is exactly zero for one class: otherwise A may
    round away from sigma and break the exact N=2 tie of a single class."""
    total, squares, total_b, squares_b, sigma_c = _class_sums(
        spec.alphas, spec.credit_exposures, spec.cleared_class, w
    )
    rho = spec.rho
    return (
        math.sqrt(squares + rho * (total * total - squares)),
        math.sqrt(squares_b + rho * (total_b * total_b - squares_b)),
        sigma_c,
    )


def homogeneous_ee(
    spec: HomogeneousSpec, n: int, with_ccp: bool, w: float = 1.0
) -> float:
    """Expected exposure of one dealer in an N-dealer homogeneous market.

    Bilateral: (N-1) pairs, each contributing the folded-Gaussian mean of the
    cross-class sum. With a CCP on the cleared class: the bilateral remainder
    plus a multilateral term whose netted variance grows like N-1 instead of
    (N-1)^2, which is the entire source of the CCP's advantage.
    """
    if n < 2:
        raise ConfigError("N >= 2 required")
    _check_fraction(w)
    a, b, sigma_c = _stds(spec, w)
    if not with_ccp:
        return (n - 1) * a * _INV_SQRT_2PI
    return ((n - 1) * b + w * sigma_c * math.sqrt(n - 1)) * _INV_SQRT_2PI


class ThresholdResult(NamedTuple):
    """Minimal member count at which the CCP strictly beats bilateral netting,
    with both expected-exposure curves evaluable at any N. A named tuple:
    ``threshold_surface`` builds one per cell, and a tuple costs less to build
    than a frozen dataclass."""

    spec: HomogeneousSpec
    w: float
    n_star: int

    def bilateral_ee(self, n: int) -> float:
        return homogeneous_ee(self.spec, n, with_ccp=False)

    def ccp_ee(self, n: int) -> float:
        return homogeneous_ee(self.spec, n, with_ccp=True, w=self.w)


def min_clearing_members(spec: HomogeneousSpec, w: float = 1.0) -> ThresholdResult:
    """Smallest integer N >= 2 where clearing the chosen class lowers
    expected exposure below the pure bilateral value.

    Solved in closed form via sqrt(N-1) > w*sigma_c / (A - B), then moved to
    the first N where the floating-point curves cross, so rounding can never
    misplace the crossing. A <= B would mean the CCP never wins; for rho >= 0
    and a positive cleared-class sigma it happens only by rounding, when
    that sigma is too small against the other classes to move A in float64.

    A and B come from the class sums in ``_class_sums``'s one-entry memo, so
    repeated calls that differ only in rho, as a ``threshold_surface`` row
    makes, run the class loop once. ConfigError when those sums overflow.
    """
    _check_fraction(w)
    if w == 0.0:
        raise ConfigError("clearing fraction w = 0 never changes exposures")
    a, b, sigma_c = _stds(spec, w)
    if a <= b:
        raise ConfigError("CCP never reduces expected exposure for this spec")
    x = w * sigma_c / (a - b)
    n_star = max(2, math.floor(1.0 + x * x) + 1)

    # the gap (N-1)(A-B) - w*sigma_c*sqrt(N-1) is increasing once positive,
    # so there is a single crossing; walk from the closed form to it with
    # the same strict test the window scan below applies to a whole range
    if n_star <= 100_000:
        ws, k = w * sigma_c, n_star - 1  # k = N - 1
        while not k * b + ws * math.sqrt(k) < k * a:
            k += 1
        while k > 1 and (k - 1) * b + ws * math.sqrt(k - 1) < (k - 1) * a:
            k -= 1
        return ThresholdResult(spec, w, k + 1)

    # for gigantic thresholds the curves differ by rounding noise near the
    # crossing, so a window around the solution must show a single one
    ns = np.arange(max(2, n_star - 1000), n_star + 1000)
    bilat = (ns - 1) * a
    ccp = (ns - 1) * b + w * sigma_c * np.sqrt(ns - 1.0)
    below = ccp < bilat
    crossing = np.flatnonzero(below)
    if crossing.size == 0:
        raise ConfigError("CCP never reduces expected exposure for this spec")
    n_scan = int(ns[crossing[0]])
    if not below[crossing[0]:].all():
        raise ConfigError("expected-exposure curves cross more than once")
    return ThresholdResult(spec, w, n_scan)


def threshold_surface(
    spec: HomogeneousSpec,
    alpha_grid,
    rho_grid,
    w: float = 1.0,
) -> np.ndarray:
    """Member threshold over a grid of cleared-class riskiness multipliers
    and cross-class correlations; entry [a, r] pairs alpha_grid[a] with
    rho_grid[r].

    The grids are validated once, before any cell is solved, and each cell
    is ``spec`` with only its cleared alpha and rho replaced, built from its
    row's template (a copy of ``spec``'s fields with the row's alphas) without
    re-running ``HomogeneousSpec``'s checks. Cells are solved one alpha row at
    a time, so every cell after a row's first finds the row's class sums in
    ``_class_sums``'s one-entry memo: only the two square roots depend on
    rho. Each cell is still one ``min_clearing_members`` call."""
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if alpha_grid.ndim != 1 or rho_grid.ndim != 1:
        raise ConfigError("grids must be one-dimensional")
    if alpha_grid.size == 0 or rho_grid.size == 0:
        raise ConfigError("grids must be non-empty")
    if not (np.isfinite(alpha_grid) & (alpha_grid > 0)).all():
        raise ConfigError("alpha grid values must be finite and > 0")
    if not ((rho_grid >= 0) & (rho_grid < 1)).all():
        raise ConfigError("rho grid values must lie in [0, 1)")
    out = np.empty((alpha_grid.size, rho_grid.size), dtype=np.int64)
    c = spec.cleared_class
    rhos = rho_grid.tolist()
    new_spec = object.__new__
    for ai, alpha in enumerate(alpha_grid.tolist()):
        # the checks passed: alpha is a finite float > 0 and every rho a
        # float in [0, 1), so each cell equals the checked construction
        template = dict(spec.__dict__)
        template["alphas"] = spec.alphas[:c] + (alpha,) + spec.alphas[c + 1 :]
        row = []
        for rho in rhos:
            cell = new_spec(HomogeneousSpec)
            template["rho"] = rho
            cell.__dict__.update(template)
            row.append(min_clearing_members(cell, w).n_star)
        out[ai] = row
    return out


def write_surface(path, alpha_grid, rho_grid, surface: np.ndarray) -> None:
    """Emit the surface as delimited text with columns alpha, rho, n_star,
    creating the file's directory when it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    alphas = np.asarray(alpha_grid, dtype=float).tolist()
    rhos = [repr(rho) for rho in np.asarray(rho_grid, dtype=float).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,rho,n_star\n")
        for alpha, row in zip(alphas, np.asarray(surface).tolist()):
            prefix = f"{alpha!r},"
            fh.write("".join(f"{prefix}{rho},{n}\n" for rho, n in zip(rhos, row)))
