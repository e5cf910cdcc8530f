"""Scenario-exposure kernel.

Given one block of standardized pair shocks, computes every dealer's realized
net exposure under every clearing scenario. Everything that depends only on
the pair layout and the scenarios (coefficients, owner slabs, CCP groups) is
a ``Plan``, built once per run by ``plan``. The caller sizes the blocks and
streams a chunk of paths through them (``montecarlo._chunk_exposures``).

The block is walked in sub-blocks of paths. Per direction of the pairs, one
stacked matmul applies a fixed (rows, classes) coefficient matrix per pair to
that pair's (classes, paths) shocks: the rows are the distinct bilateral
remainders 1-w and one unit row per class that some CCP clears, scaled by the
direction's pair scale. Pairs are sorted by owning dealer, so each dealer's
sum over its counterparties is one reduction over a contiguous slab of pairs.
Bilateral rows take their positive part before that sum; the cleared rows
sum to net positions, and every CCP group is max(w . net, 0).

Every exposure is computed path by path in the same order whatever the block
and sub-block sizes, so a path's bits do not depend on how a chunk is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The numpy kernel is the only one. The benchmark's operation runner
# (perfbench/child.py) reads this name and records it in its metadata line.
DEFAULT_BACKEND = "numpy"

# Doubles of scratch (2 MB) for one sub-block of paths: its shocks, the
# per-pair rows and the per-dealer sums. It fits a core's L2 cache, is reused
# by every sub-block of a block and is freed when the kernel returns, so it
# never coexists with the sampling temporaries of the next block.
_SCRATCH_DOUBLES = 2**18


def _owner_slabs(owner: np.ndarray, n_dealers: int):
    """Order of the pairs by owning dealer (stable; None when they already
    are), the (dealer, lo, hi) slab of each owner in that order, and the
    dealers that own no pair."""
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=n_dealers)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    slabs = [(o, bounds[o], bounds[o + 1]) for o in np.flatnonzero(counts)]
    if np.array_equal(order, np.arange(order.size)):
        order = None
    return order, slabs, np.flatnonzero(counts == 0)


def _carve(flat: np.ndarray, paths: int, *shapes):
    """Contiguous (*shape, paths) views laid end to end from the start of
    ``flat``."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape) * paths
        views.append(flat[at : at + size].reshape(*shape, paths))
        at += size
    return views


@dataclass(frozen=True, eq=False)
class Plan:
    """Everything the kernel reads besides the shocks, fixed by the pair
    layout and the scenarios. Built once per run by ``plan``; every worker
    shares it, so its arrays are read-only."""

    n_dealers: int
    n_bilateral: int           # distinct bilateral remainder rows
    shared: np.ndarray         # (scenarios,) remainder row of each scenario
    ccp_w: np.ndarray          # (groups, cleared classes) CCP weights
    group_scenario: tuple      # scenario of each CCP group
    directions: tuple          # per direction: (order, coef, slabs, idle)
    shapes: tuple              # per-path shape of each scratch array

    @property
    def n_scenarios(self) -> int:
        return self.shared.size


def _read_only(a):
    if a is not None:
        a.setflags(write=False)
    return a


def plan(
    s_plus: np.ndarray,     # (pairs, classes) scale, owner -> counterparty
    s_minus: np.ndarray,    # (pairs, classes) scale for the reverse direction
    pair_i: np.ndarray,     # (pairs,) owning dealer of the + direction
    pair_j: np.ndarray,     # (pairs,) owning dealer of the - direction
    scenarios,              # ClearingScenario sequence
    n_dealers: int,
) -> Plan:
    """The kernel's plan for one pair layout and scenario list.

    Each scenario contributes its bilateral remainders
    ``residual_weights`` and its per-CCP weight vectors ``ccp_groups``.
    Bilateral remainders net across classes once per counterparty, so each
    distinct remainder row is evaluated once; scenarios clearing the same
    fractions (two CCPs and one joint CCP) share it. A CCP term
    max(sum_j w . x_ij, 0) is linear inside the max, so each dealer's net
    position in each cleared class is summed once and every CCP group is a
    weighted sum of it.
    """
    n_pairs, n_classes = s_plus.shape
    resid_w = np.array([scen.residual_weights(n_classes) for scen in scenarios])
    groups = [(s, g) for s, scen in enumerate(scenarios) for g in scen.ccp_groups(n_classes)]
    ccp_w = np.array([g for _, g in groups]).reshape(-1, n_classes)
    distinct, shared = np.unique(resid_w, axis=0, return_inverse=True)
    cleared = np.flatnonzero(ccp_w.any(axis=0))
    rows = np.vstack([distinct, np.eye(n_classes)[cleared]])  # (rows, classes)
    n_rows, n_groups = rows.shape[0], len(groups)
    # per direction: pair order by owner, (pairs, rows, classes) coefficients
    # with the signed scale folded in, owner slabs and idle dealers
    directions = []
    for scale, owner, sign in ((s_plus, pair_i, 1.0), (s_minus, pair_j, -1.0)):
        order, slabs, idle = _owner_slabs(owner, n_dealers)
        ranked = scale if order is None else scale[order]
        coef = sign * (ranked[:, None, :] * rows)
        directions.append((_read_only(order), _read_only(coef), tuple(slabs), _read_only(idle)))
    return Plan(
        n_dealers=n_dealers,
        n_bilateral=distinct.shape[0],
        shared=_read_only(shared.reshape(-1)),
        ccp_w=_read_only(ccp_w[:, cleared]),
        group_scenario=tuple(s for s, _ in groups),
        directions=tuple(directions),
        shapes=(
            (n_pairs, n_classes),          # shocks in pair order
            (n_pairs, n_classes),          # shocks in one direction's order
            (n_pairs, n_rows),             # per-pair rows
            (2, n_dealers, n_rows),        # per-dealer sums of each direction
            (n_dealers, n_groups),         # CCP terms
            (n_dealers, len(scenarios)),   # exposures
        ),
    )


def scenario_exposures(
    y: np.ndarray,                  # (paths, pairs, classes) standardized shocks
    plan: Plan,
    out: np.ndarray | None = None,  # (paths, scenarios, dealers) destination
) -> np.ndarray:
    """Return the realized exposures of ``y`` under ``plan``, shape (paths,
    scenarios, dealers), written to ``out`` when it is given."""
    n_paths, n_bilateral = y.shape[0], plan.n_bilateral
    if out is None:
        out = np.empty((n_paths, plan.n_scenarios, plan.n_dealers))
    per_path = sum(math.prod(shape) for shape in plan.shapes)
    step = max(1, _SCRATCH_DOUBLES // per_path)
    scratch = np.empty(max(2, min(step, n_paths)) * per_path)
    for a in range(0, n_paths, step):
        sub = y[a : a + step]
        width = sub.shape[0]
        # BLAS rounds a one-column product differently, so a lone path is
        # evaluated as two copies of itself
        pairwise, shocks, x, sums, ccp, exposure = _carve(scratch, max(2, width), *plan.shapes)
        np.copyto(pairwise, sub.transpose(1, 2, 0))
        for (order, coef, slabs, idle), total in zip(plan.directions, sums):
            ordered = pairwise
            if order is not None:  # mode="clip" writes to out unbuffered
                ordered = np.take(pairwise, order, axis=0, out=shocks, mode="clip")
            np.matmul(coef, ordered, out=x)
            bilateral = x[:, :n_bilateral]
            np.maximum(bilateral, 0.0, out=bilateral)
            for o, lo, hi in slabs:
                np.add.reduce(x[lo:hi], axis=0, out=total[o])
            total[idle] = 0.0
        total = np.add(sums[0], sums[1], out=sums[0])
        np.matmul(plan.ccp_w, total[:, n_bilateral:], out=ccp)
        np.maximum(ccp, 0.0, out=ccp)
        np.take(total, plan.shared, axis=1, out=exposure, mode="clip")
        for g, s in enumerate(plan.group_scenario):
            exposure[:, s] += ccp[:, g]
        np.copyto(out[a : a + width], exposure[..., :width].transpose(2, 1, 0))
    return out
