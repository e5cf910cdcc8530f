"""Scenario-exposure kernel.

Given a chunk of standardized pair shocks, delivered as consecutive blocks of
paths, computes every dealer's realized net exposure under every clearing
scenario. Only the (paths, scenarios, dealers) output spans the chunk.

Each block is walked in sub-blocks of paths. Per direction of the pairs, one
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

import numpy as np

# The numpy kernel is the only one. The benchmark's operation runner
# (perfbench/child.py) reads this name and records it in its metadata line.
DEFAULT_BACKEND = "numpy"

# Doubles of scratch (2 MB) for one sub-block of paths: its shocks, the
# per-pair rows and the per-dealer sums. It fits a core's L2 cache, is reused
# by every sub-block of a block and is freed before the next block is drawn,
# so it never coexists with the sampling temporaries.
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


def scenario_exposures(
    blocks,                 # iterable of (block paths, pairs, classes) shocks
    n_paths: int,           # paths over all blocks
    s_plus: np.ndarray,     # (pairs, classes) scale, owner -> counterparty
    s_minus: np.ndarray,    # (pairs, classes) scale for the reverse direction
    pair_i: np.ndarray,     # (pairs,) owning dealer of the + direction
    pair_j: np.ndarray,     # (pairs,) owning dealer of the - direction
    resid_w: np.ndarray,    # (scenarios, classes) bilateral remainders 1-w
    ccp_w: np.ndarray,      # (groups, classes) per-CCP clearing weights
    ccp_offsets: np.ndarray,  # (scenarios+1,) group slice per scenario
    n_dealers: int,
) -> np.ndarray:
    """Return realized exposures with shape (n_paths, scenarios, dealers).

    ``blocks`` yields the shocks of consecutive paths, ``n_paths`` rows in
    all; each block is evaluated before the next one is drawn, so a
    generator of blocks is never held in memory as a whole.

    Bilateral remainders net across classes once per counterparty, so each
    distinct row of ``resid_w`` is evaluated once; scenarios clearing the
    same fractions (two CCPs and one joint CCP) share it. A CCP term
    max(sum_j w . x_ij, 0) is linear inside the max, so each dealer's net
    position in each cleared class is summed once and every CCP group is a
    weighted sum of it.
    """
    n_pairs, n_classes = s_plus.shape
    n_scenarios = resid_w.shape[0]
    distinct, shared = np.unique(resid_w, axis=0, return_inverse=True)
    shared = shared.reshape(-1)
    n_bilateral = distinct.shape[0]
    cleared = np.flatnonzero(ccp_w.any(axis=0))
    w = ccp_w[:, cleared]
    rows = np.vstack([distinct, np.eye(n_classes)[cleared]])  # (rows, classes)
    n_rows, n_groups = rows.shape[0], w.shape[0]
    # per direction: pair order by owner, (pairs, rows, classes) coefficients
    # with the signed scale folded in, owner slabs and idle dealers
    directions = []
    for scale, owner, sign in ((s_plus, pair_i, 1.0), (s_minus, pair_j, -1.0)):
        order, slabs, idle = _owner_slabs(owner, n_dealers)
        ranked = scale if order is None else scale[order]
        coef = sign * (ranked[:, None, :] * rows)
        directions.append((order, coef, slabs, idle))
    shapes = (
        (n_pairs, n_classes),        # shocks in pair order
        (n_pairs, n_classes),        # shocks in one direction's order
        (n_pairs, n_rows),           # per-pair rows
        (2, n_dealers, n_rows),      # per-dealer sums of each direction
        (n_dealers, n_groups),       # CCP terms
        (n_dealers, n_scenarios),    # exposures
    )
    per_path = sum(math.prod(shape) for shape in shapes)
    step = max(1, _SCRATCH_DOUBLES // per_path)

    def evaluate(y, dest):
        scratch = np.empty(max(2, min(step, y.shape[0])) * per_path)
        for a in range(0, y.shape[0], step):
            sub = y[a : a + step]
            width = sub.shape[0]
            # BLAS rounds a one-column product differently, so a lone path
            # is evaluated as two copies of itself
            pairwise, shocks, x, sums, ccp, exposure = _carve(
                scratch, max(2, width), *shapes
            )
            np.copyto(pairwise, sub.transpose(1, 2, 0))
            for (order, coef, slabs, idle), total in zip(directions, sums):
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
            np.matmul(w, total[:, n_bilateral:], out=ccp)
            np.maximum(ccp, 0.0, out=ccp)
            np.take(total, shared, axis=1, out=exposure, mode="clip")
            for s in range(n_scenarios):
                for g in range(ccp_offsets[s], ccp_offsets[s + 1]):
                    exposure[:, s] += ccp[:, g]
            np.copyto(dest[a : a + width], exposure[..., :width].transpose(2, 1, 0))

    out = np.empty((n_paths, n_scenarios, n_dealers))
    start = 0
    for y in blocks:
        stop = start + y.shape[0]
        if stop > n_paths:
            raise ValueError(f"shock blocks hold more than {n_paths} paths")
        evaluate(y, out[start:stop])  # its scratch is freed when it returns
        start = stop
        del y  # release the block before the next one is drawn
    if start != n_paths:
        raise ValueError(f"shock blocks hold {start} paths, expected {n_paths}")
    return out
