"""Scenario-exposure kernel.

Given one chunk of standardized pair shocks, computes every dealer's realized
net exposure under every clearing scenario. Everything that depends only on
the pair layout and the scenarios (gather index, coefficients, CCP groups) is
a ``Plan``, built once per run by ``plan``. The caller sizes the chunks and
makes one call per chunk (``montecarlo._chunk_exposures``), which hands
over the chunk's shocks as a stream of blocks.

Each pair row feeds two directed rows: the ``+`` direction, owned by
``pair_i``, and the ``-`` direction, owned by ``pair_j``. The plan orders
the directed rows by owner, so each dealer owns one contiguous run: its
``+`` rows, then its ``-`` rows, each in pair order. Every dealer owns as
many directed rows as every other.

Each block is walked in sub-blocks of at most ``block_paths(plan)`` paths.
Per sub-block, one gather puts each directed row's (classes, paths) shocks
in that order, and one stacked matmul applies each directed row's fixed
(rows, classes) coefficient matrix to them: the rows are the distinct
bilateral remainders 1-w and one unit row per class that some CCP clears,
scaled by the direction's signed pair scale. Bilateral rows take their
positive part; one reduction over each dealer's run then sums its
counterparties left to right. The cleared rows sum to net
positions, and every CCP group is max(w . net, 0).

Every exposure is computed path by path in the same order whatever the chunk
and sub-block sizes, so a path's bits do not depend on which chunk holds it
or where its sub-block starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The numpy kernel is the only one. The benchmark's operation runner
# (perfbench/child.py) reads this name and records it in its metadata line.
DEFAULT_BACKEND = "numpy"

# Doubles of scratch (2 MB) for one sub-block of paths: its shocks in pair
# and in directed order, the directed rows, the per-dealer sums, the CCP
# terms and the exposures. That is about 4,880 doubles per path on the
# default market, so a sub-block holds 53 paths. It fits a core's L2 cache,
# is reused by every sub-block of a chunk and is freed when the kernel
# returns. It also sizes the blocks that the sampler draws (``block_paths``);
# no bit depends on it.
_SCRATCH_DOUBLES = 2**18


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
    gather: np.ndarray         # (directed rows,) pair row of each, by owner
    coef: np.ndarray           # (directed rows, rows, classes), signed scale folded in
    shapes: tuple              # per-path shape of each scratch array

    @property
    def n_scenarios(self) -> int:
        return self.shared.size


def _read_only(a):
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

    Raises ``ValueError`` unless dealers 0 .. n_dealers-1 each own the same
    number of directed rows.
    """
    n_pairs, n_classes = s_plus.shape
    resid_w = np.array([scen.residual_weights(n_classes) for scen in scenarios])
    groups = [(s, g) for s, scen in enumerate(scenarios) for g in scen.ccp_groups(n_classes)]
    ccp_w = np.array([g for _, g in groups]).reshape(-1, n_classes)
    distinct, shared = np.unique(resid_w, axis=0, return_inverse=True)
    cleared = np.flatnonzero(ccp_w.any(axis=0))
    rows = np.vstack([distinct, np.eye(n_classes)[cleared]])  # (rows, classes)
    n_rows, n_groups = rows.shape[0], len(groups)
    # directed rows by owner: each dealer's + rows, then its - rows
    owner = np.concatenate((pair_i, pair_j))
    counts = np.bincount(owner, minlength=n_dealers)
    if counts.size != n_dealers or (counts != counts[0]).any():
        raise ValueError(f"dealers own unequal numbers of directed pair rows: {counts.tolist()}")
    order = np.argsort(owner, kind="stable")
    scale = np.concatenate((s_plus, -s_minus))[order]
    return Plan(
        n_dealers=n_dealers,
        n_bilateral=distinct.shape[0],
        shared=_read_only(shared.reshape(-1)),
        ccp_w=_read_only(ccp_w[:, cleared]),
        group_scenario=tuple(s for s, _ in groups),
        gather=_read_only(order % n_pairs),
        coef=_read_only(scale[:, None, :] * rows),
        shapes=(
            (n_pairs, n_classes),          # shocks in pair order
            (2 * n_pairs, n_classes),      # shocks in directed order
            (2 * n_pairs, n_rows),         # directed rows
            (n_dealers, n_rows),           # per-dealer sums
            (n_dealers, n_groups),         # CCP terms
            (n_dealers, len(scenarios)),   # exposures
        ),
    )


def _per_path(plan: Plan) -> int:
    return sum(math.prod(shape) for shape in plan.shapes)


def block_paths(plan: Plan) -> int:
    """Paths per sub-block under ``plan``: as many as ``_SCRATCH_DOUBLES``
    of scratch hold, at least one."""
    return max(1, _SCRATCH_DOUBLES // _per_path(plan))


def scenario_exposures(
    blocks,           # (paths, pairs, classes) standardized shock blocks
    plan: Plan,
    out: np.ndarray,  # (paths, scenarios, dealers) destination
) -> np.ndarray:
    """Write the realized exposures of the shock ``blocks`` under ``plan``
    to ``out`` and return it. The blocks cover out's paths in order; each is
    read only before the next is pulled, so the caller may draw every block
    into one buffer. A path's bits do not depend on how the paths are split
    into blocks."""
    n_paths, n_bilateral, n_dealers = out.shape[0], plan.n_bilateral, plan.n_dealers
    per_path, step = _per_path(plan), block_paths(plan)
    scratch, at = None, 0
    for sub in (y[a : a + step] for y in blocks for a in range(0, y.shape[0], step)):
        if scratch is None:  # allocated late, so that a t3 chunk's shocks
            # and its t3 column's copy reach their peak before it exists
            scratch = np.empty(max(2, min(step, n_paths)) * per_path)
        width = sub.shape[0]
        # BLAS rounds a one-column product differently, so a lone path is
        # evaluated as two copies of itself
        pairwise, shocks, x, total, ccp, exposure = _carve(scratch, max(2, width), *plan.shapes)
        np.copyto(pairwise, sub.transpose(1, 2, 0))
        # mode="clip" writes to out unbuffered
        np.take(pairwise, plan.gather, axis=0, out=shocks, mode="clip")
        np.matmul(plan.coef, shocks, out=x)
        bilateral = x[:, :n_bilateral]
        np.maximum(bilateral, 0.0, out=bilateral)
        # each dealer's run of directed rows, summed left to right
        np.add.reduce(x.reshape(n_dealers, -1, *x.shape[1:]), axis=1, out=total)
        np.matmul(plan.ccp_w, total[:, n_bilateral:], out=ccp)
        np.maximum(ccp, 0.0, out=ccp)
        np.take(total, plan.shared, axis=1, out=exposure, mode="clip")
        for g, s in enumerate(plan.group_scenario):
            exposure[:, s] += ccp[:, g]
        np.copyto(out[at : at + width], exposure[..., :width].transpose(2, 1, 0))
        at += width
    if at != n_paths:
        raise ValueError(f"shock blocks hold {at} of the {n_paths} paths of out")
    return out
