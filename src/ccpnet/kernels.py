"""Scenario-exposure kernel.

Given a chunk of standardized pair shocks, delivered as consecutive blocks of
paths, computes every dealer's realized net exposure under every clearing
scenario. Only the (paths, scenarios, dealers) output spans the chunk; every
temporary is at most (block paths, pairs) in size, and no
(paths, pairs, classes) array is built besides the current block of shocks.
"""

from __future__ import annotations

import numpy as np

# The numpy kernel is the only one. The benchmark's operation runner
# (perfbench/child.py) reads this name and records it in its metadata line.
DEFAULT_BACKEND = "numpy"


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

    Bilateral remainders net across classes once per counterparty, so they
    need one pass over the pairs per distinct row of ``resid_w`` and
    direction; scenarios clearing the same fractions (two CCPs and one joint
    CCP) share it. A CCP term max(sum_j w . x_ij, 0) is linear inside the
    max, so each dealer's per-class net position is summed once per block
    and every CCP group is a weighted sum of it.
    """
    n_pairs, n_classes = s_plus.shape
    rows = np.arange(n_pairs)
    owner_plus = np.zeros((n_pairs, n_dealers))
    owner_plus[rows, pair_i] = 1.0
    owner_minus = np.zeros((n_pairs, n_dealers))
    owner_minus[rows, pair_j] = 1.0
    # signed[k]: pair -> dealer map of the class-k net position
    signed = [
        owner_plus * s_plus[:, k, None] - owner_minus * s_minus[:, k, None]
        for k in range(n_classes)
    ]
    # one pair of direction scales per distinct bilateral remainder row
    distinct: dict[bytes, int] = {}
    scales = []
    for r in resid_w:
        key = r.tobytes()
        if key not in distinct:
            distinct[key] = len(scales)
            scales.append((s_plus * r, -(s_minus * r)))
    shared = [distinct[r.tobytes()] for r in resid_w]

    def evaluate(y, dest):
        # net[k, c, n]: dealer n's class-k position summed over counterparties
        net = np.empty((n_classes, y.shape[0], n_dealers))
        for k in range(n_classes):
            np.matmul(y[:, :, k], signed[k], out=net[k])
        ccp = np.tensordot(ccp_w, net, axes=1)  # (groups, paths, dealers)
        np.maximum(ccp, 0.0, out=ccp)

        bilateral = []
        v = np.empty(y.shape[:2])  # one direction's remainders, pair by pair
        for sp, sm in scales:
            np.einsum("cpk,pk->cp", y, sp, out=v)
            np.maximum(v, 0.0, out=v)
            b = v @ owner_plus
            np.einsum("cpk,pk->cp", y, sm, out=v)
            np.maximum(v, 0.0, out=v)
            b += v @ owner_minus
            bilateral.append(b)
        for s, b in enumerate(shared):
            e = dest[:, s, :]
            e[...] = bilateral[b]
            for g in range(ccp_offsets[s], ccp_offsets[s + 1]):
                e += ccp[g]

    out = np.empty((n_paths, resid_w.shape[0], n_dealers))
    start = 0
    for y in blocks:
        stop = start + y.shape[0]
        if stop > n_paths:
            raise ValueError(f"shock blocks hold more than {n_paths} paths")
        evaluate(y, out[start:stop])
        start = stop
        del y  # release the block before the next one is drawn
    if start != n_paths:
        raise ValueError(f"shock blocks hold {start} paths, expected {n_paths}")
    return out
