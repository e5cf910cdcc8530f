"""Scenario-exposure kernel.

Given a chunk of standardized pair shocks, computes every dealer's realized
net exposure under every clearing scenario. Every temporary is at most
(paths, pairs) in size; no (paths, pairs, classes) array is built besides
the shocks themselves.
"""

from __future__ import annotations

import numpy as np

# The numpy kernel is the only one. The benchmark's operation runner
# (perfbench/child.py) reads this name and records it in its metadata line.
DEFAULT_BACKEND = "numpy"


def scenario_exposures(
    y: np.ndarray,          # (paths, pairs, classes) standardized shocks
    s_plus: np.ndarray,     # (pairs, classes) scale, owner -> counterparty
    s_minus: np.ndarray,    # (pairs, classes) scale for the reverse direction
    pair_i: np.ndarray,     # (pairs,) owning dealer of the + direction
    pair_j: np.ndarray,     # (pairs,) owning dealer of the - direction
    resid_w: np.ndarray,    # (scenarios, classes) bilateral remainders 1-w
    ccp_w: np.ndarray,      # (groups, classes) per-CCP clearing weights
    ccp_offsets: np.ndarray,  # (scenarios+1,) group slice per scenario
    n_dealers: int,
) -> np.ndarray:
    """Return realized exposures with shape (paths, scenarios, dealers).

    Bilateral remainders net across classes once per counterparty, so they
    need one pass over the pairs per distinct row of ``resid_w`` and
    direction; scenarios clearing the same fractions (two CCPs and one joint
    CCP) share it. A CCP term max(sum_j w . x_ij, 0) is linear inside the
    max, so each dealer's per-class net position is summed once per chunk
    and every CCP group is a weighted sum of it.
    """
    n_paths, n_pairs, n_classes = y.shape
    rows = np.arange(n_pairs)
    owner_plus = np.zeros((n_pairs, n_dealers))
    owner_plus[rows, pair_i] = 1.0
    owner_minus = np.zeros((n_pairs, n_dealers))
    owner_minus[rows, pair_j] = 1.0

    # net[k, c, n]: dealer n's class-k position summed over counterparties
    net = np.empty((n_classes, n_paths, n_dealers))
    for k in range(n_classes):
        signed = owner_plus * s_plus[:, k, None] - owner_minus * s_minus[:, k, None]
        np.matmul(y[:, :, k], signed, out=net[k])
    ccp = np.tensordot(ccp_w, net, axes=1)  # (groups, paths, dealers)
    np.maximum(ccp, 0.0, out=ccp)

    bilateral: dict[bytes, np.ndarray] = {}
    out = np.empty((n_paths, resid_w.shape[0], n_dealers))
    for s, r in enumerate(resid_w):
        key = r.tobytes()
        if key not in bilateral:
            vp = np.einsum("cpk,pk->cp", y, s_plus * r)
            vm = np.einsum("cpk,pk->cp", y, -(s_minus * r))
            np.maximum(vp, 0.0, out=vp)
            np.maximum(vm, 0.0, out=vm)
            bilateral[key] = vp @ owner_plus + vm @ owner_minus
        e = out[:, s, :]
        e[...] = bilateral[key]
        for g in range(ccp_offsets[s], ccp_offsets[s + 1]):
            e += ccp[g]
    return out
