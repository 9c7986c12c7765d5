"""Small helpers of the plain series: geometric-polynomial tail sums, grouped sums."""

from __future__ import annotations

import numpy as np

# (keys or points) x modes per block of mode tensors or phases, to bound memory
_BLOCK_ELEMS = 1 << 15


def geom_poly_sum(a: float, b: float, q: float, p: int) -> float:
    """sum_{j>=0} (a + b j)^p q^j for p in {0, 1, 2} and 0 <= q < 1."""
    if not 0.0 <= q < 1.0:
        return float("inf")
    one = 1.0 - q
    if p == 0:
        return 1.0 / one
    if p == 1:
        return a / one + b * q / one**2
    if p == 2:
        return a * a / one + 2 * a * b * q / one**2 + b * b * q * (1 + q) / one**3
    raise ValueError("p must be 0, 1 or 2")


def equal_rows(keys):
    """Index arrays of the rows of ``keys`` (n, k) that are equal, ordered by key."""
    keys = np.asarray(keys)
    if len(keys) < 2:
        return [np.arange(len(keys))]
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    starts = np.flatnonzero(np.any(sk[1:] != sk[:-1], axis=1)) + 1
    return np.split(order, starts)


def contract_by_key(keys, n_modes: int, blocks, phases):
    """Per point p, sum_l phases_pl B_l(key_p) with each B built once per distinct key.

    ``keys`` (n, k) holds each point's key.  ``blocks(i)`` returns the
    (len(i), n_modes, ...) tensors at the keys of points ``i`` (one point per
    distinct key), and ``phases(i)`` the (len(i), n_modes) phase matrix of
    points ``i``; the points sharing a key are contracted with its tensors by
    one matrix product.  Keys go in blocks of about ``_BLOCK_ELEMS /
    n_modes``, and points in blocks whose phase matrix holds as many entries
    as a block of tensors.  Returns (n, ...), the trailing shape of the
    tensors.
    """
    groups = equal_rows(keys)
    rows = max(1, _BLOCK_ELEMS // max(n_modes, 1))
    out = None
    for k in range(0, len(groups), rows):
        part = groups[k:k + rows]
        tensors = blocks(np.array([g[0] for g in part]))
        if out is None:
            shape = tensors.shape[2:]
            width = int(np.prod(shape))
            out = np.empty((len(keys), width), dtype=complex)
        tensors = tensors.reshape(len(part), n_modes, width)
        for idx, blk in zip(part, tensors):
            for j in range(0, len(idx), rows * width):
                sub = idx[j:j + rows * width]
                out[sub] = phases(sub) @ blk
    return out.reshape((len(keys),) + shape)
