"""The plain series' shared parts: point checks, geometric tail sums, the contraction loop."""

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


def point_rows(X, dim: int):
    """``X`` as a float (n, dim) array of points; ValueError naming the length
    ``dim`` when it has another shape."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"points need length {dim}, got shape {X.shape}")
    return X


def points(X, y, dim: int):
    """``X`` as a float (n, dim) array of points and ``y`` as one float point (dim,).

    Raises ValueError naming the length ``dim`` when either has another shape.
    """
    X = point_rows(X, dim)
    y = np.asarray(y, dtype=float)
    if y.shape != (dim,):
        raise ValueError(f"the source point needs length {dim}, got shape {y.shape}")
    return X, y


def equal_rows(keys):
    """Index arrays of the rows of ``keys`` (n, k) that are equal, ordered by key."""
    keys = np.asarray(keys)
    if len(keys) < 2:
        return [np.arange(len(keys))]
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    starts = np.flatnonzero(np.any(sk[1:] != sk[:-1], axis=1)) + 1
    return np.split(order, starts)


def contract(keys, n_modes: int, tensors, product, block: int):
    """Per point p, sum_l phase_pl T_l(key_p) with each T built once per distinct key.

    The one contraction loop of the 3D plain series (the 2D series sums
    through ``green2d._mode_sum``).  ``keys`` (n, k) holds each point's key,
    the part of its offset from the source that the mode tensors depend on:
    the transverse distance r for ``green3d_qp`` (whose tensors are its four
    r-only mode vectors) and |x3 - y3| for ``green3d_biqp``.  ``tensors(i)``
    returns the (len(i), n_modes, ...) tensors at the keys of points ``i``
    (one point per distinct key); they are built in blocks of about
    ``_BLOCK_ELEMS / n_modes`` keys.  The points sharing a key go in runs of
    at most ``block`` to ``product(sub, c)``, which returns the (len(sub),
    width) contraction of points ``sub`` with their phases and the tensors
    ``c`` (n_modes, width) of their key.  The lattice supplies only
    ``product`` and ``block``: ``scalar_phases`` for one momentum per mode,
    ``green3d_biqp`` its own for the pair lattice.
    Returns (n, ...), the trailing shape of the tensors.
    """
    groups = equal_rows(keys)
    rows = max(1, _BLOCK_ELEMS // max(n_modes, 1))
    out = None
    for k in range(0, len(groups), rows):
        part = groups[k:k + rows]
        ts = tensors(np.array([g[0] for g in part]))
        if out is None:
            shape = ts.shape[2:]
            width = int(np.prod(shape))
            out = np.empty((len(keys), width), dtype=complex)
        for idx, c in zip(part, ts.reshape(len(part), n_modes, width)):
            for j in range(0, len(idx), block):
                sub = idx[j:j + block]
                out[sub] = product(sub, c)
    return out.reshape((len(keys),) + shape)


def scalar_phases(t, al, width: int):
    """``(product, block)`` of ``contract`` for the momenta ``al`` (M,).

    Points ``sub`` take their (points x modes) phase matrix e^{i al_l t_p}
    times the tensors, in blocks whose phase matrix holds as many entries as
    a block of tensors of ``width`` entries a mode.
    """
    return ((lambda sub, c: np.exp(1j * np.outer(t[sub], al)) @ c),
            max(1, _BLOCK_ELEMS // len(al)) * width)


def per_key(keys, f):
    """``f(key)`` at each entry of ``keys`` (n,), evaluated once per distinct key."""
    out = np.empty(len(keys))
    for idx in equal_rows(keys[:, None]):
        out[idx] = f(keys[idx[0]])
    return out
