"""Hot numeric kernels: batched arc distances, Gaussian kernel sums, and the
incremental mean recursion, in numpy.

Every kernel turns a block of dot products into terms
exp(-arccos(<x,y>)^2 * inv_two_sigma_sq) in place and reduces them with
numpy's pairwise summation. Support sets can reach 1e4-1e5 terms of wildly
varying magnitude; all terms are positive, so there is no cancellation, and
the relative error of the pairwise sum is O(log2(n) * eps) (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., ch. 4): about 1.6e-15 at 1e4
terms. ``kernel_sums`` splits its evaluation rows into blocks of at most
``_BLOCK_BYTES``. The split changes no row's summation order, but BLAS may
round a dot product differently in the last bit for another block shape.
``absolute=True`` switches the distance from the sphere arc length
arccos(<x,y>) to the subspace angle arccos(|<x,y>|) used on Gr(1, d).
"""

from __future__ import annotations

import math

import numpy as np

# Largest dense (rows x support) block one kernel_sums step allocates.
# 8 MiB holds a 2000-row evaluation against 500 support points in one block.
_BLOCK_BYTES = 8 << 20


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _as_matrix(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _kernel_terms(dots, inv_two_sigma_sq, absolute):
    """Turn dot products into exp(-arccos(dots)^2 * inv_two_sigma_sq), in place."""
    if absolute:
        np.abs(dots, out=dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    np.arccos(dots, out=dots)
    np.square(dots, out=dots)
    # multiplying by the negated factor equals negating the product exactly
    np.multiply(dots, -float(inv_two_sigma_sq), out=dots)
    return np.exp(dots, out=dots)


def arc_distances(pts, center, *, absolute: bool = False) -> np.ndarray:
    """Geodesic distances from each row of ``pts`` to ``center``."""
    dots = _as_matrix(pts) @ _as_matrix(center)
    if absolute:
        dots = np.abs(dots)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def kernel_values(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> np.ndarray:
    """exp(-d(x, center)^2 * inv_two_sigma_sq) for each row x of ``pts``."""
    return _kernel_terms(_as_matrix(pts) @ _as_matrix(center), inv_two_sigma_sq, absolute)


def kernel_total(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> float:
    """Sum of kernel_values over all rows of ``pts``."""
    dots = _as_matrix(pts) @ _as_matrix(center)
    return float(_kernel_terms(dots, inv_two_sigma_sq, absolute).sum())


def kernel_sums(eval_pts, support, inv_two_bw_sq: float, *, absolute: bool = False) -> np.ndarray:
    """Per-row kernel sums of ``eval_pts`` against ``support``."""
    eval_pts = _as_matrix(eval_pts)
    support = _as_matrix(support)
    n = eval_pts.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * max(1, support.shape[0])))
    out = np.empty(n)
    for start in range(0, n, rows):
        block = eval_pts[start:start + rows] @ support.T
        out[start:start + rows] = _kernel_terms(block, inv_two_bw_sq, absolute).sum(axis=1)
    return out


def incremental_mean(pts, *, sign_align: bool = False) -> np.ndarray:
    """Streaming mean recursion m_{k+1} = geodesic(m_k, x_{k+1}, 1/(k+1)).

    ``sign_align`` flips each incoming sample to the hemisphere of the
    running mean (subspace data, where x and -x are the same point).
    """
    pts = _as_matrix(pts)
    m = pts[0].copy()
    for k in range(1, pts.shape[0]):
        x = pts[k]
        dot = float(m @ x)
        if sign_align and dot < 0.0:
            x = -x
            dot = -dot
        u = x - dot * m
        sin_theta = float(np.linalg.norm(u))
        # the angle from atan2(||u||, dot) stays accurate near coincident points
        theta = math.atan2(sin_theta, dot)
        if theta < 1e-14:
            continue
        t = theta / (k + 1.0)
        m = math.cos(t) * m + (math.sin(t) / sin_theta) * u
        m /= np.linalg.norm(m)
    return m
