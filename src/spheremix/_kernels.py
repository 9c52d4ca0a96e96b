"""Hot numeric kernels: batched arc distances, Gaussian kernel sums, and the
incremental mean recursion, in numpy.

``kernel_sums`` is the one routine that computes kernel terms and returns the
log of each row's sum; the one-centre ``kernel_values`` and ``kernel_total``
are linear adapters over it. It turns a block of dot products into terms
exp(-arccos(<x,y>)^2 * inv_two_sigma_sq) in place and reduces them with
numpy's pairwise summation. Support sets can reach 1e4-1e5 terms of wildly
varying magnitude; all terms are positive, so there is no cancellation, and
the relative error of the pairwise sum is O(log2(n) * eps) (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., ch. 4): about 1.6e-15 at 1e4
terms. Only a row so small that underflowed terms could move its sum by an
ulp is recomputed as top + log(sum(exp(a - top))), its largest log term
factored out (Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021).
``kernel_sums`` splits its evaluation rows into blocks of at most
``_BLOCK_BYTES``. The split changes no row's summation order, but BLAS may
round a dot product differently in the last bit for another block shape.
``absolute=True`` switches the distance from the sphere arc length
arccos(<x,y>) to the subspace angle arccos(|<x,y>|) used on Gr(1, d).

``cell_means`` is the one implementation of the mean recursion. It moves
every (network, class) cell of a fit in the same step, so a fit takes as
many numpy steps as its largest class has rows.
"""

from __future__ import annotations

import numpy as np

# Largest dense (rows x support) block one kernel_sums step allocates.
# 8 MiB holds a 2000-row evaluation against 500 support points in one block.
_BLOCK_BYTES = 8 << 20

# a row sum below |support| * 2^-1022 / eps may have lost an ulp to underflow
_LOW_SUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _as_matrix(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _log_terms(dots, inv_two_sigma_sq, absolute):
    """Turn dot products into log kernel terms -arccos(dots)^2 * inv_two_sigma_sq,
    in place."""
    if absolute:
        np.abs(dots, out=dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    np.arccos(dots, out=dots)
    np.square(dots, out=dots)
    # multiplying by the negated factor equals negating the product exactly
    return np.multiply(dots, -float(inv_two_sigma_sq), out=dots)


def arc_distances(pts, center, *, absolute: bool = False) -> np.ndarray:
    """Geodesic distances from each row of ``pts`` to ``center``."""
    dots = _as_matrix(pts) @ _as_matrix(center)
    if absolute:
        dots = np.abs(dots)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def kernel_values(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> np.ndarray:
    """exp(-d(x, center)^2 * inv_two_sigma_sq) per row x: the one-centre kernel_sums, exp'd."""
    center = _as_matrix(center)[None, :]
    return np.exp(kernel_sums(pts, center, inv_two_sigma_sq, absolute=absolute))


def kernel_total(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> float:
    """Sum of kernel_values over all rows of ``pts``."""
    return float(kernel_values(pts, center, inv_two_sigma_sq, absolute=absolute).sum())


def kernel_sums(eval_pts, support, inv_two_bw_sq: float, *, absolute: bool = False) -> np.ndarray:
    """Log of the per-row kernel sums of ``eval_pts`` against ``support``."""
    eval_pts = _as_matrix(eval_pts)
    support = _as_matrix(support)
    n = eval_pts.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * max(1, support.shape[0])))
    out = np.empty(n)
    for start in range(0, n, rows):
        pts = eval_pts[start:start + rows]
        block = _log_terms(pts @ support.T, inv_two_bw_sq, absolute)
        sums = np.exp(block, out=block).sum(axis=1)
        low = sums < support.shape[0] * _LOW_SUM
        np.log(sums, out=out[start:start + rows], where=~low)
        if low.any():
            terms = _log_terms(pts[low] @ support.T, inv_two_bw_sq, absolute)
            top = terms.max(axis=1)
            terms -= top[:, None]
            out[start:start + rows][low] = top + np.log(np.exp(terms, out=terms).sum(axis=1))
    return out


def cell_means(features, labels, c: int, *, sign_align: bool = False) -> np.ndarray:
    """Streaming mean recursion m_{k+1} = geodesic(m_k, x_{k+1}, 1/(k+1)) of
    every (network, class) cell at once: (m, c, d) means of the equal-width
    tables ``features`` grouped by ``labels`` in [0, c).

    Each class takes its rows in ingestion order. Step k gathers the k-th row
    of every class that still has one, from every network, and moves those
    means together; no table is padded, stacked or reordered. A class with no
    rows gets a NaN mean. ``sign_align`` flips each incoming sample to the
    hemisphere of the running mean (subspace data, where x and -x are the
    same point). Antipodal samples make a mean non-finite.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=c)
    starts = np.cumsum(counts) - counts
    order = np.argsort(labels, kind="stable")
    means = np.full((len(features), c, features[0].shape[1]), np.nan)
    for k in range(int(counts.max(initial=0))):
        live = np.flatnonzero(counts > k)
        x = np.stack([f[order[starts[live] + k]] for f in features])
        if k == 0:
            means[:, live] = x
            continue
        m = means[:, live]
        dot = np.einsum("mad,mad->ma", m, x)
        if sign_align:
            flip = dot < 0.0
            x[flip] *= -1.0
            dot[flip] *= -1.0
        u = x - dot[..., None] * m
        sin_theta = np.sqrt(np.einsum("mad,mad->ma", u, u))
        # the angle from atan2(||u||, dot) stays accurate near coincident points
        theta = np.arctan2(sin_theta, dot)
        t = theta / (k + 1.0)
        # an antipodal sample has sin_theta = 0 at theta = pi: its mean turns NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.cos(t)[..., None] * m + (np.sin(t) / sin_theta)[..., None] * u
            step /= np.sqrt(np.einsum("mad,mad->ma", step, step))[..., None]
        means[:, live] = np.where((theta < 1e-14)[..., None], m, step)
    return means

