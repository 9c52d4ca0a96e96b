"""Hot numeric kernels: squared arc distances, Gaussian kernel sums, and the
incremental mean recursion, in numpy.

``squared_arcs`` turns dot products into squared arc distances;
``absolute=True`` switches the distance from the sphere arc length
arccos(<x,y>) to the subspace angle arccos(|<x,y>|) used on Gr(1, d).
``_log_row_sums`` is the one reduction of kernel terms: it forms
exp(-d^2 * inv_two_sigma_sq) from a few rows of squared distances at a time,
at most ``_CHUNK_BYTES`` of terms, and reduces each row with numpy's pairwise
summation over contiguous memory. Support sets can reach 1e4-1e5 terms of
wildly varying magnitude; all terms are positive, so there is no
cancellation, and the relative error of the pairwise sum is
O(log2(n) * eps) (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., ch. 4): about 1.6e-15 at 1e4 terms. Only a row so small that
underflowed terms could move its sum by an ulp is shifted, as
top + log(sum(exp(a - top))) over its kept distances (Blanchard, Higham &
Higham, IMA J. Numer. Anal. 2021).

``kernel_sums`` returns the log of each evaluation row's kernel sum against a
support set; the one-centre ``kernel_values`` and ``kernel_total`` are linear
adapters over it. It forms the dot products of ``_CHUNK_BYTES`` of rows at a
time and reduces them through ``_log_row_sums``. The split changes no row's
summation order, but BLAS may round a dot product differently in the last
bit for another chunk shape.

``class_log_sums`` is the kernel work of a KDE fit: each network's training
rows against each class's own rows as support. It computes the squared arc
distances of every class pair once, as one block that serves both cells of
the pair, in one buffer that every pair reuses, and reduces it through
``_log_row_sums`` in both directions. A pair whose block would exceed
``_BLOCK_BYTES`` goes through ``kernel_sums`` in both directions. Its sums
equal ``kernel_sums``' to within the rounding of the dot products, which
BLAS forms in other shapes. ``class_selectors`` picks each class's rows: a
slice, so a view, when the rows are grouped by class, else an index array.

``cell_means`` is the one implementation of the mean recursion. It moves
every (network, class) cell of a fit in the same step, so a fit takes as
many numpy steps as its largest class has rows.
"""

from __future__ import annotations

import numpy as np

# Largest class-pair distance block class_log_sums allocates. 8 MiB holds
# two classes of 1000 rows in one block.
_BLOCK_BYTES = 8 << 20

# Dot products kernel_sums forms, and kernel terms _log_row_sums forms, at a time.
_CHUNK_BYTES = 256 << 10

# a row sum below |support| * 2^-1022 / eps may have lost an ulp to underflow
_LOW_SUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _as_matrix(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def squared_arcs(dots, absolute):
    """Turn dot products into squared arc distances arccos(dots)^2, in place."""
    if absolute:
        np.abs(dots, out=dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    np.arccos(dots, out=dots)
    return np.square(dots, out=dots)


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
    rows = max(1, _CHUNK_BYTES // (8 * max(1, support.shape[0])))
    out = np.empty(eval_pts.shape[0])
    for start in range(0, len(out), rows):
        d2 = squared_arcs(eval_pts[start:start + rows] @ support.T, absolute)
        out[start:start + rows] = _log_row_sums(d2, inv_two_bw_sq)
    return out


def _log_row_sums(d2, inv_two_bw_sq: float) -> np.ndarray:
    """Log of sum_y exp(-d2[r, y] * inv_two_bw_sq) for each row r of the
    squared distances ``d2``, which may be a transposed view. The terms of a
    few rows at a time go into one C-ordered buffer, so every row is one
    pairwise sum over contiguous memory; a low row is shifted by its largest
    log term, from its kept distances."""
    n, s = d2.shape
    rows = max(1, _CHUNK_BYTES // (8 * max(1, s)))
    buf = np.empty((min(rows, n), s))
    neg = -float(inv_two_bw_sq)
    out = np.empty(n)
    for start in range(0, n, rows):
        block = d2[start:start + rows]
        terms = np.multiply(block, neg, out=buf[:len(block)])
        sums = np.exp(terms, out=terms).sum(axis=1)
        low = sums < s * _LOW_SUM
        part = out[start:start + rows]
        np.log(sums, out=part, where=~low)
        if low.any():
            terms = np.multiply(block[low], neg, out=buf[:np.count_nonzero(low)])
            top = terms.max(axis=1)
            terms -= top[:, None]
            part[low] = top + np.log(np.exp(terms, out=terms).sum(axis=1))
    return out


def class_selectors(labels, c: int) -> list:
    """The rows of each class j in [0, c) of ``labels``: a slice when they
    are contiguous, so that indexing a table with it is a view, and their
    index array otherwise (a gather, a copy)."""
    labels = np.asarray(labels)
    selectors = []
    for j in range(c):
        rows = np.flatnonzero(labels == j)
        if rows.size and rows[-1] - rows[0] == rows.size - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        selectors.append(rows)
    return selectors


def class_log_sums(points, labels, inv_two_bw_sq, *, absolute: bool = False) -> np.ndarray:
    """(n, c) log kernel sums of every row of ``points`` against the rows of
    each class j in [0, c) as support, at the inverse width
    ``inv_two_bw_sq[j]``: column j is ``kernel_sums(points,
    points[labels == j], inv_two_bw_sq[j])`` up to the rounding of the dot
    products. Every class needs at least one row. A class's rows are read
    through its ``class_selectors`` entry: a view when they are contiguous
    (rows grouped by class), else a copy.

    The distances of class k's rows to class j's, k <= j, are one block that
    gives cell j its rows of class k and, transposed, cell k its rows of
    class j. A block over ``_BLOCK_BYTES`` goes through ``kernel_sums``."""
    points = _as_matrix(points)
    inv = [float(v) for v in inv_two_bw_sq]
    rows = class_selectors(labels, len(inv))
    classes = [points[r] for r in rows]
    out = np.empty((points.shape[0], len(inv)))
    # every shared block in turn, so one block is alive at a time
    blocks = np.empty(min(_BLOCK_BYTES // 8, max(map(len, classes)) ** 2))
    for k, (rows_k, x_k) in enumerate(zip(rows, classes)):
        for j in range(k, len(inv)):
            x_j = classes[j]
            if 8 * len(x_k) * len(x_j) > _BLOCK_BYTES:
                out[rows_k, j] = kernel_sums(x_k, x_j, inv[j], absolute=absolute)
                if j != k:
                    out[rows[j], k] = kernel_sums(x_j, x_k, inv[k], absolute=absolute)
                continue
            d2 = blocks[:len(x_k) * len(x_j)].reshape(len(x_k), len(x_j))
            squared_arcs(np.matmul(x_k, x_j.T, out=d2), absolute)
            out[rows_k, j] = _log_row_sums(d2, inv[j])
            if j != k:
                out[rows[j], k] = _log_row_sums(d2.T, inv[k])
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

