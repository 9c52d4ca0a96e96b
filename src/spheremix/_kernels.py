"""Hot numeric kernels: batched arc distances, Gaussian kernel sums, and the
incremental mean recursion.

Two interchangeable implementations live here. The numba ``@njit`` versions
carry the load by default; a pure-numpy path is selected when numba is
unavailable or when the environment variable ``SPHEREMIX_BACKEND`` says so:

    SPHEREMIX_BACKEND=auto    use numba if importable, else numpy (default)
    SPHEREMIX_BACKEND=numba   require numba, fail at import if missing
    SPHEREMIX_BACKEND=numpy   force the pure-numpy fallback

Support sets can reach 1e4-1e5 terms of wildly varying magnitude. The numba
path sums them with Kahan compensation. The numpy path evaluates a whole
(rows x support) block in place and reduces it with numpy's pairwise
summation, whose relative error for positive terms is O(log2(n) * eps)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4):
about 1.6e-15 at 1e4 terms. Its evaluation rows are split into blocks of at
most ``_BLOCK_BYTES``. The split changes no row's summation order, but BLAS
may round a dot product differently in the last bit for another block shape.
``absolute=True`` switches the distance from the sphere arc length
arccos(<x,y>) to the subspace angle arccos(|<x,y>|) used on Gr(1, d).
"""

from __future__ import annotations

import math
import os

import numpy as np

_CHOICE = os.environ.get("SPHEREMIX_BACKEND", "auto").strip().lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"SPHEREMIX_BACKEND must be one of auto|numba|numpy, got {_CHOICE!r}"
    )

_have_numba = False
if _CHOICE in ("auto", "numba"):
    try:
        from numba import njit

        _have_numba = True
    except ImportError:
        if _CHOICE == "numba":
            raise
_USE_NUMBA = _have_numba and _CHOICE != "numpy"


def backend() -> str:
    """Name of the active kernel backend, 'numba' or 'numpy'."""
    return "numba" if _USE_NUMBA else "numpy"


def _as_matrix(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# -- pure-numpy implementations ----------------------------------------------

# Largest dense (rows x support) block one numpy kernel_sums step allocates.
# 8 MiB holds a 2000-row evaluation against 500 support points in one block.
_BLOCK_BYTES = 8 << 20


def _np_arc_distances(pts, center, absolute):
    dots = pts @ center
    if absolute:
        dots = np.abs(dots)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _np_kernel_terms(dots, inv_two_sigma_sq, absolute):
    """Turn dot products into exp(-arccos(dots)^2 * inv_two_sigma_sq), in place."""
    if absolute:
        np.abs(dots, out=dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    np.arccos(dots, out=dots)
    np.square(dots, out=dots)
    # multiplying by the negated factor equals negating the product exactly
    np.multiply(dots, -inv_two_sigma_sq, out=dots)
    return np.exp(dots, out=dots)


def _np_kernel_values(pts, center, inv_two_sigma_sq, absolute):
    return _np_kernel_terms(pts @ center, inv_two_sigma_sq, absolute)


def _np_kernel_total(pts, center, inv_two_sigma_sq, absolute):
    return float(_np_kernel_values(pts, center, inv_two_sigma_sq, absolute).sum())


def _np_kernel_sums(eval_pts, support, inv_two_bw_sq, absolute):
    n = eval_pts.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * max(1, support.shape[0])))
    out = np.empty(n)
    for start in range(0, n, rows):
        block = eval_pts[start:start + rows] @ support.T
        out[start:start + rows] = _np_kernel_terms(block, inv_two_bw_sq, absolute).sum(axis=1)
    return out


def _np_incremental_mean(pts, sign_align):
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


# -- numba implementations ----------------------------------------------------

if _USE_NUMBA:

    @njit(cache=True)
    def _nb_arc_distances(pts, center, absolute):
        n, d = pts.shape
        out = np.empty(n)
        for i in range(n):
            dot = 0.0
            for k in range(d):
                dot += pts[i, k] * center[k]
            if absolute and dot < 0.0:
                dot = -dot
            if dot > 1.0:
                dot = 1.0
            elif dot < -1.0:
                dot = -1.0
            out[i] = math.acos(dot)
        return out

    @njit(cache=True)
    def _nb_kernel_values(pts, center, inv_two_sigma_sq, absolute):
        n, d = pts.shape
        out = np.empty(n)
        for i in range(n):
            dot = 0.0
            for k in range(d):
                dot += pts[i, k] * center[k]
            if absolute and dot < 0.0:
                dot = -dot
            if dot > 1.0:
                dot = 1.0
            elif dot < -1.0:
                dot = -1.0
            theta = math.acos(dot)
            out[i] = math.exp(-theta * theta * inv_two_sigma_sq)
        return out

    @njit(cache=True)
    def _nb_kernel_total(pts, center, inv_two_sigma_sq, absolute):
        n, d = pts.shape
        total = 0.0
        comp = 0.0
        for i in range(n):
            dot = 0.0
            for k in range(d):
                dot += pts[i, k] * center[k]
            if absolute and dot < 0.0:
                dot = -dot
            if dot > 1.0:
                dot = 1.0
            elif dot < -1.0:
                dot = -1.0
            theta = math.acos(dot)
            term = math.exp(-theta * theta * inv_two_sigma_sq)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    @njit(cache=True)
    def _nb_kernel_sums(eval_pts, support, inv_two_bw_sq, absolute):
        n, d = eval_pts.shape
        s = support.shape[0]
        out = np.empty(n)
        for i in range(n):
            total = 0.0
            comp = 0.0
            for j in range(s):
                dot = 0.0
                for k in range(d):
                    dot += eval_pts[i, k] * support[j, k]
                if absolute and dot < 0.0:
                    dot = -dot
                if dot > 1.0:
                    dot = 1.0
                elif dot < -1.0:
                    dot = -1.0
                theta = math.acos(dot)
                term = math.exp(-theta * theta * inv_two_bw_sq)
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
            out[i] = total
        return out

    @njit(cache=True)
    def _nb_incremental_mean(pts, sign_align):
        n, d = pts.shape
        m = pts[0].copy()
        x = np.empty(d)
        u = np.empty(d)
        for k in range(1, n):
            dot = 0.0
            for q in range(d):
                x[q] = pts[k, q]
                dot += m[q] * x[q]
            if sign_align and dot < 0.0:
                dot = -dot
                for q in range(d):
                    x[q] = -x[q]
            sin_theta = 0.0
            for q in range(d):
                u[q] = x[q] - dot * m[q]
                sin_theta += u[q] * u[q]
            sin_theta = math.sqrt(sin_theta)
            # the angle from atan2(||u||, dot) stays accurate near coincident points
            theta = math.atan2(sin_theta, dot)
            if theta < 1e-14:
                continue
            t = theta / (k + 1.0)
            ct = math.cos(t)
            st = math.sin(t) / sin_theta
            nrm = 0.0
            for q in range(d):
                m[q] = ct * m[q] + st * u[q]
                nrm += m[q] * m[q]
            nrm = math.sqrt(nrm)
            for q in range(d):
                m[q] /= nrm
        return m


# -- public dispatchers --------------------------------------------------------

def arc_distances(pts, center, *, absolute: bool = False) -> np.ndarray:
    """Geodesic distances from each row of ``pts`` to ``center``."""
    pts = _as_matrix(pts)
    center = _as_matrix(center)
    if _USE_NUMBA:
        return _nb_arc_distances(pts, center, absolute)
    return _np_arc_distances(pts, center, absolute)


def kernel_values(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> np.ndarray:
    """exp(-d(x, center)^2 * inv_two_sigma_sq) for each row x of ``pts``."""
    pts = _as_matrix(pts)
    center = _as_matrix(center)
    if _USE_NUMBA:
        return _nb_kernel_values(pts, center, float(inv_two_sigma_sq), absolute)
    return _np_kernel_values(pts, center, float(inv_two_sigma_sq), absolute)


def kernel_total(pts, center, inv_two_sigma_sq: float, *, absolute: bool = False) -> float:
    """Sum of kernel_values over all rows of ``pts``."""
    pts = _as_matrix(pts)
    center = _as_matrix(center)
    if _USE_NUMBA:
        return float(_nb_kernel_total(pts, center, float(inv_two_sigma_sq), absolute))
    return _np_kernel_total(pts, center, float(inv_two_sigma_sq), absolute)


def kernel_sums(eval_pts, support, inv_two_bw_sq: float, *, absolute: bool = False) -> np.ndarray:
    """Per-row kernel sums of ``eval_pts`` against ``support``."""
    eval_pts = _as_matrix(eval_pts)
    support = _as_matrix(support)
    if _USE_NUMBA:
        return _nb_kernel_sums(eval_pts, support, float(inv_two_bw_sq), absolute)
    return _np_kernel_sums(eval_pts, support, float(inv_two_bw_sq), absolute)


def incremental_mean(pts, *, sign_align: bool = False) -> np.ndarray:
    """Streaming mean recursion m_{k+1} = geodesic(m_k, x_{k+1}, 1/(k+1)).

    ``sign_align`` flips each incoming sample to the hemisphere of the
    running mean (subspace data, where x and -x are the same point).
    """
    pts = _as_matrix(pts)
    if _USE_NUMBA:
        return _nb_incremental_mean(pts, sign_align)
    return _np_incremental_mean(pts, sign_align)
