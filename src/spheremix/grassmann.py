"""Geometry of Gr(1, d): lines through the origin in R^d.

Raw feature vectors of differing dimension and scale become comparable
points here, since f and lambda*f (lambda != 0) map to the same line. Each
line is stored as a sign-canonical unit representative: first nonzero entry
positive, so x and -x hash to the same stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroFeature

_ZERO_TOL = 1e-12


def _canonicalize(rep: np.ndarray) -> np.ndarray:
    nz = np.nonzero(rep)[0]
    if nz.size and rep[nz[0]] < 0.0:
        rep = -rep
    return rep


@dataclass(frozen=True)
class GrassmannPoint:
    """A 1-dimensional subspace of R^d as a sign-canonical unit vector."""

    rep: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rep, dtype=np.float64)
        nrm = np.linalg.norm(r)
        if not np.isfinite(nrm):
            raise ValueError("a line needs a finite vector")
        if nrm <= _ZERO_TOL:
            raise ZeroFeature("cannot span a line with a (near-)zero vector")
        if abs(nrm - 1.0) > 1e-14:
            # normalize only when actually off: stored representatives round-trip bit-exactly
            r = r / nrm
        r = _canonicalize(r.copy())
        r.setflags(write=False)
        object.__setattr__(self, "rep", r)

    @property
    def dim(self) -> int:
        return self.rep.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrassmannPoint) and np.array_equal(self.rep, other.rep)


def gr_embed(f) -> GrassmannPoint:
    """The line spanned by feature vector f; gr_embed(lambda f) == gr_embed(f)."""
    return GrassmannPoint(np.asarray(f, dtype=np.float64))


def gr_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Subspace angle between two lines, in [0, pi/2].

    The general Grassmann distance is ||arccos(diag(Sigma))|| for the SVD
    U Sigma V^T = x^T y; for 1-dim subspaces x^T y is a scalar whose single
    singular value is its absolute value, so this collapses to
    arccos(|<x, y>|) with no SVD call.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"subspaces of R^{x.dim} and R^{y.dim} are not comparable")
    if np.array_equal(x.rep, y.rep):
        # identical stored representatives: exactly the same subspace
        return 0.0
    dot = abs(float(x.rep @ y.rep))
    return math.acos(min(1.0, dot))
