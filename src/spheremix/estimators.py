"""Estimators for the per-network, per-class density parameters.

The location estimate is the incremental Fréchet mean recursion

    m_1 = x_1,    m_{k+1} = geodesic(m_k, x_{k+1}, 1/(k+1)),

which approximates argmin_mu (1/n) sum_k d^2(x_k, mu) without running an
optimization. It is order-dependent and runs in ingestion order. Existence and
uniqueness of the mean hold for samples inside an open hemisphere, which
square-root-embedded data (positive quadrant) always satisfies; an antipodal
sample makes the recursion's mean non-finite, and ``mean_point`` turns that
into ``AntipodalPoints``.

The recursion has one implementation, `_kernels.cell_means`, which runs it
for every (network, class) cell of a fit at once (``ensemble.fit_densities``
calls it once per feature width). ``incremental_frechet_mean`` is its
one-cell case.

Dispersion is the RMS geodesic distance to the mean, floored at SIGMA_FLOOR
to keep the downstream 1/sigma^2 finite. The empirical normalizer, which
makes unequal class dispersions comparable, is fitted with each density
(``density.normalized``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._points import GRASSMANN, SPHERE, infer_space, make_point, point_vector, stack_points
from .errors import AntipodalPoints, EmptySampleSet

SIGMA_FLOOR = 1e-3


@dataclass(frozen=True)
class SampleSet:
    """Embedded outputs of one network restricted to one class."""

    points: np.ndarray
    space: str = SPHERE
    network_id: int = 0
    class_id: int = 0

    def __post_init__(self):
        if self.space not in (SPHERE, GRASSMANN):
            raise ValueError(f"unknown space {self.space!r}")
        pts = stack_points(self.points)
        if pts.size == 0:
            raise EmptySampleSet(
                f"no samples for network {self.network_id}, class {self.class_id}"
            )
        if not np.isfinite(pts).all():
            raise ValueError(f"non-finite sample: network {self.network_id}, class {self.class_id}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points, network_id: int = 0, class_id: int = 0) -> "SampleSet":
        seq = list(points)
        if not seq:
            raise EmptySampleSet(f"no samples for network {network_id}, class {class_id}")
        return cls(stack_points(seq), infer_space(seq[0]), network_id, class_id)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def mean_point(coords, space: str):
    """A mean from the recursion as a point of ``space``, or AntipodalPoints
    when the recursion met antipodal samples and left it non-finite."""
    if not np.all(np.isfinite(coords)):
        raise AntipodalPoints("sample set is not contained in an open hemisphere")
    return make_point(coords, space)


def incremental_frechet_mean(samples: SampleSet):
    """Run the streaming mean recursion over the sample set.

    Grassmann sample sets are handled by flipping each incoming representative
    into the hemisphere of the running mean before the geodesic step.
    """
    labels = np.zeros(len(samples), dtype=np.int64)
    m = _kernels.cell_means([samples.points], labels, 1, sign_align=samples.space == GRASSMANN)
    return mean_point(m[0, 0], samples.space)


def sample_sigma(samples: SampleSet, mu) -> float:
    """RMS geodesic distance of the samples to mu, floored at SIGMA_FLOOR."""
    d2 = _kernels.squared_arcs(samples.points @ point_vector(mu), samples.space == GRASSMANN)
    sigma = math.sqrt(math.fsum(d2) / len(d2))
    return max(sigma, SIGMA_FLOOR)
