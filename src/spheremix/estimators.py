"""Estimators for the per-network, per-class density parameters.

The location estimate is the incremental Fréchet mean recursion

    m_1 = x_1,    m_{k+1} = geodesic(m_k, x_{k+1}, 1/(k+1)),

which approximates argmin_mu (1/n) sum_k d^2(x_k, mu) without running an
optimization. It is order-dependent; the default order is ingestion order,
with an optional seeded shuffle for reproducible alternatives. Existence and
uniqueness of the mean hold for samples inside an open hemisphere, which
square-root-embedded data (positive quadrant) always satisfies.

Dispersion is the RMS geodesic distance to the mean, floored to keep the
downstream 1/sigma^2 finite. The empirical normalizer inverts the kernel mass
that the unnormalized Gaussian accumulates over the *entire* training set of
a network (all classes), which is what makes unequal class dispersions
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._points import GRASSMANN, SPHERE, infer_space, make_point, point_vector, stack_points
from .errors import AntipodalPoints, EmptySampleSet

DEFAULT_SIGMA_FLOOR = 1e-3


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


def incremental_frechet_mean(samples: SampleSet, order_seed: int | None = None):
    """Run the streaming mean recursion over the sample set.

    Grassmann sample sets are handled by flipping each incoming representative
    into the hemisphere of the running mean before the geodesic step.
    """
    pts = samples.points
    if order_seed is not None:
        order = np.random.default_rng(order_seed).permutation(len(pts))
        pts = pts[order]
    m = _kernels.incremental_mean(pts, sign_align=samples.space == GRASSMANN)
    if not np.all(np.isfinite(m)):
        raise AntipodalPoints("sample set is not contained in an open hemisphere")
    return make_point(m, samples.space)


def sample_sigma(samples: SampleSet, mu, *, sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> float:
    """RMS geodesic distance of the samples to mu, floored at sigma_floor."""
    d = _kernels.arc_distances(
        samples.points, point_vector(mu), absolute=samples.space == GRASSMANN
    )
    sigma = math.sqrt(math.fsum(d * d) / len(d))
    return max(sigma, sigma_floor)


def empirical_normalizer(all_train_points, mu, sigma: float) -> float:
    """Inverse kernel mass of the unnormalized Gaussian at mu over the whole
    training set of a network: [sum_I exp(-d^2(x_I, mu)/2 sigma^2)]^-1."""
    pts = stack_points(all_train_points)
    if pts.size == 0:
        raise EmptySampleSet("empirical normalizer needs a non-empty training set")
    sums = _kernels.kernel_sums(
        pts, point_vector(mu)[None, :], 1.0 / (2.0 * sigma * sigma),
        absolute=infer_space(mu) == GRASSMANN,
    )
    return 1.0 / float(sums.sum())
