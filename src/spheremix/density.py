"""Per-network, per-class densities on the sphere or Grassmannian.

Parametric model: a Gaussian in the geodesic distance,

    p(x) = C * exp(-d^2(x, mu) / (2 sigma^2)),

with C the *empirical* normalizer of `estimators.empirical_normalizer` (the
analytic sphere constant is intractable and is never needed: training and
prediction only ever use the empirical one).

Non-parametric model: a kernel density estimate over the retained class
features,

    p(x) = C(b) / |F| * sum_{y in F} exp(-d^2(x, y) / (2 b^2)),

with bandwidth b from Silverman's rule b = (4 sigma^5 / (3 |F|))^(1/5) and
C(b) inverting the mean kernel mass over the network's full training set.
A support point evaluates its own kernel term (self-inclusion, no
leave-one-out), exactly as the normalizer's double sum is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._points import GRASSMANN, infer_space, point_vector, stack_points
from .errors import DimensionMismatch, EmptySampleSet
from .estimators import (
    DEFAULT_SIGMA_FLOOR,
    SampleSet,
    empirical_normalizer,  # not called here; pipebench/tracing.py patches this name
    incremental_frechet_mean,
    sample_sigma,
)


def _check_dim(have: int, want: int):
    if have != want:
        raise DimensionMismatch(f"point of dimension {have} against density of dimension {want}")


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian in geodesic distance with an empirical normalizer."""

    mu: object
    sigma: float
    normalizer: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not (np.isfinite(self.normalizer) and self.normalizer > 0.0):
            raise ValueError("normalizer must be finite and positive")

    @property
    def space(self) -> str:
        return infer_space(self.mu)

    @property
    def dim(self) -> int:
        return point_vector(self.mu).shape[0]

    def pdf(self, x) -> float:
        return float(self.pdf_batch(point_vector(x)[None, :])[0])

    def pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        _check_dim(pts.shape[1], self.dim)
        values = _kernels.kernel_values(
            pts, point_vector(self.mu), 1.0 / (2.0 * self.sigma**2),
            absolute=self.space == GRASSMANN,
        )
        return self.normalizer * values


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian-kernel density over a retained class sample set."""

    support: SampleSet
    bandwidth: float
    normalizer: float

    def __post_init__(self):
        if not (self.bandwidth > 0.0):
            raise ValueError("bandwidth must be positive")
        if not (np.isfinite(self.normalizer) and self.normalizer > 0.0):
            raise ValueError("normalizer must be finite and positive")

    @property
    def space(self) -> str:
        return self.support.space

    @property
    def dim(self) -> int:
        return self.support.dim

    def pdf(self, x) -> float:
        return float(self.pdf_batch(point_vector(x)[None, :])[0])

    def pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        _check_dim(pts.shape[1], self.dim)
        sums = _kernels.kernel_sums(
            pts, self.support.points, 1.0 / (2.0 * self.bandwidth**2),
            absolute=self.space == GRASSMANN,
        )
        return (self.normalizer / len(self.support)) * sums


def gaussian_pdf(density: GaussianDensity, x) -> float:
    """normalizer * exp(-d^2(x, mu) / (2 sigma^2)); strictly positive."""
    return density.pdf(x)


def kde_pdf(density: KernelDensity, x) -> float:
    """normalizer/|support| times the kernel sum over all support points."""
    return density.pdf(x)


def silverman_bandwidth(sigma_hat: float, n: int) -> float:
    """Silverman's rule of thumb: (4 sigma_hat^5 / (3 n))^(1/5)."""
    return (4.0 * sigma_hat**5 / (3.0 * n)) ** 0.2


def _train_matrix(all_network_train) -> np.ndarray:
    train = stack_points(all_network_train)
    if train.size == 0:
        raise EmptySampleSet("the normalizer needs a non-empty training set")
    return train


def fit_gaussian(
    class_samples: SampleSet,
    all_network_train,
    *,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    out: np.ndarray | None = None,
) -> GaussianDensity:
    """Estimate (mu, sigma, C) for one (network, class) cell.

    ``all_network_train`` is the embedded output of the same network on the
    whole training set (all classes); it feeds only the normalizer, the
    inverse of the kernel mass those rows give the unnormalized Gaussian
    (`estimators.empirical_normalizer`). When ``out`` is given, the fitted
    density at each training row is written into it, from the same kernel
    values, bit-equal to ``pdf_batch(all_network_train)``.
    """
    mu = incremental_frechet_mean(class_samples)
    sigma = sample_sigma(class_samples, mu, sigma_floor=sigma_floor)
    values = _kernels.kernel_values(
        _train_matrix(all_network_train), point_vector(mu), 1.0 / (2.0 * sigma**2),
        absolute=class_samples.space == GRASSMANN,
    )
    normalizer = 1.0 / float(values.sum())
    if out is not None:
        np.multiply(normalizer, values, out=out)
    return GaussianDensity(mu=mu, sigma=sigma, normalizer=normalizer)


def fit_kde(
    class_samples: SampleSet,
    all_network_train,
    *,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    max_support: int = 0,
    seed: int = 0,
    out: np.ndarray | None = None,
) -> KernelDensity:
    """Fit the kernel density for one (network, class) cell.

    The full class sample set is retained as support by default;
    ``max_support`` > 0 caps it by a seeded subsample (dispersion is still
    estimated on the full set, the bandwidth's |F| is the retained size).
    When ``out`` is given, the fitted density at each training row is
    written into it from the kernel sums that set the normalizer, bit-equal
    to ``pdf_batch(all_network_train)``.
    """
    mu = incremental_frechet_mean(class_samples)
    sigma = sample_sigma(class_samples, mu, sigma_floor=sigma_floor)
    support = class_samples
    if 0 < max_support < len(class_samples):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(class_samples), size=max_support, replace=False))
        support = SampleSet(
            class_samples.points[keep], class_samples.space,
            class_samples.network_id, class_samples.class_id,
        )
    bandwidth = silverman_bandwidth(sigma, len(support))
    sums = _kernels.kernel_sums(
        _train_matrix(all_network_train), support.points, 1.0 / (2.0 * bandwidth**2),
        absolute=support.space == GRASSMANN,
    )
    normalizer = len(support) / float(sums.sum())
    if out is not None:
        np.multiply(normalizer / len(support), sums, out=out)
    return KernelDensity(support=support, bandwidth=bandwidth, normalizer=normalizer)
