"""Per-network, per-class densities on the sphere or Grassmannian.

Both families are one object, a normalized Gaussian kernel sum over a matrix
of centres, evaluated by `_kernels.kernel_sums` alone:

    p(x) = C / |centres| * sum_{y in centres} exp(-d^2(x, y) / (2 w^2)).

Parametric model: a Gaussian in the geodesic distance, the one-centre case
(centre mu = the incremental Fréchet mean, width sigma = RMS distance to it).
Non-parametric model: a kernel density estimate whose centres are the
retained class features F, width b = (4 sigma^5 / (3 |F|))^(1/5) (Silverman).

C is the *empirical* normalizer: C / |centres| inverts the kernel mass the
centres give the network's whole training set (all classes). For the
Gaussian that is `estimators.empirical_normalizer`; the analytic sphere
constant is intractable and never needed. A KDE support point evaluates its
own kernel term (self-inclusion, no leave-one-out), exactly as the
normalizer's double sum is written. Densities are read through `pdf` and
`pdf_batch`; there are no separate `gaussian_pdf`/`kde_pdf` functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


class _KernelSum:
    """What both families share: validation, and the density as
    normalizer/|centres| times the kernel sums over ``centres`` at ``width``."""

    _width_name = "width"

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ValueError(f"{self._width_name} must be positive")
        if not (np.isfinite(self.normalizer) and self.normalizer > 0.0):
            raise ValueError("normalizer must be finite and positive")

    @property
    def dim(self) -> int:
        return self.centres.shape[1]

    def pdf(self, x) -> float:
        return float(self.pdf_batch(point_vector(x)[None, :])[0])

    def pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(
                f"point of dimension {pts.shape[1]} against density of dimension {self.dim}"
            )
        return (self.normalizer / len(self.centres)) * self._sums(pts)

    def _sums(self, pts) -> np.ndarray:
        return _kernels.kernel_sums(
            pts, self.centres, 1.0 / (2.0 * self.width**2), absolute=self.space == GRASSMANN
        )


@dataclass(frozen=True)
class GaussianDensity(_KernelSum):
    """Gaussian in geodesic distance with an empirical normalizer: the
    one-centre kernel sum at mu with width sigma."""

    mu: object
    sigma: float
    normalizer: float
    _width_name = "sigma"

    @property
    def space(self) -> str:
        return infer_space(self.mu)

    @property
    def centres(self) -> np.ndarray:
        return point_vector(self.mu)[None, :]

    @property
    def width(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class KernelDensity(_KernelSum):
    """Gaussian-kernel density over a retained class sample set."""

    support: SampleSet
    bandwidth: float
    normalizer: float
    _width_name = "bandwidth"

    @property
    def space(self) -> str:
        return self.support.space

    @property
    def centres(self) -> np.ndarray:
        return self.support.points

    @property
    def width(self) -> float:
        return self.bandwidth


def silverman_bandwidth(sigma_hat: float, n: int) -> float:
    """Silverman's rule of thumb: (4 sigma_hat^5 / (3 n))^(1/5)."""
    return (4.0 * sigma_hat**5 / (3.0 * n)) ** 0.2


def _normalized(density, all_network_train, out: np.ndarray | None):
    """``density`` with its empirical normalizer: |centres| over the kernel
    mass the centres give every training row of the network. When ``out`` is
    given, the fitted density at each of those rows is written into it from
    the same sums, bit-equal to ``pdf_batch(all_network_train)``."""
    train = stack_points(all_network_train)
    if train.size == 0:
        raise EmptySampleSet("the normalizer needs a non-empty training set")
    sums = density._sums(train)
    normalizer = len(density.centres) / float(sums.sum())
    if out is not None:
        np.multiply(normalizer / len(density.centres), sums, out=out)
    return replace(density, normalizer=normalizer)


def fit_gaussian(
    class_samples: SampleSet,
    all_network_train,
    *,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    out: np.ndarray | None = None,
) -> GaussianDensity:
    """Estimate (mu, sigma, C) for one (network, class) cell.

    ``all_network_train`` is the embedded output of the same network on the
    whole training set (all classes); it feeds only the normalizer. When
    ``out`` is given, the fitted density at each training row is written
    into it (see ``_normalized``).
    """
    mu = incremental_frechet_mean(class_samples)
    sigma = sample_sigma(class_samples, mu, sigma_floor=sigma_floor)
    return _normalized(GaussianDensity(mu, sigma, 1.0), all_network_train, out)


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
    ``out`` is filled as in ``fit_gaussian``.
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
    return _normalized(KernelDensity(support, bandwidth, 1.0), all_network_train, out)
