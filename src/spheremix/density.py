"""Per-network, per-class densities on the sphere or Grassmannian.

Every density is one `KernelDensity`, a normalized Gaussian kernel sum over
a support set, evaluated as a log density by `_kernels.kernel_sums` alone:

    log p(x) = log(C / |support|) + log sum_{y in support} exp(-d^2(x, y) / (2 w^2)).

Parametric model: a Gaussian in the geodesic distance, the one-point support
that `GaussianDensity` builds (mu = the incremental Fréchet mean, width
sigma = RMS distance to it). Non-parametric model: a kernel density estimate
whose support is all the class features F, width b = (4 sigma^5 / (3 |F|))^(1/5)
(Silverman). `KernelDensity` checks every cell, fitted or loaded: a width w
must be positive with 2 w^2 and its inverse finite, and a normalizer finite
and positive.

C is the *empirical* normalizer: C / |support| inverts the kernel mass the
support gives the network's whole training set (all classes). `normalized`
alone turns those log kernel sums into C, whoever computed them, and
`empirical_normalizer` is its one-point case; the analytic sphere constant
is intractable and never needed. A KDE support point evaluates its own
kernel term (self-inclusion, no leave-one-out), exactly as the normalizer's
double sum is written. `pdf`/`pdf_batch` are the exp of `log_pdf_batch`,
which stays finite where a density underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._points import GRASSMANN, infer_space, point_vector, stack_points
from .errors import DimensionMismatch, EmptySampleSet, NumericError
from .estimators import SampleSet, incremental_frechet_mean, sample_sigma


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian-kernel density: normalizer/|support| times the kernel sums
    over the ``support`` points at width ``bandwidth``. Every model cell is
    one; ``GaussianDensity`` builds the one-point case."""

    support: SampleSet
    bandwidth: float
    normalizer: float

    def __post_init__(self):
        w = self.bandwidth
        try:
            ok = w > 0.0 and 0.0 < 1.0 / (2.0 * w**2) < math.inf
        except ArithmeticError:  # 2 w^2 overflowed, or underflowed to 0
            ok = False
        if not ok:
            raise ValueError(f"width {w!r} must be positive, and 2 width^2 and its inverse finite")
        if not (np.isfinite(self.normalizer) and self.normalizer > 0.0):
            raise ValueError("normalizer must be finite and positive")

    @property
    def dim(self) -> int:
        return self.support.dim

    def pdf(self, x) -> float:
        return float(self.pdf_batch(point_vector(x)[None, :])[0])

    def pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf_batch(pts))

    def log_pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(
                f"point of dimension {pts.shape[1]} against density of dimension {self.dim}")
        return math.log(self.normalizer / len(self.support)) + self._log_sums(pts)

    @property
    def inv_two_bw_sq(self) -> float:
        return 1.0 / (2.0 * self.bandwidth**2)

    def _log_sums(self, pts) -> np.ndarray:
        return _kernels.kernel_sums(pts, self.support.points, self.inv_two_bw_sq,
                                    absolute=self.support.space == GRASSMANN)


def GaussianDensity(mu, sigma: float, normalizer: float) -> KernelDensity:
    """Gaussian in geodesic distance with an empirical normalizer: the
    one-point KernelDensity at mu with width sigma."""
    return KernelDensity(SampleSet(point_vector(mu)[None, :], infer_space(mu)), sigma, normalizer)


def silverman_bandwidth(sigma_hat: float, n: int) -> float:
    """Silverman's rule of thumb: (4 sigma_hat^5 / (3 n))^(1/5)."""
    return (4.0 * sigma_hat**5 / (3.0 * n)) ** 0.2


def normalized(density, log_sums):
    """``density`` with its empirical normalizer: |support| over the kernel
    mass exp(``log_sums``).sum(), the log kernel sums its support gives every
    training row of the network. ``log_sums`` becomes, in place, the fitted
    log density at those rows. A mass with no finite inverse (one that
    underflowed to 0) is NumericError."""
    mass = float(np.exp(log_sums).sum())
    normalizer = len(density.support) / mass if mass > 0.0 else math.inf
    if not math.isfinite(normalizer):
        raise NumericError(
            f"no finite normalizer: width {density.bandwidth!r}, kernel mass {mass!r}")
    log_sums += math.log(normalizer / len(density.support))
    return replace(density, normalizer=normalizer)


def _normalized(density, all_network_train):
    """``normalized`` over the support's own kernel sums at the training rows."""
    train = stack_points(all_network_train)
    if train.size == 0:
        raise EmptySampleSet("the normalizer needs a non-empty training set")
    return normalized(density, density._log_sums(train))


def empirical_normalizer(all_train_points, mu, sigma: float) -> float:
    """Inverse kernel mass of the unnormalized Gaussian at mu over the whole
    training set of a network: [sum_I exp(-d^2(x_I, mu)/2 sigma^2)]^-1."""
    return _normalized(GaussianDensity(mu, sigma, 1.0), all_train_points).normalizer


def gaussian_cell(class_samples: SampleSet, mu) -> KernelDensity:
    """The unnormalized Gaussian of one cell: at the Fréchet mean ``mu``,
    with the RMS distance to it as width."""
    return GaussianDensity(mu, sample_sigma(class_samples, mu), 1.0)


def kde_cell(class_samples: SampleSet, mu) -> KernelDensity:
    """The unnormalized kernel density of one cell: every class sample a
    support point, at Silverman's width about the Fréchet mean ``mu``."""
    bandwidth = silverman_bandwidth(sample_sigma(class_samples, mu), len(class_samples))
    return KernelDensity(class_samples, bandwidth, 1.0)


def fit_gaussian(class_samples: SampleSet, all_network_train) -> KernelDensity:
    """Fit (mu, sigma, C) for one (network, class) cell on its own; the
    network's whole training set ``all_network_train`` feeds only C."""
    return _normalized(gaussian_cell(class_samples, incremental_frechet_mean(class_samples)),
                       all_network_train)


def fit_kde(class_samples: SampleSet, all_network_train) -> KernelDensity:
    """Fit the kernel density of one (network, class) cell on its own, as
    ``fit_gaussian`` does."""
    return _normalized(kde_cell(class_samples, incremental_frechet_mean(class_samples)),
                       all_network_train)
