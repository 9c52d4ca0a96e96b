"""Mixture-of-networks model: scoring, prediction, loss, and weight learning.

The ensemble score of class j is s_j = sum_i alpha_i p_ij(x_i) with one
density p_ij per (network, class) cell and simplex weights alpha. Prediction
takes argmax_j. The training loss is the mean squared arc distance between
the one-hot label and the normalized score vector,

    L = (1/n) sum_k arccos( s_{k,y_k} / ||s_k|| )^2,

using that the label has unit norm and that normalizing s leaves the cosine
unchanged.

Weights are learned on the sphere: alpha is lifted to alpha_tilde = sqrt(alpha)
on S^{m-1}, the Euclidean gradient of L(alpha_tilde^2) is projected onto the
tangent space (g - <g, at> at), and each update follows the sphere exponential
map with step -eta, taking absolute values afterwards to stay in the closed
positive quadrant (alpha = alpha_tilde^2 is unchanged by sign flips). Density
parameters are estimated beforehand and held fixed throughout.

Every (n, m, c) pdf tensor is stored sample x class x network, so its
(n*c, m) matrix view is free and each weighted sum over the networks (the
scores, and the gradient's sum over samples and classes) is one
matrix-vector product. A descent step costs one pass of each kind.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._points import GRASSMANN, SPHERE, point_vector
from .density import fit_gaussian, fit_kde
from .errors import (
    DegenerateScores,
    DimensionMismatch,
    EmptyBatch,
    LabelOutOfRange,
    NonFiniteLoss,
)
from .estimators import DEFAULT_SIGMA_FLOOR, SampleSet

PARAMETRIC = "parametric"
KDE = "kde"

_SCORE_EPS = 1e-300


@dataclass(frozen=True)
class MixtureWeights:
    """Simplex weights alpha with their sphere lift alpha_tilde = sqrt(alpha).

    alpha is *derived* as alpha_tilde**2, so the simplex identity
    sum(alpha) == ||alpha_tilde||^2 == 1 holds to full precision.
    """

    alpha_tilde: np.ndarray
    alpha: np.ndarray = field(init=False)

    def __post_init__(self):
        at = np.asarray(self.alpha_tilde, dtype=np.float64)
        if at.ndim != 1 or at.size == 0:
            raise ValueError("alpha_tilde must be a non-empty vector")
        if np.any(at < 0.0):
            raise ValueError("alpha_tilde must be non-negative")
        if abs(np.linalg.norm(at) - 1.0) > 1e-12:
            raise ValueError("alpha_tilde must be a unit vector")
        at = at.copy()
        at.setflags(write=False)
        alpha = at * at
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha_tilde", at)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def uniform(cls, m: int) -> "MixtureWeights":
        return cls(np.full(m, 1.0 / math.sqrt(m)))

    @classmethod
    def from_alpha(cls, alpha) -> "MixtureWeights":
        a = np.asarray(alpha, dtype=np.float64)
        if np.any(a < 0.0) or abs(a.sum() - 1.0) > 1e-9:
            raise ValueError("alpha must be non-negative and sum to 1")
        at = np.sqrt(a)
        return cls(at / np.linalg.norm(at))

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class LabeledBatch:
    """Aligned per-network feature points plus class labels.

    ``features[i]`` is the (n, d_i) matrix of embedded points of network i;
    all networks see the same n samples in the same order.
    """

    features: list
    labels: np.ndarray
    space: str = SPHERE

    def __post_init__(self):
        if self.space not in (SPHERE, GRASSMANN):
            raise ValueError(f"unknown space {self.space!r}")
        feats = [np.ascontiguousarray(f, dtype=np.float64) for f in self.features]
        labels = np.asarray(self.labels, dtype=np.int64)
        if not feats or labels.size == 0:
            raise EmptyBatch("batch has no samples")
        n = feats[0].shape[0]
        for i, f in enumerate(feats):
            if f.ndim != 2 or f.shape[0] != n:
                raise DimensionMismatch(f"network {i} table has {f.shape[0]} rows, expected {n}")
        if labels.shape != (n,):
            raise DimensionMismatch(f"{labels.size} labels for {n} samples")
        if np.any(labels < 0):
            raise LabelOutOfRange("labels must be non-negative")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.features)

    def sample(self, k: int) -> list:
        return [f[k] for f in self.features]


@dataclass(frozen=True)
class EnsembleModel:
    """Fitted ensemble: the m x c density grid plus mixture weights."""

    kind: str
    space: str
    m: int
    c: int
    densities: list
    weights: MixtureWeights
    fit_meta: dict

    def __post_init__(self):
        if self.kind not in (PARAMETRIC, KDE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.space not in (SPHERE, GRASSMANN):
            raise ValueError(f"unknown space {self.space!r}")
        if len(self.densities) != self.m or any(len(row) != self.c for row in self.densities):
            raise ValueError("densities grid must be complete (m rows of c entries)")
        if self.weights.m != self.m:
            raise ValueError("weight count must match network count")
        for i, row in enumerate(self.densities):
            dims = {d.dim for d in row}
            if len(dims) != 1:
                raise DimensionMismatch(f"network {i} densities disagree on dimension")
            if self.space == SPHERE and row[0].dim != self.c:
                raise DimensionMismatch(
                    f"sphere density of dimension {row[0].dim} for {self.c} classes"
                )

    def network_dims(self) -> list:
        return [row[0].dim for row in self.densities]


# -- the pdf tensor and its matrix view ------------------------------------------


def _empty_pdf_tensor(n: int, m: int, c: int) -> np.ndarray:
    """Uninitialized (n, m, c) pdf tensor, stored sample x class x network.

    Its (n*c, m) matrix view ``_pdf_matrix`` is then free, so every weighted
    sum over the networks is one matrix-vector product on that view.
    """
    return np.empty((n, c, m)).transpose(0, 2, 1)


def _pdf_matrix(P: np.ndarray) -> np.ndarray:
    """(n*c, m) matrix of an (n, m, c) pdf tensor; row k*c + j holds p_ij(x_k)
    over the networks i. A view for tensors from ``_empty_pdf_tensor``, a
    single copy for any other layout."""
    n, m, c = P.shape
    return np.ascontiguousarray(P.transpose(0, 2, 1)).reshape(n * c, m)


def _scores(Pm: np.ndarray, alpha: np.ndarray, c: int) -> np.ndarray:
    """(n, c) ensemble scores sum_i alpha_i p_ij(x_k): one pass over ``Pm``."""
    return (Pm @ alpha).reshape(-1, c)


def _row_norms(scores: np.ndarray) -> np.ndarray:
    """||s_k|| of each row of ``scores``. Squares underflow below about
    1.5e-162, so rows whose plain norm falls under _SCORE_EPS are rescaled by
    their maximum first; only an all-zero row keeps norm 0."""
    # np.linalg.norm(scores, axis=1), bit for bit, without its conjugate copy
    norms = np.sqrt(np.add.reduce(scores * scores, axis=1))
    low = norms < _SCORE_EPS
    if low.any():
        s = scores[low]
        top = s.max(axis=1)
        s /= np.where(top > 0.0, top, 1.0)[:, None]
        norms[low] = top * np.sqrt(np.add.reduce(s * s, axis=1))
    return norms


def _check_scores(sizes: np.ndarray):
    """Raise DegenerateScores, naming the first sample, if any per-sample
    score total or norm in ``sizes`` is below _SCORE_EPS."""
    low = sizes < _SCORE_EPS
    if low.any():
        raise DegenerateScores(
            f"all class scores underflowed for sample {int(low.argmax())}"
        )


# -- scoring and prediction ----------------------------------------------------


def pdf_grid(densities, features) -> np.ndarray:
    """(n, m, c) tensor of p_ij(x_i) values for a batch of features, stored
    sample x class x network (see ``_empty_pdf_tensor``)."""
    m = len(densities)
    c = len(densities[0])
    n = features[0].shape[0]
    out = _empty_pdf_tensor(n, m, c)
    for i in range(m):
        fi = features[i]
        if fi.shape[1] != densities[i][0].dim:
            raise DimensionMismatch(
                f"network {i} features have dimension {fi.shape[1]}, "
                f"model expects {densities[i][0].dim}"
            )
        for j in range(c):
            out[:, i, j] = densities[i][j].pdf_batch(fi)
    return out


def _batch_features(model: EnsembleModel, sample) -> list:
    if len(sample) != model.m:
        raise DimensionMismatch(f"{len(sample)} per-network points for m={model.m}")
    return [point_vector(p)[None, :] for p in sample]


def class_scores_batch(model: EnsembleModel, features) -> np.ndarray:
    P = pdf_grid(model.densities, features)
    return _scores(_pdf_matrix(P), model.weights.alpha, model.c)


def class_scores(model: EnsembleModel, sample) -> np.ndarray:
    """Unnormalized per-class scores sum_i alpha_i p_ij(x_i) for one sample."""
    return class_scores_batch(model, _batch_features(model, sample))[0]


def ensemble_probability_batch(model: EnsembleModel, features) -> np.ndarray:
    scores = class_scores_batch(model, features)
    totals = scores.sum(axis=1)
    _check_scores(totals)
    return scores / totals[:, None]


def ensemble_probability(model: EnsembleModel, sample) -> np.ndarray:
    """Scores normalized to a probability vector over the c classes."""
    return ensemble_probability_batch(model, _batch_features(model, sample))[0]


def predict_batch(model: EnsembleModel, features) -> np.ndarray:
    scores = class_scores_batch(model, features)
    _check_scores(scores.sum(axis=1))
    return np.argmax(scores, axis=1)


def predict(model: EnsembleModel, sample) -> int:
    """argmax_j of the class scores; ties go to the smallest class index."""
    return int(predict_batch(model, _batch_features(model, sample))[0])


def label_distance(y: int, p) -> float:
    """Arc distance between the one-hot label y and the direction of p:
    arccos(p_y / ||p||). Zero iff p is supported on y alone."""
    p = np.asarray(p, dtype=np.float64)
    if y < 0 or y >= p.shape[0]:
        raise LabelOutOfRange(f"label {y} outside [0, {p.shape[0]})")
    norm = float(_row_norms(p[None, :])[0])
    if norm < _SCORE_EPS:
        raise DegenerateScores("cannot measure a direction of the zero vector")
    return math.acos(min(1.0, max(0.0, float(p[y]) / norm)))


# -- loss and its gradient on the alpha_tilde sphere ----------------------------


class _Point(NamedTuple):
    """The loss at one alpha_tilde, with what its gradient reuses."""

    at: np.ndarray
    scores: np.ndarray  # (n, c)
    norms: np.ndarray  # ||s_k||
    u: np.ndarray  # cosine s_{k,y_k} / ||s_k||, clipped to [0, 1]
    d: np.ndarray  # arc distance arccos(u)
    loss: float


class _Objective:
    """The batch loss over one pdf tensor, laid out once as its (n*c, m)
    matrix, with the flat row k*c + y_k of each sample's label."""

    def __init__(self, P: np.ndarray, labels):
        n, _, c = P.shape
        self.c = c
        self.Pm = _pdf_matrix(P)
        self.label_rows = np.arange(n) * c + np.asarray(labels, dtype=np.int64)

    def at(self, at: np.ndarray) -> _Point:
        """Scores, norms, cosines and loss at ``at``: one scores pass."""
        scores = _scores(self.Pm, at * at, self.c)
        norms = _row_norms(scores)
        _check_scores(norms)
        u = np.clip(scores.ravel()[self.label_rows] / norms, 0.0, 1.0)
        d = np.arccos(u)
        return _Point(at, scores, norms, u, d, float(np.mean(d * d)))

    def gradient(self, point: _Point, grad_mode: str = "analytic") -> np.ndarray:
        """Tangent-space gradient at ``point``. Analytic: one gradient pass
        over the pdf matrix, reusing the point's scores. Finite-difference:
        central differences of the loss, two scores passes per network."""
        at = point.at
        if grad_mode == "finite-difference":
            g = self._fd_gradient(at)
        else:
            u, d, norms = point.u, point.d, point.norms
            # d(d^2)/du = -2 d / sqrt(1 - u^2); the ratio d/sqrt(1-u^2) -> 1 as u -> 1
            one_minus = 1.0 - u * u
            w = np.where(one_minus > 1e-24, d / np.sqrt(np.maximum(one_minus, 1e-300)), 1.0)
            # dL/ds_k = a_k ((u_k / ||s_k||) s_k - e_{y_k}), with a_k = (2/n) w_k / ||s_k||
            g_scores = (u / norms)[:, None] * point.scores
            g_scores.flat[self.label_rows] -= 1.0
            g_scores *= ((2.0 / norms.shape[0]) * w / norms)[:, None]
            g = 2.0 * at * (g_scores.ravel() @ self.Pm)
        return g - (g @ at) * at

    def _fd_gradient(self, at: np.ndarray, h: float = 1e-6) -> np.ndarray:
        g = np.empty_like(at)
        for i in range(at.shape[0]):
            e = np.zeros_like(at)
            e[i] = h
            g[i] = (self.at(at + e).loss - self.at(at - e).loss) / (2.0 * h)
        return g


def _loss_from_pdf(P: np.ndarray, labels: np.ndarray, alpha_tilde: np.ndarray) -> float:
    return _Objective(P, labels).at(np.asarray(alpha_tilde, dtype=np.float64)).loss


def riemannian_gradient(P, labels, alpha_tilde, *, grad_mode: str = "analytic") -> np.ndarray:
    """Tangent-space gradient of the batch loss at alpha_tilde on S^{m-1}."""
    objective = _Objective(P, labels)
    point = objective.at(np.asarray(alpha_tilde, dtype=np.float64))
    return objective.gradient(point, grad_mode)


def _sphere_step(at: np.ndarray, step: np.ndarray) -> np.ndarray:
    nv = float(np.linalg.norm(step))
    if nv < 1e-300:
        return at
    out = math.cos(nv) * at + math.sin(nv) * (step / nv)
    out = np.abs(out)
    return out / np.linalg.norm(out)


def fit_weights(
    P_train: np.ndarray,
    batch: LabeledBatch,
    *,
    eta: float = 0.1,
    max_iters: int = 5000,
    tol: float = 1e-8,
    grad_mode: str = "analytic",
    backtrack: bool = False,
    seed: int = 0,
):
    """Learn the mixture weights by Riemannian gradient descent on S^{m-1}.

    ``P_train`` is the batch's (n, m, c) pdf tensor, as returned by
    ``fit_densities`` (equal to ``pdf_grid(densities, batch.features)``).
    Starts from the uniform mixture, stops when the relative loss change
    falls below ``tol`` (|dL| <= tol * max(1, L)) or after ``max_iters``
    steps. ``backtrack`` halves an individual step while it would increase
    the loss. Returns (MixtureWeights, fit_meta).
    """
    if eta <= 0.0 or tol <= 0.0 or max_iters < 1:
        raise ValueError("eta and tol must be positive, max_iters >= 1")
    if P_train.ndim != 3 or P_train.shape[:2] != (batch.n, batch.m):
        raise DimensionMismatch(
            f"pdf tensor of shape {P_train.shape} for {batch.n} samples of {batch.m} networks"
        )
    if np.any(batch.labels >= P_train.shape[2]):
        raise LabelOutOfRange(f"labels must lie in [0, {P_train.shape[2]})")
    return fit_weights_from_pdf(
        P_train, batch.labels, eta=eta, max_iters=max_iters, tol=tol,
        grad_mode=grad_mode, backtrack=backtrack, seed=seed,
    )


def fit_weights_from_pdf(
    P: np.ndarray,
    labels: np.ndarray,
    *,
    eta: float = 0.1,
    max_iters: int = 5000,
    tol: float = 1e-8,
    grad_mode: str = "analytic",
    backtrack: bool = False,
    seed: int = 0,
):
    """fit_weights, starting from a precomputed (n, m, c) pdf tensor.

    Each step is one gradient pass at the accepted point, whose scores are
    carried over from when it was a candidate, and one scores pass for the
    next candidate (more only while ``backtrack`` halves the step).
    fit_meta records why descent stopped (``stop_reason``: "tol", or
    "max_iters" when the step cap ended it), the Riemannian gradient norm at
    the returned weights, the loss of the uniform start and the effective
    number of networks 1 / sum(alpha^2).
    """
    objective = _Objective(P, labels)
    m = P.shape[1]
    point = objective.at(np.full(m, 1.0 / math.sqrt(m)))
    uniform_loss = point.loss
    if not np.isfinite(uniform_loss):
        raise NonFiniteLoss(f"initial loss is {uniform_loss}")
    iterations = 0
    # a single network has nothing to learn: its gradient is zero
    stop_reason = "tol" if m == 1 else "max_iters"
    if m > 1:
        for _ in range(max_iters):
            grad = objective.gradient(point, grad_mode)
            candidate = objective.at(_sphere_step(point.at, -eta * grad))
            if backtrack:
                step_eta = eta
                while candidate.loss > point.loss and step_eta > 1e-12:
                    step_eta *= 0.5
                    candidate = objective.at(_sphere_step(point.at, -step_eta * grad))
            if not np.isfinite(candidate.loss):
                raise NonFiniteLoss("loss became non-finite; reduce eta")
            converged = abs(candidate.loss - point.loss) <= tol * max(1.0, candidate.loss)
            point = candidate
            iterations += 1
            if converged:
                stop_reason = "tol"
                break
    weights = MixtureWeights(point.at)
    meta = {
        "eta": float(eta),
        "iterations_run": iterations,
        "final_loss": float(point.loss),
        "seed": int(seed),
        "stop_reason": stop_reason,
        "grad_norm": float(np.linalg.norm(objective.gradient(point, grad_mode))),
        "uniform_loss": float(uniform_loss),
        "effective_networks": float(1.0 / np.sum(weights.alpha * weights.alpha)),
    }
    return weights, meta


def loss(model: EnsembleModel, batch: LabeledBatch) -> float:
    """Mean squared label distance of the ensemble over the batch."""
    _check_batch(model, batch)
    P = pdf_grid(model.densities, batch.features)
    return _loss_from_pdf(P, batch.labels, model.weights.alpha_tilde)


# -- fitting and evaluation ------------------------------------------------------


def _check_batch(model: EnsembleModel, batch: LabeledBatch):
    if batch.m != model.m:
        raise DimensionMismatch(f"batch has {batch.m} networks, model has {model.m}")
    if np.any(batch.labels >= model.c):
        raise LabelOutOfRange(f"labels must lie in [0, {model.c})")


def fit_densities(
    batch: LabeledBatch,
    c: int,
    kind: str = PARAMETRIC,
    *,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    kde_max_support: int = 0,
    seed: int = 0,
    threads: int = 1,
):
    """Fit the m x c grid of class densities on a labeled batch.

    Returns (densities, P_train). P_train is the (n, m, c) tensor of
    p_ij(x_i) on the batch itself, filled cell by cell from the kernel
    evaluation that sets each cell's normalizer; it has the layout of
    ``pdf_grid(densities, batch.features)`` and equals it bit for bit.
    """
    if kind not in (PARAMETRIC, KDE):
        raise ValueError(f"unknown model kind {kind!r}")
    if np.any(batch.labels >= c):
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    P_train = _empty_pdf_tensor(batch.n, batch.m, c)

    def fit_cell(i: int, j: int):
        rows = batch.features[i][batch.labels == j]
        cell = SampleSet(rows, batch.space, network_id=i, class_id=j)
        out = P_train[:, i, j]
        if kind == PARAMETRIC:
            return fit_gaussian(cell, batch.features[i], sigma_floor=sigma_floor, out=out)
        return fit_kde(
            cell, batch.features[i], sigma_floor=sigma_floor,
            max_support=kde_max_support, seed=seed + i * c + j, out=out,
        )

    cells = [(i, j) for i in range(batch.m) for j in range(c)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            flat = list(pool.map(lambda ij: fit_cell(*ij), cells))
    else:
        flat = [fit_cell(i, j) for i, j in cells]
    return [flat[i * c:(i + 1) * c] for i in range(batch.m)], P_train


def fit_ensemble(
    batch: LabeledBatch,
    c: int,
    kind: str = PARAMETRIC,
    *,
    eta: float = 0.1,
    max_iters: int = 5000,
    tol: float = 1e-8,
    grad_mode: str = "analytic",
    backtrack: bool = False,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    kde_max_support: int = 0,
    seed: int = 42,
    threads: int = 1,
) -> EnsembleModel:
    """Estimate all densities, then learn the mixture weights."""
    densities, P_train = fit_densities(
        batch, c, kind, sigma_floor=sigma_floor,
        kde_max_support=kde_max_support, seed=seed, threads=threads,
    )
    weights, meta = fit_weights(
        P_train, batch, eta=eta, max_iters=max_iters, tol=tol,
        grad_mode=grad_mode, backtrack=backtrack, seed=seed,
    )
    return EnsembleModel(
        kind=kind, space=batch.space, m=batch.m, c=c,
        densities=densities, weights=weights, fit_meta=meta,
    )


def evaluate(model: EnsembleModel, batch: LabeledBatch) -> dict:
    """Accuracy, per-class accuracy, and mean loss of the model on a batch,
    plus each network's density-classifier accuracy, all from one pdf tensor."""
    _check_batch(model, batch)
    P = pdf_grid(model.densities, batch.features)
    point = _Objective(P, batch.labels).at(model.weights.alpha_tilde)
    hits = np.argmax(point.scores, axis=1) == batch.labels
    per_class = np.full(model.c, np.nan)
    for j in range(model.c):
        mask = batch.labels == j
        if np.any(mask):
            per_class[j] = float(np.mean(hits[mask]))
    return {
        "accuracy": float(np.mean(hits)),
        "per_class_accuracy": per_class,
        "mean_loss": point.loss,
        "density_argmax_accuracy": density_argmax_accuracies(P, batch.labels),
    }


def density_argmax_accuracies(P: np.ndarray, labels: np.ndarray) -> list:
    """Accuracy of each network's density classifier argmax_j p_ij(x_i),
    read from the batch's (n, m, c) pdf tensor one network at a time (an
    argmax over the strided class axis copies what it reduces)."""
    return [float(np.mean(np.argmax(P[:, i, :], axis=1) == labels)) for i in range(P.shape[1])]


def density_argmax_accuracy(model: EnsembleModel, batch: LabeledBatch, network: int) -> float:
    """Accuracy of one network's own density classifier argmax_j p_ij(x_i)."""
    _check_batch(model, batch)
    P = pdf_grid([model.densities[network]], [batch.features[network]])
    return density_argmax_accuracies(P, batch.labels)[0]
