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
map along -t g, taking absolute values afterwards to stay in the closed
positive quadrant (alpha = alpha_tilde^2 is unchanged by sign flips). The
first trial length t is eta; each later one is the Barzilai-Borwein length
<s, s> / <s, y> of the last accepted step, with s and y the plain ambient
changes in alpha_tilde and in the gradient (Barzilai & Borwein 1988; Iannazzo
& Porcelli 2018), clamped to [1e-6, 1e3], or eta again when <s, y> <= 0. A
trial length is halved while it would raise the loss. Density parameters are
estimated beforehand and held fixed throughout.

Scoring is in log space, each sample divided by its largest density under
a network of nonzero weight: the scores, probabilities, argmax and loss
ignore that positive factor, and no row underflows. Scoring folds each
network's ``network_log_densities`` into running class scores (``_fold``)
and builds no (n, m, c) tensor; the fit builds one, which ``shift_to_pdf``
shifts in place and ``tensor_scores`` reads. ``_checked`` raises
DegenerateScores for a non-finite or all-zero score row. The tensor is
stored sample x class x network, so its (n*c, m) matrix view is free and
each weighted sum over the networks (the scores, and the gradient's sum
over samples and classes) is one matrix-vector product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._points import GRASSMANN, SPHERE
# fit_gaussian and fit_kde are not called here; pipebench/tracing.py patches them
from .density import fit_gaussian, fit_kde, gaussian_cell, kde_cell, normalized
from .errors import (
    DegenerateScores,
    DimensionMismatch,
    EmptyBatch,
    LabelOutOfRange,
    NonFiniteLoss,
)
from .estimators import SampleSet, mean_point

PARAMETRIC = "parametric"
KDE = "kde"

_SCORE_EPS = 1e-300

# clamp of the Barzilai-Borwein trial step length
_BB_MIN = 1e-6
_BB_MAX = 1e3


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
        if not abs(np.linalg.norm(at) - 1.0) <= 1e-12:
            raise ValueError("alpha_tilde must be a finite unit vector")
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


@dataclass(frozen=True)
class EnsembleModel:
    """Fitted ensemble: the m x c density grid plus mixture weights.

    ``densities`` is any sequence of m rows of c cells: a fit's lists, or a
    loaded model's grid, which reads a row from the model file each time it
    is indexed. Construction indexes each row once and checks it: c cells
    of one dimension, c itself on the sphere, and a parametric cell's one
    support point. It records each network's dimension and keeps no row, so
    it holds one network's cells at a time."""

    kind: str
    space: str
    m: int
    c: int
    densities: Sequence
    weights: MixtureWeights
    fit_meta: dict
    _dims: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (PARAMETRIC, KDE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.space not in (SPHERE, GRASSMANN):
            raise ValueError(f"unknown space {self.space!r}")
        if len(self.densities) != self.m:
            raise ValueError("densities grid must be complete (m rows of c entries)")
        if self.weights.m != self.m:
            raise ValueError("weight count must match network count")
        dims = []
        for i in range(self.m):
            row = self.densities[i]
            if len(row) != self.c:
                raise ValueError("densities grid must be complete (m rows of c entries)")
            if self.kind == PARAMETRIC and any(len(d.support) != 1 for d in row):
                raise ValueError("a parametric model's cells must each hold one support point")
            if len({d.dim for d in row}) != 1:
                raise DimensionMismatch(f"network {i} densities disagree on dimension")
            if self.space == SPHERE and row[0].dim != self.c:
                raise DimensionMismatch(
                    f"sphere density of dimension {row[0].dim} for {self.c} classes")
            dims.append(row[0].dim)
            del row  # before the next row is read
        object.__setattr__(self, "_dims", tuple(dims))

    def network_dims(self) -> list:
        return list(self._dims)


# -- the pdf tensor and its matrix view ------------------------------------------


def _empty_pdf_tensor(n: int, m: int, c: int) -> np.ndarray:
    """Uninitialized (n, m, c) pdf tensor, stored sample x class x network,
    so that its (n*c, m) matrix ``_pdf_matrix`` is a view."""
    return np.empty((n, c, m)).transpose(0, 2, 1)


def _pdf_matrix(P: np.ndarray) -> np.ndarray:
    """(n*c, m) matrix of an (n, m, c) pdf tensor; row k*c + j holds p_ij(x_k)
    over the networks i. A view for tensors from ``_empty_pdf_tensor``, a
    single copy for any other layout."""
    n, m, c = P.shape
    return np.ascontiguousarray(P.transpose(0, 2, 1)).reshape(n * c, m)


def shift_to_pdf(L: np.ndarray) -> np.ndarray:
    """Turn an (n, m, c) log-density tensor into its pdf tensor divided per
    sample by the sample's largest density, in place: L[k] becomes
    exp(L[k] - max L[k]). Returns the shifts max L[k]."""
    shift = L.max(axis=(1, 2))
    L -= shift[:, None, None]
    np.exp(L, out=L)
    return shift


def tensor_scores(P: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """(n, c) scores sum_i alpha_i p_ij(x_k) of an (n, m, c) pdf tensor: one pass."""
    return _checked((_pdf_matrix(P) @ alpha).reshape(-1, P.shape[2]))


def _checked(scores: np.ndarray) -> np.ndarray:
    """``scores``, after DegenerateScores names its first non-finite or all-zero row."""
    totals = scores @ np.ones(scores.shape[1])  # a BLAS pass: a row sum costs 5x as much
    bad = ~((totals > 0.0) & (totals < math.inf))
    if bad.any():
        raise DegenerateScores(f"all-zero or non-finite class scores for sample {bad.argmax()}")
    return scores


def _arcs(scores: np.ndarray, label_rows: np.ndarray) -> tuple:
    """Row norms, label cosines in [0, 1], arc distances and the loss of a
    score matrix, given the flat index k*c + y_k of each sample's label."""
    norms = _row_norms(scores)
    u = np.clip(scores.ravel()[label_rows] / norms, 0.0, 1.0)
    d = np.arccos(u)
    return norms, u, d, float(np.mean(d * d))


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


# -- scoring and prediction ----------------------------------------------------


def network_log_densities(densities, features):
    """Each network's (n, c) log densities log p_ij(x_k) of a batch, in turn.
    ``features``, any iterable of one (n, d_i) table per network, is read
    once, each table dropped before the next is asked for, with its row of
    ``densities``, indexed as it arrives. DimensionMismatch names a table
    whose rows or width disagree, and a missing or extra table."""
    m = len(densities)
    tables = iter(features)
    n = None
    for i in range(m):
        fi = next(tables, None)
        if fi is None:
            raise DimensionMismatch(f"{i} tables for a model with m={m}")
        row = densities[i]
        n = fi.shape[0] if n is None else n
        if fi.shape[0] != n:
            raise DimensionMismatch(f"network {i} table has {fi.shape[0]} rows, expected {n}")
        if fi.shape[1] != row[0].dim:
            raise DimensionMismatch(f"network {i} features have dimension {fi.shape[1]}, "
                                    f"model expects {row[0].dim}")
        L = np.column_stack([d.log_pdf_batch(fi) for d in row])
        del fi, row  # before the next table is asked for and the next row read
        yield L
    extra = sum(1 for _ in tables)
    if extra:
        raise DimensionMismatch(f"{m + extra} tables for a model with m={m}")


def pdf_grid(densities, features) -> np.ndarray:
    """(n, m, c) tensor of ``network_log_densities``, laid out by ``_empty_pdf_tensor``."""
    out = None
    for i, L in enumerate(network_log_densities(densities, features)):
        if out is None:
            out = _empty_pdf_tensor(L.shape[0], len(densities), L.shape[1])
        out[:, i, :] = L
    return out


def _fold(logs, alphas) -> list:
    """Unchecked (n, c) scores sum_i alpha_i exp(L_i - M) per weight vector in
    ``alphas`` from the log densities L_i in ``logs``, M each sample's
    largest L_i over the networks that the vector weights: a network of
    weight 0 sets no M, so it cannot underflow the weighted ones to an
    all-zero row. Where network i raises a running M, the scores so far are
    rescaled by exp(M_old - M_new) (Milakov & Gimelshein 2018)."""
    folds = None
    for i, L in enumerate(logs):
        top = L.max(axis=1)
        if folds is None:
            folds = [(np.zeros_like(L), np.full_like(top, -math.inf)) for _ in alphas]
        for (s, shift), alpha in zip(folds, alphas):
            if alpha[i] > 0.0:
                rise = top > shift
                if rise.any():
                    s[rise] *= np.exp(shift[rise] - top[rise])[:, None]
                    shift[rise] = top[rise]
                e = L - shift[:, None]
                np.exp(e, out=e)
                e *= alpha[i]
                s += e
    return [s for s, _ in folds]


def _shifted_scores(model: EnsembleModel, features) -> np.ndarray:
    """(n, c) scores of a batch, each sample divided by its largest weighted density."""
    (scores,) = _fold(network_log_densities(model.densities, features), [model.weights.alpha])
    return _checked(scores)


def ensemble_probability_batch(model: EnsembleModel, features) -> np.ndarray:
    """Each sample's class scores normalized to a probability vector."""
    scores = _shifted_scores(model, features)
    return scores / scores.sum(axis=1)[:, None]


def predict_batch(model: EnsembleModel, features) -> np.ndarray:
    """argmax_j of each sample's class scores; ties go to the smallest j."""
    return np.argmax(_shifted_scores(model, features), axis=1)


def label_distance(y: int, p) -> float:
    """Arc distance between the one-hot label y and the direction of p:
    arccos(p_y / ||p||). Zero iff p is supported on y alone."""
    p = np.asarray(p, dtype=np.float64)
    if y < 0 or y >= p.shape[0]:
        raise LabelOutOfRange(f"label {y} outside [0, {p.shape[0]})")
    norm = float(_row_norms(p[None, :])[0])
    if not 0.0 < norm < math.inf:
        raise DegenerateScores("cannot measure a direction of a zero or non-finite vector")
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
        scores = _checked((self.Pm @ (at * at)).reshape(-1, self.c))
        return _Point(at, scores, *_arcs(scores, self.label_rows))

    def gradient(self, point: _Point) -> np.ndarray:
        """Tangent-space gradient at ``point``: one gradient pass over the pdf
        matrix, reusing the point's scores."""
        at, u, d, norms = point.at, point.u, point.d, point.norms
        # d(d^2)/du = -2 d / sqrt(1 - u^2); the ratio d/sqrt(1-u^2) -> 1 as u -> 1
        one_minus = 1.0 - u * u
        w = np.where(one_minus > 1e-24, d / np.sqrt(np.maximum(one_minus, 1e-300)), 1.0)
        # dL/ds_k = a_k ((u_k / ||s_k||) s_k - e_{y_k}), with a_k = (2/n) w_k / ||s_k||
        g_scores = (u / norms)[:, None] * point.scores
        g_scores.flat[self.label_rows] -= 1.0
        g_scores *= ((2.0 / norms.shape[0]) * w / norms)[:, None]
        g = 2.0 * at * (g_scores.ravel() @ self.Pm)
        return g - (g @ at) * at


def _sphere_step(at: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Exponential-map step from ``at`` along -eta * grad, folded back into
    the positive quadrant. A step whose length overflows is NonFiniteLoss."""
    with np.errstate(over="ignore"):
        step = -eta * grad
        nv = float(np.linalg.norm(step))
    if not math.isfinite(nv):
        raise NonFiniteLoss(f"descent step length is {nv}; reduce eta")
    if nv < 1e-300:
        return at
    out = math.cos(nv) * at + math.sin(nv) * (step / nv)
    out = np.abs(out)
    return out / np.linalg.norm(out)


def fit_weights(P_train: np.ndarray, batch: LabeledBatch, *, eta: float = 0.1,
                max_iters: int = 5000, tol: float = 1e-8):
    """Learn the mixture weights by Riemannian gradient descent on S^{m-1}.

    ``P_train`` is the batch's (n, m, c) pdf tensor up to a positive factor
    per sample, such as ``fit_densities``' log tensor after ``shift_to_pdf``.
    Starts from the uniform mixture and stops when |dL| <= tol * max(1, L)
    or after ``max_iters`` steps. ``eta`` is the first trial length (module
    docstring); a trial that would raise the loss is halved until it no
    longer does or its length reaches 1e-12. Returns (MixtureWeights, fit_meta).
    """
    if P_train.ndim != 3 or P_train.shape[:2] != (batch.n, batch.m):
        raise DimensionMismatch(
            f"pdf tensor of shape {P_train.shape} for {batch.n} samples of {batch.m} networks"
        )
    if np.any(batch.labels >= P_train.shape[2]):
        raise LabelOutOfRange(f"labels must lie in [0, {P_train.shape[2]})")
    return fit_weights_from_pdf(P_train, batch.labels, eta=eta, max_iters=max_iters, tol=tol)


def fit_weights_from_pdf(P: np.ndarray, labels: np.ndarray, *, eta: float = 0.1,
                         max_iters: int = 5000, tol: float = 1e-8):
    """fit_weights, starting from a precomputed (n, m, c) pdf tensor.

    Each step is one scores pass per trial and one gradient pass at the
    accepted point, whose scores are carried over from when it was a
    candidate; that gradient is both the next direction and the new end of
    y. fit_meta records why descent stopped (``stop_reason``: "tol", or
    "max_iters" when the step cap ended it), the Riemannian gradient norm at
    the returned weights, the loss of the uniform start, the effective
    number of networks 1 / sum(alpha^2) and ``loss_evaluations``, the number
    of scores passes (the uniform start and every trial, halvings included).
    """
    if not (0.0 < eta < math.inf and 0.0 < tol < math.inf) or max_iters < 1:
        raise ValueError("eta and tol must be positive and finite, max_iters >= 1")
    objective = _Objective(P, labels)
    m = P.shape[1]
    point = objective.at(np.full(m, 1.0 / math.sqrt(m)))
    uniform_loss = point.loss
    loss_evaluations = 1
    grad = objective.gradient(point)
    iterations = 0
    # a single network has nothing to learn: its gradient is zero
    stop_reason = "tol" if m == 1 else "max_iters"
    if m > 1:
        step_eta = eta
        for _ in range(max_iters):
            candidate = objective.at(_sphere_step(point.at, grad, step_eta))
            loss_evaluations += 1
            while candidate.loss > point.loss and step_eta > 1e-12:
                step_eta *= 0.5
                del candidate  # keep at most one trial's scores alive (peak RSS)
                candidate = objective.at(_sphere_step(point.at, grad, step_eta))
                loss_evaluations += 1
            converged = abs(candidate.loss - point.loss) <= tol * max(1.0, candidate.loss)
            s = candidate.at - point.at
            point = candidate
            new_grad = objective.gradient(point)
            # BB1 length <s, s> / <s, y>, with plain ambient differences
            sy = float(s @ (new_grad - grad))
            step_eta = min(max(float(s @ s) / sy, _BB_MIN), _BB_MAX) if sy > 0.0 else eta
            grad = new_grad
            iterations += 1
            if converged:
                stop_reason = "tol"
                break
    weights = MixtureWeights(point.at)
    meta = {
        "eta": float(eta),
        "iterations_run": iterations,
        "final_loss": float(point.loss),
        "stop_reason": stop_reason,
        "grad_norm": float(np.linalg.norm(grad)),
        "uniform_loss": float(uniform_loss),
        "effective_networks": float(1.0 / np.sum(weights.alpha * weights.alpha)),
        "loss_evaluations": loss_evaluations,
    }
    return weights, meta


def loss(model: EnsembleModel, batch: LabeledBatch) -> float:
    """Mean squared label distance of the ensemble over the batch."""
    return evaluate(model, batch.features, batch.labels)["mean_loss"]


# -- fitting and evaluation ------------------------------------------------------


def fit_densities(batch: LabeledBatch, c: int, kind: str = PARAMETRIC, *, threads: int = 1):
    """Fit the m x c grid of class densities on a labeled batch.

    Returns (densities, L_train): L_train is the (n, m, c) tensor of
    log p_ij(x_i) on the batch itself, laid out as ``pdf_grid``'s, which
    ``shift_to_pdf`` turns into the tensor ``fit_weights`` reads. Each cell
    is built at normalizer 1 from its Fréchet mean; L_train first holds the
    cells' log kernel sums at the training rows, and ``normalized`` turns
    each column into its cell's normalizer and, in place, log density. A
    parametric fit's sums are one ``pdf_grid`` pass over those cells, so
    L_train equals ``pdf_grid`` bit for bit. A KDE network's are one
    ``_kernels.class_log_sums`` call, whose dot products BLAS rounds in other
    shapes than ``pdf_grid``'s: the two agree to that rounding. ``threads``
    workers take one KDE network each; their number changes no bit.

    Each cell reads its class's rows through ``_kernels.class_selectors``.
    On a batch grouped by class, as ``cli.fit`` groups its tables,
    every class's rows are contiguous, so each KDE support is a view of its
    network's table and the fit holds each training row once; on a batch in
    any other order each support is a copy.

    Every cell's Fréchet mean comes from one ``_kernels.cell_means`` call per
    feature width (Grassmann networks may differ in width).
    """
    if kind not in (PARAMETRIC, KDE):
        raise ValueError(f"unknown model kind {kind!r}")
    if np.any(batch.labels >= c):
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    means = {}
    for width in dict.fromkeys(f.shape[1] for f in batch.features):
        nets = [i for i, f in enumerate(batch.features) if f.shape[1] == width]
        means.update(zip(nets, _kernels.cell_means(
            [batch.features[i] for i in nets], batch.labels, c,
            sign_align=batch.space == GRASSMANN,
        )))
    build = gaussian_cell if kind == PARAMETRIC else kde_cell
    rows = _kernels.class_selectors(batch.labels, c)
    # an empty class fails in its SampleSet by name, before its NaN mean is read
    cells = [[build(SampleSet(f[rows[j]], batch.space, network_id=i, class_id=j),
                    mean_point(means[i][j], batch.space)) for j in range(c)]
             for i, f in enumerate(batch.features)]
    if kind == PARAMETRIC:
        L_train = pdf_grid(cells, batch.features)
    else:
        L_train = _empty_pdf_tensor(batch.n, batch.m, c)

        def network_sums(i: int):
            L_train[:, i, :] = _kernels.class_log_sums(
                batch.features[i], batch.labels, [d.inv_two_bw_sq for d in cells[i]],
                absolute=batch.space == GRASSMANN)

        if threads == 1:
            list(map(network_sums, range(batch.m)))
        else:  # imported here: the pool's modules would add to every command's peak
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(network_sums, range(batch.m)))
    return [[normalized(d, L_train[:, i, j]) for j, d in enumerate(row)]
            for i, row in enumerate(cells)], L_train


def fit_ensemble(batch: LabeledBatch, c: int, kind: str = PARAMETRIC, *, eta: float = 0.1,
                 max_iters: int = 5000, tol: float = 1e-8, threads: int = 1) -> EnsembleModel:
    """Estimate all densities, then learn the mixture weights."""
    densities, P_train = fit_densities(batch, c, kind, threads=threads)
    shift_to_pdf(P_train)
    weights, meta = fit_weights(P_train, batch, eta=eta, max_iters=max_iters, tol=tol)
    return EnsembleModel(
        kind=kind, space=batch.space, m=batch.m, c=c,
        densities=densities, weights=weights, fit_meta=meta,
    )


def evaluate(model: EnsembleModel, features, labels) -> dict:
    """``score_report`` of the model and the uniform mixture, folded in one
    pass over the tables, keeping each table's ``standalone_classes`` and
    its network's density classes as they pass. ``labels`` is the (n,)
    label array, or a function of n called after the last table."""
    classes, density_classes = [], []

    def noted():
        for f in features:
            classes.append(standalone_classes(f, model.space))
            yield f
            del f  # before the next table is asked for

    def logs():  # and each network's density classes, argmax_j p_ij(x)
        for L in network_log_densities(model.densities, noted()):
            density_classes.append(argmax_classes(L))
            yield L

    scores, uniform = _fold(logs(), [model.weights.alpha, MixtureWeights.uniform(model.m).alpha])
    n = scores.shape[0]
    labels = np.asarray(labels(n) if callable(labels) else labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DimensionMismatch(f"{labels.size} labels for {n} samples")
    if np.any(labels < 0) or np.any(labels >= model.c):
        raise LabelOutOfRange(f"labels must lie in [0, {model.c})")
    return score_report(_checked(scores), _checked(uniform), labels, density_classes, classes)


def argmax_classes(values: np.ndarray) -> np.ndarray:
    """Row argmax (ties to the smallest j) of an (n, c) array, in the narrowest uint for c - 1."""
    return np.argmax(values, axis=1).astype(np.min_scalar_type(values.shape[1] - 1))


def standalone_classes(table: np.ndarray, space: str):
    """A network's own class per sample: the argmax of each row of its (n, c)
    table on the sphere (sqrt is monotone); None on the Grassmannian, which
    has no probabilities."""
    return argmax_classes(table) if space == SPHERE else None


def score_report(scores: np.ndarray, uniform: np.ndarray, labels: np.ndarray,
                 density_classes: list | None, classes) -> dict:
    """Accuracy, per-class accuracy and mean loss of a batch's (n, c) class
    ``scores``, the accuracy of its ``uniform`` mixture scores, and each
    network's density-classifier accuracy (from the ``argmax_classes`` of
    its log densities in ``density_classes``, or None) and standalone one
    (from ``classes``, any iterable, or where None its density classifier's)."""
    n, c = scores.shape
    hits = np.argmax(scores, axis=1) == labels
    counts = np.bincount(labels, minlength=c)
    per_class = np.divide(np.bincount(labels, hits, c), counts,
                          out=np.full(c, np.nan), where=counts > 0)
    density = (None if density_classes is None
               else [float(np.mean(k == labels)) for k in density_classes])
    standalone = [density[i] if k is None else float(np.mean(k == labels))
                  for i, k in enumerate(classes)]
    return {
        "accuracy": float(np.mean(hits)),
        "per_class_accuracy": per_class,
        "mean_loss": _arcs(scores, np.arange(n) * c + labels)[3],
        "uniform_accuracy": float(np.mean(np.argmax(uniform, axis=1) == labels)),
        "density_argmax_accuracy": density,
        "standalone_accuracy": standalone,
    }
