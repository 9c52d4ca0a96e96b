"""Independent oracles and reference implementations for the test suite.

Nothing here shares code with the package under test: geometry, density and
loss formulas are re-derived with plain Python loops, math-module scalars and
fsum accumulation (slow is fine; these are correctness references only).
"""

from __future__ import annotations

import math

import numpy as np


class OracleNonConvergence(RuntimeError):
    pass


# -- scalar sphere geometry (slerp form, a distinct code path) -------------------

def ref_arc(u, v) -> float:
    dot = math.fsum(a * b for a, b in zip(u, v))
    return math.acos(max(-1.0, min(1.0, dot)))


def ref_geodesic(x, y, t: float):
    """Point at parameter t on the great circle from x to y (slerp form)."""
    theta = ref_arc(x, y)
    if theta < 1e-14:
        return list(x)
    a = math.sin((1.0 - t) * theta) / math.sin(theta)
    b = math.sin(t * theta) / math.sin(theta)
    out = [a * xi + b * yi for xi, yi in zip(x, y)]
    nrm = math.sqrt(math.fsum(o * o for o in out))
    return [o / nrm for o in out]


def ref_log(x, y):
    theta = ref_arc(x, y)
    if theta < 1e-14:
        return [0.0] * len(x)
    scale = theta / math.sin(theta)
    return [scale * (yi - math.cos(theta) * xi) for xi, yi in zip(x, y)]


def ref_exp(x, v):
    nrm = math.sqrt(math.fsum(c * c for c in v))
    if nrm < 1e-14:
        return list(x)
    out = [math.cos(nrm) * xi + math.sin(nrm) * vi / nrm for xi, vi in zip(x, v)]
    total = math.sqrt(math.fsum(o * o for o in out))
    return [o / total for o in out]


def frechet_objective(points, mu) -> float:
    """(1/n) sum_k d_arc^2(x_k, mu)."""
    return math.fsum(ref_arc(p, mu) ** 2 for p in points) / len(points)


# -- Fréchet mean oracles ---------------------------------------------------------

def oracle_frechet_mean(points, tol: float = 1e-12, max_steps: int = 10**5):
    """Minimize the mean squared arc distance by tangent-space descent with
    backtracking line search, started from the normalized Euclidean mean."""
    pts = [list(map(float, p)) for p in points]
    n = len(pts)
    mean = [math.fsum(p[q] for p in pts) / n for q in range(len(pts[0]))]
    nrm = math.sqrt(math.fsum(c * c for c in mean))
    mu = [c / nrm for c in mean]
    obj = frechet_objective(pts, mu)
    for _ in range(max_steps):
        logs = [ref_log(mu, p) for p in pts]
        h = [math.fsum(l[q] for l in logs) / n for q in range(len(mu))]
        hn2 = math.fsum(c * c for c in h)
        if math.sqrt(hn2) < tol:
            return mu
        accepted = False
        t = 1.0
        while t > 1e-16:
            cand = ref_exp(mu, [t * c for c in h])
            cand_obj = frechet_objective(pts, cand)
            # strict decrease required: near the optimum the objective is flat
            # to fp resolution and zero-progress steps would loop forever
            if cand_obj < obj:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return mu
        mu, obj = cand, cand_obj
    raise OracleNonConvergence(f"no convergence after {max_steps} steps")


def grid_frechet_mean_s2(points, cells: int = 200, refinements: int = 6):
    """Brute-force minimizer on the positive quadrant of S^2: dense grid over
    spherical angles, then repeatedly shrink the grid around the argmin."""
    lo_t, hi_t = 0.0, math.pi / 2
    lo_p, hi_p = 0.0, math.pi / 2
    best = None
    for _ in range(refinements):
        thetas = np.linspace(lo_t, hi_t, cells)
        phis = np.linspace(lo_p, hi_p, cells)
        best_val = math.inf
        for th in thetas:
            for ph in phis:
                cand = [
                    math.sin(th) * math.cos(ph),
                    math.sin(th) * math.sin(ph),
                    math.cos(th),
                ]
                val = frechet_objective(points, cand)
                if val < best_val:
                    best_val, best, best_th, best_ph = val, cand, th, ph
        span_t = (hi_t - lo_t) / cells * 4
        span_p = (hi_p - lo_p) / cells * 4
        lo_t, hi_t = max(0.0, best_th - span_t), min(math.pi / 2, best_th + span_t)
        lo_p, hi_p = max(0.0, best_ph - span_p), min(math.pi / 2, best_ph + span_p)
    return best


# -- finite-difference gradient oracle ---------------------------------------------

def oracle_fd_gradient(loss_fn, alpha_tilde, h: float = 1e-6):
    """Central differences per coordinate, projected onto the tangent space."""
    if not (1e-8 <= h <= 1e-4):
        raise ValueError("h must lie in [1e-8, 1e-4]")
    at = np.asarray(alpha_tilde, dtype=np.float64)
    g = np.zeros_like(at)
    for i in range(at.shape[0]):
        e = np.zeros_like(at)
        e[i] = h
        g[i] = (loss_fn(at + e) - loss_fn(at - e)) / (2.0 * h)
    return g - (g @ at) * at


# -- reference weight descent (the formula-by-formula loop) ----------------------------
#
# The descent as first written: scores by tensordot over the network axis of
# the (n, m, c) tensor, the gradient by einsum, and the loss evaluated twice
# per step (once inside the gradient, once for the candidate). The package's
# loop must follow the same iterates.

def _ref_scores(P, alpha_tilde):
    return np.tensordot(P, alpha_tilde * alpha_tilde, axes=([1], [0]))


def _ref_cosines(scores, labels):
    norms = np.linalg.norm(scores, axis=1)
    sy = scores[np.arange(scores.shape[0]), labels]
    return np.clip(sy / norms, 0.0, 1.0), norms


def ref_descent_loss(P, labels, alpha_tilde) -> float:
    u, _ = _ref_cosines(_ref_scores(P, alpha_tilde), labels)
    d = np.arccos(u)
    return float(np.mean(d * d))


def ref_descent_gradient(P, labels, alpha_tilde):
    """Riemannian gradient of ref_descent_loss at alpha_tilde."""
    at = np.asarray(alpha_tilde, dtype=np.float64)
    n, _, c = P.shape
    scores = _ref_scores(P, at)
    u, norms = _ref_cosines(scores, labels)
    d = np.arccos(u)
    one_minus = 1.0 - u * u
    w = np.where(one_minus > 1e-24, d / np.sqrt(np.maximum(one_minus, 1e-300)), 1.0)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    g_scores = -(2.0 / n) * w[:, None] * (onehot - (u / norms)[:, None] * scores) / norms[:, None]
    g = 2.0 * at * np.einsum("kj,kij->i", g_scores, P)
    return g - (g @ at) * at


def _ref_sphere_step(at, step):
    nv = float(np.linalg.norm(step))
    if nv < 1e-300:
        return at
    out = np.abs(math.cos(nv) * at + math.sin(nv) * (step / nv))
    return out / np.linalg.norm(out)


def ref_fit_weights(P, labels, eta: float = 0.1, max_iters: int = 5000, tol: float = 1e-8,
                    halve: bool = True):
    """Barzilai-Borwein descent: the first trial step is eta, each later one
    the BB1 length <s, s> / <s, y> of the last accepted step (s and y the
    changes in alpha_tilde and in the gradient), clamped to [1e-6, 1e3], or
    eta when <s, y> <= 0. With ``halve`` a trial step is halved while its
    loss is above the current loss (floor 1e-12).
    Returns (alpha_tilde, iterations_run, final_loss)."""
    m = P.shape[1]
    at = np.full(m, 1.0 / math.sqrt(m))
    loss_prev = ref_descent_loss(P, labels, at)
    grad = ref_descent_gradient(P, labels, at)
    step = eta
    iterations = 0
    if m > 1:
        for _ in range(max_iters):
            candidate = _ref_sphere_step(at, -step * grad)
            loss_new = ref_descent_loss(P, labels, candidate)
            while halve and loss_new > loss_prev and step > 1e-12:
                step *= 0.5
                candidate = _ref_sphere_step(at, -step * grad)
                loss_new = ref_descent_loss(P, labels, candidate)
            grad_new = ref_descent_gradient(P, labels, candidate)
            s = candidate - at
            y = grad_new - grad
            sy = float(np.dot(s, y))
            step = min(max(float(np.dot(s, s)) / sy, 1e-6), 1e3) if sy > 0.0 else eta
            at, grad = candidate, grad_new
            iterations += 1
            converged = abs(loss_new - loss_prev) <= tol * max(1.0, loss_new)
            loss_prev = loss_new
            if converged:
                break
    return at, iterations, loss_prev


# -- reference density fitting (transliteration of the estimators) ------------------

# Largest per-coordinate difference allowed between the package's batched
# mean recursion and ref_incremental_mean. The two round differently (numpy
# array cos/sin and einsum dots against math scalars, fsum and the slerp
# form); 5.6e-16 was the largest difference measured on random cells.
CELL_MEAN_TOL = 1e-15


def ref_incremental_mean(points, sign_align: bool = False):
    """The streaming mean recursion; ``sign_align`` first flips each incoming
    point into the hemisphere of the running mean (Grassmann data)."""
    mu = list(map(float, points[0]))
    for k in range(1, len(points)):
        x = points[k]
        if sign_align and math.fsum(a * b for a, b in zip(mu, x)) < 0.0:
            x = [-float(v) for v in x]
        mu = ref_geodesic(mu, x, 1.0 / (k + 1.0))
    return mu


def ref_fit_gaussian(class_points, all_points, sigma_floor: float = 1e-3):
    mu = ref_incremental_mean(class_points)
    sigma = math.sqrt(
        math.fsum(ref_arc(p, mu) ** 2 for p in class_points) / len(class_points)
    )
    sigma = max(sigma, sigma_floor)
    mass = math.fsum(
        math.exp(-ref_arc(p, mu) ** 2 / (2.0 * sigma * sigma)) for p in all_points
    )
    return mu, sigma, 1.0 / mass


def ref_silverman(sigma_hat: float, n: int) -> float:
    return (4.0 * sigma_hat**5 / (3.0 * n)) ** 0.2


def ref_fit_kde(class_points, all_points, sigma_floor: float = 1e-3):
    mu = ref_incremental_mean(class_points)
    sigma = math.sqrt(
        math.fsum(ref_arc(p, mu) ** 2 for p in class_points) / len(class_points)
    )
    sigma = max(sigma, sigma_floor)
    b = ref_silverman(sigma, len(class_points))
    mass = math.fsum(
        math.fsum(math.exp(-ref_arc(x, y) ** 2 / (2.0 * b * b)) for y in class_points)
        / len(class_points)
        for x in all_points
    )
    return b, 1.0 / mass


def ref_gaussian_pdf(mu, sigma, normalizer, x) -> float:
    return normalizer * math.exp(-ref_arc(x, mu) ** 2 / (2.0 * sigma * sigma))


def ref_kde_pdf(support, bandwidth, normalizer, x) -> float:
    total = math.fsum(
        math.exp(-ref_arc(x, y) ** 2 / (2.0 * bandwidth * bandwidth)) for y in support
    )
    return normalizer / len(support) * total


def ref_label_distance(y: int, p) -> float:
    nrm = math.sqrt(math.fsum(v * v for v in p))
    return math.acos(max(0.0, min(1.0, p[y] / nrm)))


def ref_ensemble_scores(gaussians, alpha, sample):
    """gaussians: per-network list of per-class (mu, sigma, normalizer)."""
    c = len(gaussians[0])
    return [
        math.fsum(
            alpha[i] * ref_gaussian_pdf(*gaussians[i][j], sample[i])
            for i in range(len(alpha))
        )
        for j in range(c)
    ]


def ref_ensemble_loss(gaussians, alpha, samples, labels) -> float:
    total = math.fsum(
        ref_label_distance(y, ref_ensemble_scores(gaussians, alpha, s)) ** 2
        for s, y in zip(samples, labels)
    )
    return total / len(labels)


def ref_ensemble_accuracy(gaussians, alpha, samples, labels):
    hits = 0
    for s, y in zip(samples, labels):
        scores = ref_ensemble_scores(gaussians, alpha, s)
        best = max(range(len(scores)), key=lambda j: (scores[j], -j))
        hits += int(best == y)
    return hits / len(labels)


# -- fixture builders ----------------------------------------------------------------

def sphere_cloud(rng, center, scale: float, n: int) -> np.ndarray:
    """n points scattered around a unit vector ``center`` by tangent noise of
    the given scale, pushed to the sphere; stays near the positive quadrant
    for small scales."""
    center = np.asarray(center, dtype=np.float64)
    center = center / np.linalg.norm(center)
    out = np.empty((n, center.shape[0]))
    for k in range(n):
        v = rng.standard_normal(center.shape[0])
        v -= (v @ center) * center
        v *= scale / max(np.linalg.norm(v), 1e-300)
        v *= rng.uniform(0.2, 1.0)
        out[k] = ref_exp(center, v)
    return out


def positive_quadrant_point(rng, dim: int) -> np.ndarray:
    x = rng.uniform(0.05, 1.0, dim)
    return x / np.linalg.norm(x)


def grassmann_feature_suite(seed: int, dims=(6, 9, 12), c: int = 3,
                            n_train: int = 120, n_test: int = 90,
                            noise=(0.35, 0.45, 0.40)):
    """Raw-feature fixture with per-network dimensions ``dims``: class j of
    network i scatters around a fixed direction with that network's noise,
    then picks up a random positive scale (the Grassmann quotient must absorb
    it). Returns dict of raw train/test feature tables plus labels."""
    rng = np.random.default_rng(seed)
    prototypes = []
    for d in dims:
        protos = rng.standard_normal((c, d))
        protos /= np.linalg.norm(protos, axis=1)[:, None]
        prototypes.append(protos)
    train_labels = rng.integers(0, c, n_train)
    test_labels = rng.integers(0, c, n_test)

    def emit(labels):
        tables = []
        for protos, d, tau in zip(prototypes, dims, noise):
            raw = protos[labels] + tau * rng.standard_normal((labels.size, d))
            raw *= rng.uniform(0.5, 3.0, labels.size)[:, None]
            raw *= np.where(rng.uniform(size=labels.size) < 0.5, -1.0, 1.0)[:, None]
            tables.append(raw)
        return tables

    return {
        "train": emit(train_labels),
        "test": emit(test_labels),
        "train_labels": train_labels,
        "test_labels": test_labels,
    }
