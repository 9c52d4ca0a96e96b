"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale 20-network
suite and both fitted models come from session fixtures in conftest.py
(seed 18, tau spread 0.696:0.739).
"""

import functools
import math
import time

import numpy as np
import pytest

import oracles
from conftest import SUITE_C
from spheremix.ensemble import (
    EnsembleModel,
    LabeledBatch,
    MixtureWeights,
    evaluate,
    fit_weights_from_pdf,
    predict_batch,
    _Objective,
)
from spheremix.estimators import SampleSet, incremental_frechet_mean
from spheremix.grassmann import gr_distance, gr_embed
from spheremix.io import embed_feature_rows, load_model, save_model
from spheremix.sphere import SpherePoint, arc_distance, exp_map, geodesic, log_map


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")
            return result

        return wrapper

    return deco


@criterion("geometry suite: 1e4 round-trips, norms, triangle, isometry (< 5 s)")
def test_geometry_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(10_000):
        dim = int(rng.integers(2, 12))
        x = SpherePoint(rng.uniform(0.05, 1.0, dim))
        y = SpherePoint(rng.uniform(0.05, 1.0, dim))
        z = SpherePoint(rng.uniform(0.05, 1.0, dim))

        back = exp_map(x, log_map(x, y))
        assert np.max(np.abs(back.coords - y.coords)) <= 1e-10
        assert abs(np.linalg.norm(back.coords) - 1.0) <= 1e-12

        dxy, dyz, dxz = arc_distance(x, y), arc_distance(y, z), arc_distance(x, z)
        assert dxz <= dxy + dyz + 1e-10

        s, t = sorted(rng.uniform(0.0, 1.0, 2))
        gs, gt = geodesic(x, y, float(s)), geodesic(x, y, float(t))
        assert abs(np.linalg.norm(gs.coords) - 1.0) <= 1e-12
        assert abs(arc_distance(gs, gt) - (t - s) * dxy) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"geometry suite took {elapsed:.2f} s"


@criterion("incremental FM vs descent oracle: objective gap <= 1e-3, "
           "distance <= 5e-2 on 100 sample sets (< 30 s)")
def test_frechet_mean_oracle_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for _ in range(100):
        dim = int(rng.integers(3, 10))
        n = int(rng.integers(3, 51))
        center = rng.uniform(0.2, 1.0, dim)
        cloud = oracles.sphere_cloud(rng, center, float(rng.uniform(0.02, 0.12)), n)
        estimate = incremental_frechet_mean(SampleSet(cloud))
        oracle_mu = oracles.oracle_frechet_mean(cloud.tolist())
        gap = (
            oracles.frechet_objective(cloud.tolist(), estimate.coords.tolist())
            - oracles.frechet_objective(cloud.tolist(), oracle_mu)
        )
        assert gap <= 1e-3
        assert arc_distance(estimate, SpherePoint(oracle_mu)) <= 5e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.2f} s"


@criterion("analytic vs finite-difference Riemannian gradient: rel err <= 1e-5 "
           "on 20 random configurations")
def test_gradient_correctness():
    rng = np.random.default_rng(88)
    for _ in range(20):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        P = rng.uniform(0.005, 3.0, (n, m, c))
        labels = rng.integers(0, c, n)
        at = np.abs(rng.standard_normal(m)) + 0.05
        at /= np.linalg.norm(at)
        objective = _Objective(P, labels)
        analytic = objective.gradient(objective.at(at))
        fd = oracles.oracle_fd_gradient(lambda a: objective.at(a).loss, at)
        rel = float(np.linalg.norm(analytic - fd)) / max(float(np.linalg.norm(analytic)), 1e-12)
        assert rel <= 1e-5


@criterion("simplex invariants after fit_weights; loss non-increasing for eta <= 1e-2")
def test_simplex_invariants(fitted_models):
    rng = np.random.default_rng(99)
    for _ in range(12):
        n = int(rng.integers(10, 60))
        m = int(rng.integers(2, 7))
        c = int(rng.integers(2, 6))
        P = rng.uniform(0.01, 2.0, (n, m, c))
        labels = rng.integers(0, c, n)
        initial = _Objective(P, labels).at(np.full(m, 1.0 / math.sqrt(m))).loss
        for eta in (1e-2, 1e-3):
            weights, meta = fit_weights_from_pdf(P, labels, eta=eta, max_iters=400)
            assert np.all(weights.alpha >= 0.0)
            assert abs(float(weights.alpha.sum()) - 1.0) <= 1e-12
            assert meta["final_loss"] <= initial + 1e-12
    for entry in fitted_models.values():
        alpha = entry["model"].weights.alpha
        assert np.all(alpha >= 0.0)
        assert abs(float(alpha.sum()) - 1.0) <= 1e-12


@criterion("desk-scale ensemble boost: both kinds >= avg + 3 points, "
           "KDE >= parametric - 1 point (< 60 s)")
def test_ensemble_boost(desk_suite, fitted_models):
    standalone = desk_suite["standalone_test_accuracy"]
    assert min(standalone) >= 0.60 and max(standalone) <= 0.70, (
        f"constituent accuracies outside the 60-70% band: "
        f"[{min(standalone):.3f}, {max(standalone):.3f}]"
    )
    average = float(np.mean(standalone))

    test = desk_suite["test"]
    t0 = time.perf_counter()
    param_acc, kde_acc = (evaluate(fitted_models[kind]["model"], test.features,
                                   test.labels)["accuracy"] for kind in ("parametric", "kde"))
    eval_time = time.perf_counter() - t0

    total = (
        desk_suite["generation_time_s"]
        + sum(e["density_time_s"] + e["weight_time_s"] for e in fitted_models.values())
        + eval_time
    )
    print(
        f"\n  constituents: avg {average:.4f} range [{min(standalone):.3f}, "
        f"{max(standalone):.3f}]  parametric {param_acc:.4f}  kde {kde_acc:.4f}  "
        f"total runtime {total:.1f} s"
    )
    assert param_acc >= average + 0.03, f"parametric boost only {param_acc - average:+.4f}"
    assert kde_acc >= average + 0.03, f"kde boost only {kde_acc - average:+.4f}"
    assert kde_acc >= param_acc - 0.01
    assert total < 60.0, f"desk suite took {total:.1f} s"


@criterion("weight learning phase < 30 s on the 20-network suite")
def test_weight_learning_timing(fitted_models):
    for kind, entry in fitted_models.items():
        assert entry["weight_time_s"] < 30.0, (
            f"{kind} weight learning took {entry['weight_time_s']:.1f} s"
        )


@criterion("m = 1 ensemble equals the single-density argmax classifier on 1000 samples")
def test_degenerate_mixture(desk_suite, fitted_models):
    test = desk_suite["test"]
    assert test.n == 1000
    densities = [fitted_models["parametric"]["model"].densities[0]]
    model = EnsembleModel(
        kind="parametric", space="sphere", m=1, c=SUITE_C,
        densities=densities, weights=MixtureWeights.uniform(1), fit_meta={},
    )
    single = LabeledBatch([test.features[0]], test.labels)
    predicted = predict_batch(model, single.features)
    values = np.column_stack(
        [densities[0][j].pdf_batch(test.features[0]) for j in range(SUITE_C)]
    )
    np.testing.assert_array_equal(predicted, np.argmax(values, axis=1))


@criterion("Grassmann path: exact projective invariance, rank-1 == full SVD "
           "within 1e-12 on 1000 pairs, 3-feature ensemble beats each constituent")
def test_grassmann_path():
    rng = np.random.default_rng(55)
    # projective invariance, exact for dyadic scalings and sign flips
    for _ in range(200):
        d = int(rng.integers(2, 9))
        f = rng.standard_normal(d)
        for lam in (-8.0, -1.0, -0.25, 0.5, 2.0):
            assert gr_distance(gr_embed(f), gr_embed(lam * f)) == 0.0

    # rank-1 closed form vs full SVD oracle
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        x = gr_embed(rng.standard_normal(d))
        y = gr_embed(rng.standard_normal(d))
        sv = np.linalg.svd(x.rep[None, :] @ y.rep[:, None], compute_uv=False)[0]
        oracle = math.acos(min(1.0, float(sv)))
        assert abs(gr_distance(x, y) - oracle) <= 1e-12

    # three feature sets of differing dimension, end to end
    from spheremix.ensemble import fit_ensemble

    fx = oracles.grassmann_feature_suite(34, dims=(6, 9, 12), c=3,
                                         n_train=240, n_test=180,
                                         noise=(0.50, 0.42, 0.36))
    train = LabeledBatch(
        [embed_feature_rows(t) for t in fx["train"]], fx["train_labels"], "grassmann"
    )
    test = LabeledBatch(
        [embed_feature_rows(t) for t in fx["test"]], fx["test_labels"], "grassmann"
    )
    model = fit_ensemble(train, 3)
    assert model.space == "grassmann"
    assert model.network_dims() == [6, 9, 12]
    result = evaluate(model, test.features, test.labels)
    ensemble_acc = result["accuracy"]
    constituent = result["density_argmax_accuracy"]
    print(
        f"\n  grassmann ensemble {ensemble_acc:.4f} vs constituents "
        f"{[f'{a:.4f}' for a in constituent]}"
    )
    assert all(ensemble_acc > a for a in constituent)


@criterion("serialization: save -> load reproduces all 1000 predictions identically")
def test_serialization_roundtrip(desk_suite, fitted_models):
    test = desk_suite["test"]
    assert test.n == 1000
    model = fitted_models["parametric"]["model"]
    clone = load_model(save_model(model))
    np.testing.assert_array_equal(
        predict_batch(model, test.features), predict_batch(clone, test.features)
    )
    probs_a = evaluate(model, test.features, test.labels)
    probs_b = evaluate(clone, test.features, test.labels)
    assert probs_a["accuracy"] == probs_b["accuracy"]
    assert probs_a["mean_loss"] == probs_b["mean_loss"]
