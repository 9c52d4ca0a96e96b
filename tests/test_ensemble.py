import math

import numpy as np
import pytest

import oracles
from conftest import load_fixture
from spheremix.density import GaussianDensity
from spheremix.ensemble import (
    EnsembleModel,
    LabeledBatch,
    MixtureWeights,
    class_scores,
    density_argmax_accuracy,
    ensemble_probability,
    ensemble_probability_batch,
    evaluate,
    fit_densities,
    fit_ensemble,
    fit_weights,
    fit_weights_from_pdf,
    label_distance,
    loss,
    pdf_grid,
    predict,
    predict_batch,
    riemannian_gradient,
    _loss_from_pdf,
)
from spheremix.errors import (
    DegenerateScores,
    DimensionMismatch,
    EmptyBatch,
    LabelOutOfRange,
    NonFiniteLoss,
)
from spheremix.io import embed_feature_rows
from spheremix.sphere import SpherePoint


def gaussian_grid(params):
    return [
        [GaussianDensity(mu=SpherePoint(mu), sigma=s, normalizer=n) for mu, s, n in row]
        for row in params
    ]


def model_from_fixture(fx, alpha=None):
    grid = gaussian_grid(fx["inputs"]["gaussians"])
    alpha = fx["inputs"]["alpha"] if alpha is None else alpha
    return EnsembleModel(
        kind="parametric", space="sphere", m=len(grid), c=len(grid[0]),
        densities=grid, weights=MixtureWeights.from_alpha(alpha), fit_meta={},
    )


class TestMixtureWeights:
    def test_uniform(self):
        w = MixtureWeights.uniform(4)
        np.testing.assert_allclose(w.alpha, [0.25] * 4, rtol=0, atol=1e-15)
        assert abs(w.alpha.sum() - 1.0) <= 1e-12

    def test_alpha_is_exact_square(self):
        w = MixtureWeights(np.sqrt([0.1, 0.2, 0.3, 0.4]) / np.linalg.norm(np.sqrt([0.1, 0.2, 0.3, 0.4])))
        np.testing.assert_array_equal(w.alpha, w.alpha_tilde**2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MixtureWeights(np.asarray([0.9, 0.1]))
        with pytest.raises(ValueError):
            MixtureWeights(np.asarray([-1.0, 0.0]))


class TestScoring:
    def test_single_network_scores_are_pdfs(self):
        fx = load_fixture("class_scores")
        grid = gaussian_grid(fx["inputs"]["gaussians"][:1])
        model = EnsembleModel(
            kind="parametric", space="sphere", m=1, c=2,
            densities=grid, weights=MixtureWeights.uniform(1), fit_meta={},
        )
        sample = [SpherePoint(fx["inputs"]["sample"][0])]
        scores = class_scores(model, sample)
        expected = [grid[0][j].pdf(sample[0]) for j in range(2)]
        np.testing.assert_allclose(scores, expected, rtol=1e-15)

    def test_zero_weight_annihilates(self):
        fx = load_fixture("class_scores")
        model = model_from_fixture(fx, alpha=[1.0, 0.0])
        sample = [SpherePoint(p) for p in fx["inputs"]["sample"]]
        scores = model.densities[0][0].pdf(sample[0]), model.densities[0][1].pdf(sample[0])
        np.testing.assert_allclose(class_scores(model, sample), scores, rtol=1e-15)

    def test_manual_weighted_sum_fixture(self):
        fx = load_fixture("class_scores")
        model = model_from_fixture(fx)
        sample = [SpherePoint(p) for p in fx["inputs"]["sample"]]
        np.testing.assert_allclose(
            class_scores(model, sample), fx["expected"]["scores"],
            rtol=0, atol=fx["tolerance"],
        )

    def test_probability_normalization(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        for sample in fx["inputs"]["samples"]:
            p = ensemble_probability(model, [SpherePoint(v) for v in sample])
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0)

    def test_probability_proportional_to_scores(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        sample = [SpherePoint(v) for v in fx["inputs"]["samples"][0]]
        s = class_scores(model, sample)
        p = ensemble_probability(model, sample)
        np.testing.assert_allclose(p, s / s.sum(), rtol=0, atol=1e-15)

    def test_predict_tie_breaks_to_smallest(self):
        mu = [1.0, 0.0]
        grid = [[GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=0.5, normalizer=0.3),
                 GaussianDensity(mu=SpherePoint([0.0, 1.0]), sigma=0.5, normalizer=0.3)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=2,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        s = 1.0 / math.sqrt(2.0)
        diagonal = [SpherePoint([s, s])]
        scores = class_scores(model, diagonal)
        assert scores[0] == scores[1]
        assert predict(model, diagonal) == 0

    def test_predict_separable_means(self):
        # densities whose means are the test points classify them perfectly
        rng = np.random.default_rng(0)
        c = 3
        mus = [oracles.positive_quadrant_point(rng, c) for _ in range(c)]
        grid = [[GaussianDensity(mu=SpherePoint(mus[j]), sigma=0.2, normalizer=1.0)
                 for j in range(c)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=c,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        for j in range(c):
            assert predict(model, [SpherePoint(mus[j])]) == j

    def test_scaling_argmax_invariance(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        sample = [SpherePoint(v) for v in fx["inputs"]["samples"][1]]
        s = class_scores(model, sample)
        assert int(np.argmax(s)) == int(np.argmax(1234.5 * s))

    def test_degenerate_scores(self):
        grid = [[GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=1e-3, normalizer=1.0),
                 GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=1e-3, normalizer=1.0)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=2,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        with pytest.raises(DegenerateScores, match="for sample 0$"):
            ensemble_probability(model, [SpherePoint([0.0, 1.0])])
        # a batch names its first underflowing sample
        features = [np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])]
        for score in (ensemble_probability_batch, predict_batch):
            with pytest.raises(DegenerateScores, match="for sample 2$"):
                score(model, features)


class TestLabelDistance:
    def test_one_hot_is_zero(self):
        assert label_distance(1, [0.0, 1.0, 0.0]) == 0.0

    def test_uniform_four_classes(self):
        assert label_distance(2, [0.25] * 4) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_fixture(self):
        fx = load_fixture("label_distance")
        got = label_distance(fx["inputs"]["y"], fx["inputs"]["p"])
        assert got == pytest.approx(fx["expected"]["distance"], abs=fx["tolerance"])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateScores):
            label_distance(0, [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e-295])
    def test_underflowing_scores_keep_their_direction(self, scale):
        # the squares of these scores underflow to 0, their direction does not
        assert label_distance(0, [scale, scale]) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            label_distance(3, [0.5, 0.5])


class TestLoss:
    def test_uniform_single_sample(self):
        # scores proportional to uniform give distance pi/3 at c = 4
        P = np.full((1, 1, 4), 0.7)
        at = np.ones(1)
        assert _loss_from_pdf(P, np.asarray([2]), at) == pytest.approx(
            (math.pi / 3) ** 2, abs=1e-14
        )

    def test_zero_loss_iff_one_hot(self):
        P = np.zeros((4, 1, 3))
        labels = np.asarray([0, 1, 2, 1])
        P[np.arange(4), 0, labels] = 5.0
        P[P == 0.0] = 1e-300
        at = np.ones(1)
        assert _loss_from_pdf(P, labels, at) <= 1e-12

    @pytest.mark.parametrize("tiny", [1e-170, 1e-295])
    @pytest.mark.parametrize("pattern", [
        np.ones((2, 3)),
        np.asarray([[1.0, 0.5, 0.25], [0.3, 0.6, 0.9]]),
    ])
    def test_tiny_scores_keep_their_norm(self, tiny, pattern):
        # the squares of scores below ~1.5e-162 underflow to 0, the norm must not
        n, c = 12, 3
        labels = np.arange(n) % c
        P = np.random.default_rng(21).uniform(0.05, 1.0, (n, 2, c))
        uniform = np.full(2, math.sqrt(0.5))
        P[0] = pattern
        reference = _loss_from_pdf(P, labels, uniform)
        reference_gradient = riemannian_gradient(P, labels, uniform)
        P[0] = tiny * pattern
        assert _loss_from_pdf(P, labels, uniform) == pytest.approx(reference, abs=1e-15)
        gradient = riemannian_gradient(P, labels, uniform)
        assert np.all(np.isfinite(gradient))
        np.testing.assert_allclose(gradient, reference_gradient, rtol=0, atol=1e-14)
        P[0] = 0.0
        with pytest.raises(DegenerateScores, match="for sample 0$"):
            _loss_from_pdf(P, labels, uniform)

    def test_fixture_vs_summation_oracle(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        batch = LabeledBatch(
            [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)],
            np.asarray(fx["inputs"]["labels"]),
        )
        assert loss(model, batch) == pytest.approx(fx["expected"]["loss"], abs=fx["tolerance"])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            LabeledBatch([], np.asarray([], dtype=np.int64))


class TestGradient:
    def test_analytic_matches_fd_on_random_models(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            m = int(rng.integers(2, 6))
            c = int(rng.integers(2, 5))
            P = rng.uniform(0.01, 2.0, (n, m, c))
            labels = rng.integers(0, c, n)
            at = np.abs(rng.standard_normal(m)) + 0.05
            at /= np.linalg.norm(at)
            analytic = riemannian_gradient(P, labels, at, grad_mode="analytic")
            fd = oracles.oracle_fd_gradient(lambda a: _loss_from_pdf(P, labels, a), at)
            denom = max(float(np.linalg.norm(analytic)), 1e-12)
            assert float(np.linalg.norm(analytic - fd)) / denom <= 1e-5

    def test_radial_invariance(self):
        # L(c * at) = L(at): the euclidean gradient is already tangent
        rng = np.random.default_rng(101)
        P = rng.uniform(0.1, 1.0, (20, 3, 4))
        labels = rng.integers(0, 4, 20)
        at = np.abs(rng.standard_normal(3))
        at /= np.linalg.norm(at)
        assert _loss_from_pdf(P, labels, 2.0 * at) == pytest.approx(
            _loss_from_pdf(P, labels, at), rel=1e-12
        )


class TestFitWeights:
    def test_single_network_zero_iterations(self):
        P = np.random.default_rng(0).uniform(0.1, 1.0, (10, 1, 3))
        w, meta = fit_weights_from_pdf(P, np.zeros(10, dtype=np.int64))
        np.testing.assert_array_equal(w.alpha, [1.0])
        assert meta["iterations_run"] == 0

    def test_identical_networks_stay_uniform(self):
        rng = np.random.default_rng(1)
        half = rng.uniform(0.1, 1.0, (15, 1, 3))
        P = np.concatenate([half, half], axis=1)
        labels = rng.integers(0, 3, 15)
        w, meta = fit_weights_from_pdf(P, labels)
        # constant loss surface: gradient vanishes, weights stay uniform
        np.testing.assert_allclose(w.alpha, [0.5, 0.5], rtol=0, atol=1e-12)
        assert abs(w.alpha.sum() - 1.0) <= 1e-12
        assert meta["final_loss"] == pytest.approx(
            _loss_from_pdf(half, labels, np.ones(1)), rel=1e-12
        )

    def test_accurate_plus_random_vs_grid_oracle(self):
        fx = load_fixture("fit_weights_grid")
        grid = gaussian_grid(fx["inputs"]["densities"])
        feats = [np.asarray(f) for f in fx["inputs"]["features"]]
        labels = np.asarray(fx["inputs"]["labels"])
        batch = LabeledBatch(feats, labels)
        w, meta = fit_weights(pdf_grid(grid, batch.features), batch)
        assert w.alpha[0] > w.alpha[1]
        assert w.alpha[0] == pytest.approx(fx["expected"]["alpha_accurate"], abs=fx["tolerance"])
        assert meta["final_loss"] <= fx["expected"]["uniform_loss"] + 1e-12
        assert meta["final_loss"] == pytest.approx(fx["expected"]["optimal_loss"], abs=1e-3)

    def test_simplex_preserved_and_descent(self):
        rng = np.random.default_rng(2)
        for eta in (1e-2, 1e-3):
            n, m, c = 30, 4, 3
            P = rng.uniform(0.01, 1.5, (n, m, c))
            labels = rng.integers(0, c, n)
            initial = _loss_from_pdf(P, labels, np.full(m, 1 / math.sqrt(m)))
            w, meta = fit_weights_from_pdf(P, labels, eta=eta, max_iters=500)
            assert np.all(w.alpha >= 0.0)
            assert abs(w.alpha.sum() - 1.0) <= 1e-12
            assert meta["final_loss"] <= initial + 1e-12

    def test_non_finite_loss_raises(self):
        P = np.full((5, 2, 3), np.nan)
        with pytest.raises(NonFiniteLoss):
            fit_weights_from_pdf(P, np.zeros(5, dtype=np.int64))

    def test_backtracking_never_increases(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(0.01, 1.5, (25, 3, 4))
        labels = rng.integers(0, 4, 25)
        w, meta = fit_weights_from_pdf(P, labels, eta=2.0, backtrack=True, max_iters=200)
        initial = _loss_from_pdf(P, labels, np.full(3, 1 / math.sqrt(3)))
        assert meta["final_loss"] <= initial + 1e-12


class TestEvaluate:
    def test_fixture_counting_oracle(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        batch = LabeledBatch(
            [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)],
            np.asarray(fx["inputs"]["labels"]),
        )
        result = evaluate(model, batch)
        assert result["accuracy"] == pytest.approx(fx["expected"]["accuracy"], abs=1e-12)
        assert result["mean_loss"] == pytest.approx(fx["expected"]["loss"], abs=1e-12)

    def test_always_correct_model(self):
        rng = np.random.default_rng(4)
        c = 3
        mus = [oracles.positive_quadrant_point(rng, c) for _ in range(c)]
        grid = [[GaussianDensity(mu=SpherePoint(mus[j]), sigma=0.2, normalizer=1.0)
                 for j in range(c)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=c,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        labels = np.asarray([0, 1, 2, 2, 1, 0])
        batch = LabeledBatch([np.asarray([mus[j] for j in labels])], labels)
        result = evaluate(model, batch)
        assert result["accuracy"] == 1.0
        np.testing.assert_array_equal(result["per_class_accuracy"], [1.0, 1.0, 1.0])

    def test_permuted_labels_counting(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        feats = [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)]
        predicted = predict_batch(model, feats)
        wrong = (predicted + 1) % model.c
        batch = LabeledBatch(feats, wrong)
        assert evaluate(model, batch)["accuracy"] == 0.0

    def test_degenerate_mixture_equals_density_argmax(self):
        rng = np.random.default_rng(5)
        c, n = 4, 60
        labels = rng.integers(0, c, n)
        logits = np.eye(c)[labels] / 0.6 + 0.6 * rng.standard_normal((n, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        feats = [np.sqrt(e / e.sum(axis=1, keepdims=True))]
        batch = LabeledBatch(feats, labels)
        model = fit_ensemble(batch, c)
        assert model.m == 1
        predicted = predict_batch(model, batch.features)
        values = np.column_stack(
            [model.densities[0][j].pdf_batch(batch.features[0]) for j in range(c)]
        )
        np.testing.assert_array_equal(predicted, np.argmax(values, axis=1))
        agree = float(np.mean(predicted == batch.labels))
        assert density_argmax_accuracy(model, batch, 0) == agree


class TestBatchValidation:
    def test_ragged_features(self):
        with pytest.raises(DimensionMismatch):
            LabeledBatch([np.ones((3, 2)), np.ones((4, 2))], np.zeros(3, dtype=np.int64))

    def test_label_out_of_range_in_fit(self):
        batch = LabeledBatch([np.eye(3)], np.asarray([0, 1, 2]))
        with pytest.raises(LabelOutOfRange):
            fit_densities(batch, 2)

    def test_threads_match_serial(self):
        rng = np.random.default_rng(6)
        c, n = 3, 40
        labels = rng.integers(0, c, n)
        logits = np.eye(c)[labels] + rng.standard_normal((n, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        feats = [np.sqrt(e / e.sum(axis=1, keepdims=True)) for _ in range(2)]
        batch = LabeledBatch(feats, labels)
        serial, P_serial = fit_densities(batch, c, threads=1)
        threaded, P_threaded = fit_densities(batch, c, threads=4)
        for row_a, row_b in zip(serial, threaded):
            for a, b in zip(row_a, row_b):
                np.testing.assert_array_equal(a.mu.coords, b.mu.coords)
                assert a.sigma == b.sigma and a.normalizer == b.normalizer
        np.testing.assert_array_equal(P_serial, P_threaded)


def sphere_batch(rng, m, c, n):
    labels = rng.integers(0, c, n)
    feats = []
    for _ in range(m):
        logits = np.eye(c)[labels] + rng.standard_normal((n, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        feats.append(np.sqrt(e / e.sum(axis=1, keepdims=True)))
    return LabeledBatch(feats, labels)


def grassmann_batch(rng, dims, c, n):
    labels = rng.integers(0, c, n)
    feats = []
    for d in dims:
        centers = rng.standard_normal((c, d))
        feats.append(embed_feature_rows(centers[labels] + 0.5 * rng.standard_normal((n, d))))
    return LabeledBatch(feats, labels, "grassmann")


class TestFusedTrainTensor:
    """fit_densities' train tensor comes from the kernel evaluations that set
    the normalizers; it must equal a separate pdf_grid pass bit for bit."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    def test_equals_pdf_grid(self, kind, space):
        rng = np.random.default_rng(7)
        c = 3
        if space == "sphere":
            batch = sphere_batch(rng, 3, c, 90)
        else:
            batch = grassmann_batch(rng, (4, 6, 5), c, 90)
        densities, P_train = fit_densities(batch, c, kind, kde_max_support=20)
        assert P_train.shape == (batch.n, batch.m, c)
        np.testing.assert_array_equal(P_train, pdf_grid(densities, batch.features))
        threaded, P_threaded = fit_densities(batch, c, kind, kde_max_support=20, threads=4)
        np.testing.assert_array_equal(P_threaded, P_train)
        for row_a, row_b in zip(densities, threaded):
            assert [a.normalizer for a in row_a] == [b.normalizer for b in row_b]

    def test_fit_weights_checks_tensor_shape(self):
        batch = sphere_batch(np.random.default_rng(9), 2, 3, 30)
        with pytest.raises(DimensionMismatch):
            fit_weights(np.ones((30, 3, 3)), batch)
        with pytest.raises(LabelOutOfRange):
            fit_weights(np.ones((30, 2, 1)), batch)


def random_pdf_problem(seed, n=80, m=5, c=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 2.0, (n, m, c)), rng.integers(0, c, n)


class TestDescentMatchesReference:
    """The descent on the (n*c, m) layout, with one scores pass and one
    gradient pass per step, follows the iterates of the formula-by-formula
    reference loop in oracles.py (tensordot scores, einsum gradient, two
    loss evaluations per step)."""

    @pytest.mark.parametrize("options", [
        {},
        {"max_iters": 300, "tol": 1e-300},
        {"eta": 2.0, "backtrack": True},
        {"eta": 0.5, "grad_mode": "finite-difference", "max_iters": 200},
    ], ids=["tol-stop", "fixed-steps", "backtrack", "finite-difference"])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_same_iterates(self, options, seed):
        P, labels = random_pdf_problem(seed)
        w, meta = fit_weights_from_pdf(P, labels, **options)
        ref_at, ref_iterations, ref_loss = oracles.ref_fit_weights(P, labels, **options)
        assert meta["iterations_run"] == ref_iterations
        np.testing.assert_allclose(w.alpha_tilde, ref_at, rtol=0, atol=1e-13)
        assert meta["final_loss"] == pytest.approx(ref_loss, rel=1e-13)

    def test_gradient_and_loss(self):
        P, labels = random_pdf_problem(13)
        at = np.abs(np.random.default_rng(14).standard_normal(P.shape[1]))
        at /= np.linalg.norm(at)
        assert _loss_from_pdf(P, labels, at) == pytest.approx(
            oracles.ref_descent_loss(P, labels, at), rel=1e-14)
        for mode in ("analytic", "finite-difference"):
            np.testing.assert_allclose(
                riemannian_gradient(P, labels, at, grad_mode=mode),
                oracles.ref_descent_gradient(P, labels, at, mode), rtol=0, atol=1e-14)


class TestPdfLayout:
    """pdf tensors are stored sample x class x network, so the descent's
    (n*c, m) matrix is a view, not a copy."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_fit_densities_and_pdf_grid_layout(self, kind):
        batch = sphere_batch(np.random.default_rng(15), 3, 4, 50)
        densities, P_train = fit_densities(batch, 4, kind)
        P = pdf_grid(densities, batch.features)
        for T in (P_train, P):
            assert T.shape == (50, 3, 4)
            assert T.transpose(0, 2, 1).flags.c_contiguous
            assert np.shares_memory(T.transpose(0, 2, 1).reshape(50 * 4, 3), T)

    def test_plain_array_gives_bit_equal_weights(self):
        batch = sphere_batch(np.random.default_rng(16), 4, 3, 60)
        _, P_train = fit_densities(batch, 3)
        plain = np.ascontiguousarray(P_train)
        assert plain.flags.c_contiguous and not P_train.flags.c_contiguous
        for options in ({}, {"backtrack": True, "eta": 2.0}):
            w_view, meta_view = fit_weights(P_train, batch, **options)
            w_plain, meta_plain = fit_weights(plain, batch, **options)
            np.testing.assert_array_equal(w_view.alpha_tilde, w_plain.alpha_tilde)
            assert meta_view == meta_plain

    def test_degenerate_scores_raised_during_descent(self):
        n, c = 12, 3
        labels = np.arange(n) % c
        P = np.empty((n, 2, c))
        P[:, 0, :] = 0.05
        P[np.arange(n), 0, labels] = 1.0  # network 0 is sharp and right
        P[:, 1, :] = 1.0  # network 1 is flat
        P[7, 0, :] = 0.0  # only network 1 sees sample 7, at 1e-290
        P[7, 1, :] = 1e-290
        uniform = np.full(2, math.sqrt(0.5))
        assert np.isfinite(_loss_from_pdf(P, labels, uniform))
        # a first step of arc length pi/4 lands next to the vertex of network 0
        # (alpha_1 ~ 5e-32), where sample 7's scores fall to ~5e-322 < _SCORE_EPS
        eta = (math.pi / 4) / np.linalg.norm(riemannian_gradient(P, labels, uniform))
        with pytest.raises(DegenerateScores, match="for sample 7$"):
            fit_weights_from_pdf(P, labels, eta=eta, max_iters=1)


class TestDescentDiagnostics:
    def test_fit_meta_fields(self):
        P, labels = random_pdf_problem(17, m=4)
        w, meta = fit_weights_from_pdf(P, labels)
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] < 5000
        uniform = np.full(4, 0.5)
        assert meta["uniform_loss"] == _loss_from_pdf(P, labels, uniform)
        assert meta["final_loss"] <= meta["uniform_loss"]
        assert meta["grad_norm"] == pytest.approx(
            float(np.linalg.norm(riemannian_gradient(P, labels, w.alpha_tilde))), rel=1e-12)
        assert meta["effective_networks"] == pytest.approx(1.0 / np.sum(w.alpha ** 2), rel=1e-15)
        assert 1.0 <= meta["effective_networks"] <= 4.0

    def test_stop_reason_max_iters(self):
        P, labels = random_pdf_problem(18)
        _, meta = fit_weights_from_pdf(P, labels, max_iters=3)
        assert meta["stop_reason"] == "max_iters" and meta["iterations_run"] == 3

    def test_single_network(self):
        P, labels = random_pdf_problem(19, m=1)
        _, meta = fit_weights_from_pdf(P, labels)
        assert meta["iterations_run"] == 0 and meta["stop_reason"] == "tol"
        assert meta["grad_norm"] == 0.0 and meta["effective_networks"] == 1.0
        assert meta["uniform_loss"] == meta["final_loss"]


class TestEvaluateDensityAccuracies:
    def test_matches_per_network_classifier(self):
        rng = np.random.default_rng(20)
        batch = grassmann_batch(rng, (4, 6), 3, 60)
        model = fit_ensemble(batch, 3, "kde")
        result = evaluate(model, batch)
        assert result["density_argmax_accuracy"] == [
            density_argmax_accuracy(model, batch, i) for i in range(model.m)
        ]


class TestDeskWeightsPinned:
    """Pins what the paper's loss learns on the seeded desk suite, without
    endorsing it: the parametric mixture collapses onto one network and
    scores that network's level, while uniform weights score 1.000. A
    change here must be deliberate."""

    def test_parametric_collapses_to_network_2(self, desk_suite, fitted_models):
        model = fitted_models["parametric"]["model"]
        assert model.fit_meta["iterations_run"] == 1328
        assert model.fit_meta["effective_networks"] < 1.01
        assert int(np.argmax(model.weights.alpha)) == 2
        accuracy = evaluate(model, desk_suite["test"])["accuracy"]
        assert accuracy == 0.696
        assert abs(accuracy - desk_suite["standalone_test_accuracy"][2]) <= 0.002
        uniform = EnsembleModel(
            kind=model.kind, space=model.space, m=model.m, c=model.c,
            densities=model.densities, weights=MixtureWeights.uniform(model.m), fit_meta={},
        )
        assert evaluate(uniform, desk_suite["test"])["accuracy"] == 1.0

    def test_kde_keeps_many_networks(self, fitted_models):
        meta = fitted_models["kde"]["model"].fit_meta
        assert meta["iterations_run"] == 1428
        assert meta["effective_networks"] > 5
