import math
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import load_fixture
from spheremix.density import GaussianDensity, KernelDensity, kde_cell
from spheremix.ensemble import (
    EnsembleModel,
    LabeledBatch,
    MixtureWeights,
    ensemble_probability_batch,
    evaluate,
    fit_densities,
    fit_ensemble,
    fit_weights,
    fit_weights_from_pdf,
    label_distance,
    loss,
    pdf_grid,
    predict_batch,
    shift_to_pdf,
    _Objective,
    _shifted_scores,
    argmax_classes,
    score_report,
    standalone_classes,
    tensor_scores,
)
from spheremix import _kernels, density, ensemble
from spheremix.errors import (
    AntipodalPoints,
    DegenerateScores,
    DimensionMismatch,
    EmptyBatch,
    EmptySampleSet,
    LabelOutOfRange,
    NonFiniteLoss,
)
from spheremix.estimators import SampleSet, mean_point
from spheremix.io import embed_feature_rows, embed_probability_rows
from spheremix.synth import make_suite
from spheremix.sphere import SpherePoint


def gaussian_grid(params):
    return [
        [GaussianDensity(mu=SpherePoint(mu), sigma=s, normalizer=n) for mu, s, n in row]
        for row in params
    ]


def one_row(sample):
    """A one-sample batch: the (1, d) table of each network's point."""
    return [SpherePoint(v).coords[None, :] for v in sample]


def unshifted_scores(model, features):
    """The scores sum_i alpha_i p_ij(x) of a batch: ``_shifted_scores``, each
    row times exp of its largest log density under a network of nonzero weight."""
    L = pdf_grid(model.densities, features)
    shift = L[:, model.weights.alpha > 0.0].max(axis=(1, 2))
    return _shifted_scores(model, features) * np.exp(shift)[:, None]


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
        features = one_row(fx["inputs"]["sample"][:1])
        expected = [grid[0][j].pdf(features[0][0]) for j in range(2)]
        np.testing.assert_allclose(unshifted_scores(model, features)[0], expected, rtol=1e-15)

    def test_zero_weight_annihilates(self):
        fx = load_fixture("class_scores")
        model = model_from_fixture(fx, alpha=[1.0, 0.0])
        features = one_row(fx["inputs"]["sample"])
        x = features[0][0]
        scores = model.densities[0][0].pdf(x), model.densities[0][1].pdf(x)
        np.testing.assert_allclose(unshifted_scores(model, features)[0], scores, rtol=1e-15)

    def test_manual_weighted_sum_fixture(self):
        fx = load_fixture("class_scores")
        model = model_from_fixture(fx)
        np.testing.assert_allclose(
            unshifted_scores(model, one_row(fx["inputs"]["sample"]))[0], fx["expected"]["scores"],
            rtol=0, atol=fx["tolerance"],
        )

    def test_probability_normalization(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        for sample in fx["inputs"]["samples"]:
            p = ensemble_probability_batch(model, one_row(sample))[0]
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0)

    def test_probability_proportional_to_scores(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        features = one_row(fx["inputs"]["samples"][0])
        s = unshifted_scores(model, features)[0]
        p = ensemble_probability_batch(model, features)[0]
        np.testing.assert_allclose(p, s / s.sum(), rtol=0, atol=1e-15)

    def test_predict_tie_breaks_to_smallest(self):
        mu = [1.0, 0.0]
        grid = [[GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=0.5, normalizer=0.3),
                 GaussianDensity(mu=SpherePoint([0.0, 1.0]), sigma=0.5, normalizer=0.3)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=2,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        s = 1.0 / math.sqrt(2.0)
        diagonal = one_row([[s, s]])
        scores = _shifted_scores(model, diagonal)
        assert scores[0, 0] == scores[0, 1]
        assert predict_batch(model, diagonal)[0] == 0

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
            assert predict_batch(model, one_row([mus[j]]))[0] == j

    def test_scaling_argmax_invariance(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        s = unshifted_scores(model, one_row(fx["inputs"]["samples"][1]))[0]
        assert int(np.argmax(s)) == int(np.argmax(1234.5 * s))

    def test_degenerate_scores(self):
        # at [0, 1] both densities are exp(-(pi/2)^2 / 2e-6), far below 1e-300,
        # yet the scores are shifted by their largest log density and do not
        # underflow: the row keeps its tie and a finite probability vector
        grid = [[GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=1e-3, normalizer=1.0),
                 GaussianDensity(mu=SpherePoint([1.0, 0.0]), sigma=1e-3, normalizer=1.0)]]
        model = EnsembleModel(kind="parametric", space="sphere", m=1, c=2,
                              densities=grid, weights=MixtureWeights.uniform(1), fit_meta={})
        assert grid[0][0].pdf([0.0, 1.0]) == 0.0
        np.testing.assert_array_equal(ensemble_probability_batch(model, one_row([[0.0, 1.0]])),
                                      [[0.5, 0.5]])
        features = [np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])]
        probs = ensemble_probability_batch(model, features)
        np.testing.assert_array_equal(probs, np.full((4, 2), 0.5))
        np.testing.assert_array_equal(predict_batch(model, features), [0, 0, 0, 0])

    @pytest.mark.parametrize("grid", [
        # sample 1 lies at network 1's mean, over a million nats above
        # network 0's densities there
        gaussian_grid([[([1.0, 0.0], 1e-3, 1.0)] * 2, [([0.0, 1.0], 1e-3, 1.0)] * 2]),
        # network 1's densities lie 1,381 nats above network 0's at every point
        gaussian_grid([[([1.0, 0.0], 0.5, 1e-300), ([0.6, 0.8], 0.5, 1e-300)],
                       [([1.0, 0.0], 0.5, 1e300), ([0.6, 0.8], 0.5, 1e300)]]),
    ], ids=["distance", "normalizer"])
    def test_zero_weight_network_sets_no_shift(self, grid):
        # alpha_1 = 0 exactly: were network 1 to set the samples' shift,
        # network 0's shifted scores would underflow to all-zero rows and
        # abort the batch; the mixture scores as network 0 alone does
        model = EnsembleModel(kind="parametric", space="sphere", m=2, c=2, densities=grid,
                              weights=MixtureWeights.from_alpha([1.0, 0.0]), fit_meta={})
        alone = EnsembleModel(kind="parametric", space="sphere", m=1, c=2, densities=grid[:1],
                              weights=MixtureWeights.uniform(1), fit_meta={})
        features = [np.asarray([[1.0, 0.0], [0.0, 1.0]])] * 2
        probs = ensemble_probability_batch(model, features)
        np.testing.assert_array_equal(probs, ensemble_probability_batch(alone, features[:1]))
        np.testing.assert_array_equal(predict_batch(model, features),
                                      predict_batch(alone, features[:1]))
        report = evaluate(model, features, [0, 1])
        expected = evaluate(alone, features[:1], [0, 1])
        assert report["accuracy"] == expected["accuracy"]
        assert report["mean_loss"] == expected["mean_loss"]
        # network 0's cells share a width and a normalizer: its probabilities
        # are the softmax of -arc^2 / (2 sigma^2), (0.5, 0.5) where the means agree
        mus = np.asarray([d.support.points[0] for d in grid[0]])
        arcs = np.arccos(np.clip(features[0] @ mus.T, -1.0, 1.0))
        own = -arcs ** 2 / (2 * grid[0][0].bandwidth ** 2)
        own = np.exp(own - own.max(axis=1)[:, None])
        np.testing.assert_allclose(probs, own / own.sum(axis=1)[:, None], rtol=1e-12)

    def test_non_finite_row_is_degenerate(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        features = [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)]
        features[1][2] = np.nan
        for score in (ensemble_probability_batch, predict_batch):
            with pytest.raises(DegenerateScores, match="for sample 2$"):
                score(model, features)

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("row", [[0.1] * 10, [0.5, 0.5] + [0.0] * 8],
                             ids=["uniform", "fifty-fifty"])
    def test_ambiguous_rows_score(self, kind, row):
        # three sharp networks (tau = 0.1): every density of both rows lies
        # below 1e-300, which aborted the whole batch before scoring in log space
        suite = make_suite(18, 3, 10, 600, 1, [0.1] * 3)
        batch = LabeledBatch([embed_probability_rows(t) for t in suite["train"]],
                             suite["train_labels"])
        model = fit_ensemble(batch, 10, kind)
        features = [embed_probability_rows(np.asarray([row]))] * 3
        assert np.all(pdf_grid(model.densities, features) < math.log(1e-300))
        probs = ensemble_probability_batch(model, features)
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12
        assert predict_batch(model, features)[0] == int(np.argmax(probs))


class TestBatchShape:
    """Every scoring path, through ``pdf_grid`` or the fold, reaches
    ``network_log_densities``, which checks that a batch has one table per
    network and that the tables agree on their rows: an extra table is not
    dropped, a missing or short one fails by name."""

    @staticmethod
    def tables(desk_suite, case):
        features = list(desk_suite["test"].features)
        if case == "extra":
            features.append(features[0])
        elif case == "missing":
            features.pop()
        else:
            features[5] = features[5][:500]
        return features

    MESSAGES = {
        "extra": "^21 tables for a model with m=20$",
        "missing": "^19 tables for a model with m=20$",
        "short": "^network 5 table has 500 rows, expected 1000$",
    }

    @pytest.mark.parametrize("case", ["extra", "missing", "short"])
    @pytest.mark.parametrize("score", [predict_batch, ensemble_probability_batch])
    def test_mismatched_tables(self, desk_suite, fitted_models, score, case):
        model = fitted_models["parametric"]["model"]
        with pytest.raises(DimensionMismatch, match=self.MESSAGES[case]):
            score(model, self.tables(desk_suite, case))

    @pytest.mark.parametrize("case", ["extra", "missing"])
    def test_evaluate_network_count(self, desk_suite, fitted_models, case):
        model = fitted_models["parametric"]["model"]
        batch = LabeledBatch(self.tables(desk_suite, case), desk_suite["test"].labels)
        with pytest.raises(DimensionMismatch, match=self.MESSAGES[case]):
            evaluate(model, batch.features, batch.labels)

    @pytest.mark.parametrize("case", ["extra", "missing", "short"])
    def test_streamed_tables(self, desk_suite, fitted_models, case):
        # pdf_grid takes any iterable of tables, and a generator fails as a list does
        model = fitted_models["parametric"]["model"]
        with pytest.raises(DimensionMismatch, match=self.MESSAGES[case]):
            pdf_grid(model.densities, iter(self.tables(desk_suite, case)))

    def test_each_table_dropped_before_the_next(self, desk_suite, fitted_models):
        model = fitted_models["parametric"]["model"]
        alive = []

        def tables():
            for f in desk_suite["test"].features:
                assert all(ref() is None for ref in alive)
                table = f[:50].copy()
                alive.append(weakref.ref(table))
                yield table
                del table

        pdf_grid(model.densities, tables())
        assert len(alive) == 20

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_generator_gives_the_list_bits(self, desk_suite, fitted_models, kind):
        model = fitted_models[kind]["model"]
        features = [f[:200] for f in desk_suite["test"].features]
        assert (pdf_grid(model.densities, (f for f in features)).tobytes()
                == pdf_grid(model.densities, features).tobytes())
        assert (ensemble_probability_batch(model, (f for f in features)).tobytes()
                == ensemble_probability_batch(model, features).tobytes())

    def test_evaluate_reads_labels_after_the_tables(self, desk_suite, fitted_models):
        model = fitted_models["kde"]["model"]
        features = [f[:200] for f in desk_suite["test"].features]
        labels = desk_suite["test"].labels[:200]
        read = []

        def tables():
            for f in features:
                assert not read
                yield f

        def read_labels(n):
            read.append(n)
            return labels

        streamed = evaluate(model, tables(), read_labels)
        assert read == [200]
        assert repr(streamed) == repr(evaluate(model, features, labels))
        with pytest.raises(DimensionMismatch, match="^199 labels for 200 samples$"):
            evaluate(model, features, labels[:-1])
        with pytest.raises(LabelOutOfRange):
            evaluate(model, features, np.full(200, model.c))


def by_tensor(model, features, *alphas):
    """The scores of each weight vector by the tensor formula, pdf_grid then
    shift_to_pdf then tensor_scores, with the shift and the density classes."""
    P = pdf_grid(model.densities, features)
    density_classes = [argmax_classes(P[:, i, :]) for i in range(model.m)]
    shift = shift_to_pdf(P)
    return [tensor_scores(P, a) for a in alphas], shift, density_classes


class TestFold:
    """Scoring folds each network's log densities into running class scores
    under a running per-sample maximum, and gives the tensor formula's
    numbers to rounding without building the (n, m, c) tensor."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_probabilities_match_the_tensor(self, desk_suite, fitted_models, kind):
        model = fitted_models[kind]["model"]
        features = desk_suite["test"].features
        (scores,), _, _ = by_tensor(model, features, model.weights.alpha)
        probs = ensemble_probability_batch(model, features)
        np.testing.assert_allclose(probs, scores / scores.sum(axis=1)[:, None],
                                   rtol=4e-15, atol=0)
        np.testing.assert_array_equal(predict_batch(model, features), np.argmax(scores, axis=1))
        # every desk weight is nonzero, so the fold's shift is the tensor's
        # per-sample maximum and the scores agree unnormalized
        assert np.all(model.weights.alpha > 0.0)
        np.testing.assert_allclose(_shifted_scores(model, features), scores, rtol=4e-15, atol=0)

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_evaluate_matches_the_tensor(self, desk_suite, fitted_models, kind):
        model = fitted_models[kind]["model"]
        test = desk_suite["test"]
        (scores, uniform), _, density_classes = by_tensor(
            model, test.features, model.weights.alpha, MixtureWeights.uniform(model.m).alpha)
        expected = score_report(scores, uniform, test.labels, density_classes,
                                [standalone_classes(f, model.space) for f in test.features])
        result = evaluate(model, test.features, test.labels)
        assert result.pop("mean_loss") == pytest.approx(expected.pop("mean_loss"), rel=1e-14)
        np.testing.assert_array_equal(result.pop("per_class_accuracy"),
                                      expected.pop("per_class_accuracy"))
        assert result == expected
        assert result["density_argmax_accuracy"] == [
            float(np.mean(np.argmax(np.column_stack([d.log_pdf_batch(f) for d in row]), axis=1)
                          == test.labels))
            for row, f in zip(model.densities, test.features)]

    def test_a_later_network_far_above_the_earlier_ones(self):
        # network 0 is sharp about (1, 0), network 1 broad about (0, 1): at
        # (0, 1) network 1's top lies about 12,000 nats above network 0's, so
        # the running scores of network 0 are rescaled by an exp that
        # underflows to 0, as exp(log p - max) does in the tensor
        grid = gaussian_grid([
            [([1.0, 0.0], 0.01, 1.0), ([0.8, 0.6], 0.02, 1.0)],
            [([0.0, 1.0], 0.5, 1.0), ([0.6, 0.8], 0.7, 2.0)],
        ])
        model = EnsembleModel(kind="parametric", space="sphere", m=2, c=2, densities=grid,
                              weights=MixtureWeights.from_alpha([0.7, 0.3]), fit_meta={})
        points = np.asarray([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6], [0.99, 0.141]])
        features = [points / np.linalg.norm(points, axis=1)[:, None]] * 2
        L = pdf_grid(grid, features)
        rise = L[:, 1].max(axis=1) - L[:, 0].max(axis=1)
        assert rise[1] > 745 and rise[0] < 0 and np.any((0 < rise) & (rise < 745))
        (scores,), shift, _ = by_tensor(model, features, model.weights.alpha)
        np.testing.assert_allclose(ensemble_probability_batch(model, features),
                                   scores / scores.sum(axis=1)[:, None], rtol=4e-15, atol=0)
        folded = _shifted_scores(model, features)
        # network 0's share of sample 1 is gone, as in the tensor
        np.testing.assert_array_equal(folded[1],
                                      model.weights.alpha[1] * np.exp(L[1, 1] - shift[1]))

    def test_density_classes_read_before_the_shift(self):
        # at (0, 1) the sharp later network lies over 745 nats below the
        # broad earlier one, so its shifted densities all underflow to 0; its
        # density class is still the argmax of its log densities, class 1
        grid = gaussian_grid([
            [([0.0, 1.0], 0.5, 1.0), ([0.6, 0.8], 0.7, 2.0)],
            [([1.0, 0.0], 0.01, 1.0), ([0.8, 0.6], 0.02, 1.0)],
        ])
        model = EnsembleModel(kind="parametric", space="sphere", m=2, c=2, densities=grid,
                              weights=MixtureWeights.from_alpha([0.5, 0.5]), fit_meta={})
        features = [np.asarray([[0.0, 1.0]])] * 2
        L = pdf_grid(grid, features)
        assert L[0, 1].max() < L[0].max() - 745 and L[0, 1].argmax() == 1
        assert evaluate(model, features, [1])["density_argmax_accuracy"] == [1.0, 1.0]

    def test_peak_below_the_tensor(self, desk_suite, fitted_models):
        # no (n, m, c) tensor: scoring the desk test split holds one network's
        # densities and the running scores, below the 1.6 MB tensor alone
        model = fitted_models["kde"]["model"]
        test = desk_suite["test"]
        tensor = 8 * test.n * model.m * model.c
        for score in (lambda: ensemble_probability_batch(model, test.features),
                      lambda: evaluate(model, test.features, test.labels)):
            tracemalloc.start()
            try:
                score()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tensor, peak / tensor

    def test_narrow_classes(self):
        values = np.asarray([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]])
        assert argmax_classes(values).dtype == np.uint8
        assert argmax_classes(values).tolist() == [1, 0]
        assert argmax_classes(np.zeros((2, 257))).dtype == np.uint16
        assert standalone_classes(values, "grassmann") is None


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

    def test_subnormal_scores_keep_their_direction(self):
        # a norm below 1e-300 was taken for the zero vector; the subnormal
        # grid leaves about 13 significant digits at 1e-310
        assert label_distance(0, [1e-310, 1e-310]) == pytest.approx(math.pi / 4, abs=1e-12)
        with pytest.raises(DegenerateScores):
            label_distance(0, [math.nan, 1.0])


class TestLoss:
    def test_uniform_single_sample(self):
        # scores proportional to uniform give distance pi/3 at c = 4
        P = np.full((1, 1, 4), 0.7)
        at = np.ones(1)
        assert _Objective(P, np.asarray([2])).at(at).loss == pytest.approx(
            (math.pi / 3) ** 2, abs=1e-14
        )

    def test_zero_loss_iff_one_hot(self):
        P = np.zeros((4, 1, 3))
        labels = np.asarray([0, 1, 2, 1])
        P[np.arange(4), 0, labels] = 5.0
        P[P == 0.0] = 1e-300
        at = np.ones(1)
        assert _Objective(P, labels).at(at).loss <= 1e-12

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
        objective = _Objective(P, labels)
        point = objective.at(uniform)
        reference, reference_gradient = point.loss, objective.gradient(point)
        P[0] = tiny * pattern
        objective = _Objective(P, labels)
        point = objective.at(uniform)
        assert point.loss == pytest.approx(reference, abs=1e-15)
        gradient = objective.gradient(point)
        assert np.all(np.isfinite(gradient))
        np.testing.assert_allclose(gradient, reference_gradient, rtol=0, atol=1e-14)
        P[0] = 0.0
        with pytest.raises(DegenerateScores, match="for sample 0$"):
            _Objective(P, labels).at(uniform)

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
            objective = _Objective(P, labels)
            analytic = objective.gradient(objective.at(at))
            fd = oracles.oracle_fd_gradient(lambda a: objective.at(a).loss, at)
            denom = max(float(np.linalg.norm(analytic)), 1e-12)
            assert float(np.linalg.norm(analytic - fd)) / denom <= 1e-5

    def test_radial_invariance(self):
        # L(c * at) = L(at): the euclidean gradient is already tangent
        rng = np.random.default_rng(101)
        P = rng.uniform(0.1, 1.0, (20, 3, 4))
        labels = rng.integers(0, 4, 20)
        at = np.abs(rng.standard_normal(3))
        at /= np.linalg.norm(at)
        objective = _Objective(P, labels)
        assert objective.at(2.0 * at).loss == pytest.approx(objective.at(at).loss, rel=1e-12)


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
            _Objective(half, labels).at(np.ones(1)).loss, rel=1e-12
        )

    def test_accurate_plus_random_vs_grid_oracle(self):
        fx = load_fixture("fit_weights_grid")
        grid = gaussian_grid(fx["inputs"]["densities"])
        feats = [np.asarray(f) for f in fx["inputs"]["features"]]
        labels = np.asarray(fx["inputs"]["labels"])
        batch = LabeledBatch(feats, labels)
        P = pdf_grid(grid, batch.features)
        shift_to_pdf(P)
        w, meta = fit_weights(P, batch)
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
            initial = _Objective(P, labels).at(np.full(m, 1 / math.sqrt(m))).loss
            w, meta = fit_weights_from_pdf(P, labels, eta=eta, max_iters=500)
            assert np.all(w.alpha >= 0.0)
            assert abs(w.alpha.sum() - 1.0) <= 1e-12
            assert meta["final_loss"] <= initial + 1e-12

    def test_non_finite_loss_raises(self):
        # a non-finite pdf tensor fails at its first scores pass
        P = np.full((5, 2, 3), np.nan)
        with pytest.raises(DegenerateScores, match="non-finite class scores for sample 0$"):
            fit_weights_from_pdf(P, np.zeros(5, dtype=np.int64))

    def test_overflowing_step_names_eta(self):
        # eta * ||grad|| is finite entry by entry, but the step's norm overflows
        P, labels = random_pdf_problem(10)
        with pytest.raises(NonFiniteLoss, match="reduce eta$"):
            fit_weights_from_pdf(P, labels, eta=1e200)

    @pytest.mark.parametrize("option", [
        {"eta": math.nan}, {"eta": math.inf}, {"tol": math.nan}, {"tol": math.inf},
    ], ids=["eta-nan", "eta-inf", "tol-nan", "tol-inf"])
    def test_non_finite_options_rejected(self, option):
        batch = sphere_batch(np.random.default_rng(17), 2, 3, 30)
        _, P_train = fit_densities(batch, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            fit_weights(P_train, batch, **option)

    @pytest.mark.parametrize("options", [
        {"eta": -1.0, "max_iters": 1}, {"eta": 0.0}, {"tol": math.nan}, {"max_iters": 0},
    ], ids=["negative-eta", "zero-eta", "nan-tol", "no-iterations"])
    def test_descent_from_pdf_checks_options(self, options):
        # a negative step once raised the loss; eta 0 and tol nan ran silently
        P, labels = random_pdf_problem(3, n=40, m=4, c=3)
        with pytest.raises(ValueError, match="positive and finite"):
            fit_weights_from_pdf(P, labels, **options)

    def test_backtracking_never_increases(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(0.01, 1.5, (25, 3, 4))
        labels = rng.integers(0, 4, 25)
        w, meta = fit_weights_from_pdf(P, labels, eta=2.0, max_iters=200)
        initial = _Objective(P, labels).at(np.full(3, 1 / math.sqrt(3))).loss
        assert meta["final_loss"] <= initial + 1e-12


class TestEvaluate:
    def test_fixture_counting_oracle(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        batch = LabeledBatch(
            [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)],
            np.asarray(fx["inputs"]["labels"]),
        )
        result = evaluate(model, batch.features, batch.labels)
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
        result = evaluate(model, batch.features, batch.labels)
        assert result["accuracy"] == 1.0
        np.testing.assert_array_equal(result["per_class_accuracy"], [1.0, 1.0, 1.0])

    def test_permuted_labels_counting(self):
        fx = load_fixture("ensemble_eval")
        model = model_from_fixture(fx)
        feats = [np.asarray([s[i] for s in fx["inputs"]["samples"]]) for i in range(model.m)]
        predicted = predict_batch(model, feats)
        wrong = (predicted + 1) % model.c
        batch = LabeledBatch(feats, wrong)
        assert evaluate(model, batch.features, batch.labels)["accuracy"] == 0.0

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
        result = evaluate(model, batch.features, batch.labels)
        assert result["density_argmax_accuracy"] == [agree]


class TestBatchValidation:
    def test_ragged_features(self):
        with pytest.raises(DimensionMismatch):
            LabeledBatch([np.ones((3, 2)), np.ones((4, 2))], np.zeros(3, dtype=np.int64))

    def test_label_out_of_range_in_fit(self):
        batch = LabeledBatch([np.eye(3)], np.asarray([0, 1, 2]))
        with pytest.raises(LabelOutOfRange):
            fit_densities(batch, 2)

    def test_parametric_cells_hold_one_point(self):
        # io writes only the first support point of a parametric cell
        two = KernelDensity(SampleSet(np.asarray([[1.0, 0.0], [0.0, 1.0]])), 0.5, 1.0)
        grid = [[GaussianDensity(SpherePoint([1.0, 0.0]), 0.5, 1.0), two]]
        args = dict(space="sphere", m=1, c=2, densities=grid,
                    weights=MixtureWeights.uniform(1), fit_meta={})
        EnsembleModel(kind="kde", **args)  # a KDE grid may mix support sizes
        with pytest.raises(ValueError, match="^a parametric model's cells must each hold one"):
            EnsembleModel(kind="parametric", **args)

    def test_threads_match_serial(self):
        rng = np.random.default_rng(6)
        c, n = 3, 40
        labels = rng.integers(0, c, n)
        logits = np.eye(c)[labels] + rng.standard_normal((n, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        feats = [np.sqrt(e / e.sum(axis=1, keepdims=True)) for _ in range(2)]
        batch = LabeledBatch(feats, labels)
        # KDE threads take one network's class_log_sums each; a parametric fit
        # is one pdf_grid pass whatever the thread count
        for kind in ("parametric", "kde"):
            serial, P_serial = fit_densities(batch, c, kind, threads=1)
            threaded, P_threaded = fit_densities(batch, c, kind, threads=4)
            for row_a, row_b in zip(serial, threaded):
                for a, b in zip(row_a, row_b):
                    np.testing.assert_array_equal(a.support.points, b.support.points)
                    assert a.bandwidth == b.bandwidth and a.normalizer == b.normalizer
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
    the normalizers. A parametric tensor equals a separate pdf_grid pass bit
    for bit. A KDE tensor comes from class-pair distance blocks, whose dot
    products BLAS rounds in other shapes than pdf_grid's, so it agrees at the
    kernel tests' tolerance. Threads never change a bit."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    def test_equals_pdf_grid(self, kind, space):
        rng = np.random.default_rng(7)
        c = 3
        if space == "sphere":
            batch = sphere_batch(rng, 3, c, 90)
        else:
            batch = grassmann_batch(rng, (4, 6, 5), c, 90)
        densities, P_train = fit_densities(batch, c, kind)
        assert P_train.shape == (batch.n, batch.m, c)
        if kind == "parametric":
            np.testing.assert_array_equal(P_train, pdf_grid(densities, batch.features))
        else:
            np.testing.assert_allclose(P_train, pdf_grid(densities, batch.features),
                                       rtol=1e-13, atol=0)
        threaded, P_threaded = fit_densities(batch, c, kind, threads=4)
        np.testing.assert_array_equal(P_threaded, P_train)
        for row_a, row_b in zip(densities, threaded):
            assert [a.normalizer for a in row_a] == [b.normalizer for b in row_b]

    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    def test_kde_cells_match_fit_kde(self, monkeypatch, space):
        # the shared class-pair blocks give each cell the width kde_cell gives
        # it, bit for bit, and its normalizer to the kernel tests' tolerance;
        # no cell makes its own kernel_sums call
        rng = np.random.default_rng(8)
        c = 4
        if space == "sphere":
            batch = sphere_batch(rng, 3, c, 120)
        else:
            batch = grassmann_batch(rng, (4, 6, 5), c, 120)
        means = {}
        for i, f in enumerate(batch.features):
            means[i] = _kernels.cell_means([f], batch.labels, c,
                                           sign_align=space == "grassmann")[0]

        def per_cell(*args, **kwargs):
            raise AssertionError("a KDE fit made a per-cell kernel_sums call")

        with monkeypatch.context() as patched:
            patched.setattr(_kernels, "kernel_sums", per_cell)
            densities, P_train = fit_densities(batch, c, "kde")
        for i, row in enumerate(densities):
            for j, got in enumerate(row):
                cell = SampleSet(batch.features[i][batch.labels == j], space)
                ref = density._normalized(kde_cell(cell, mean_point(means[i][j], space)),
                                          batch.features[i])
                np.testing.assert_array_equal(got.support.points, ref.support.points)
                assert got.bandwidth == ref.bandwidth
                assert got.normalizer == pytest.approx(ref.normalizer, rel=1e-13)
                np.testing.assert_allclose(P_train[:, i, j], ref.log_pdf_batch(batch.features[i]),
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind, grids, sums", [("parametric", 1, 0), ("kde", 0, 3)])
    def test_one_tensor_fill(self, monkeypatch, kind, grids, sums):
        # a parametric fit's tensor is one pdf_grid pass over the unnormalized
        # cells; a KDE fit's is one class_log_sums call per network
        calls = []
        for module, name in ((ensemble, "pdf_grid"), (_kernels, "class_log_sums")):
            def counting(*args, real=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        fit_densities(sphere_batch(np.random.default_rng(10), 3, 3, 60), 3, kind, threads=2)
        assert calls.count("pdf_grid") == grids and calls.count("class_log_sums") == sums

    def test_fit_weights_checks_tensor_shape(self):
        batch = sphere_batch(np.random.default_rng(9), 2, 3, 30)
        with pytest.raises(DimensionMismatch):
            fit_weights(np.ones((30, 3, 3)), batch)
        with pytest.raises(LabelOutOfRange):
            fit_weights(np.ones((30, 2, 1)), batch)


def grouped_by_class(batch):
    """The batch's rows grouped by class, each class in its batch order, as
    `fit` groups its tables; and the permutation that groups them."""
    order = np.argsort(batch.labels, kind="stable")
    return LabeledBatch([f[order] for f in batch.features], batch.labels[order],
                        batch.space), order


class TestGroupedSupports:
    """On a batch grouped by class every KDE support is a view of its
    network's table. Only the sums over samples (each normalizer's kernel
    mass) change order, so the cells and the tensor are the file-order fit's
    up to that rounding."""

    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    def test_supports_are_views(self, space):
        rng = np.random.default_rng(12)
        c = 4
        if space == "sphere":
            batch = sphere_batch(rng, 3, c, 150)
        else:
            batch = grassmann_batch(rng, (4, 6, 5), c, 150)
        grouped, order = grouped_by_class(batch)
        densities, L = fit_densities(batch, c, "kde")
        grouped_densities, L_grouped = fit_densities(grouped, c, "kde")
        for i, (row, grouped_row) in enumerate(zip(densities, grouped_densities)):
            for a, b in zip(row, grouped_row):
                assert np.shares_memory(b.support.points, grouped.features[i])
                assert not np.shares_memory(a.support.points, batch.features[i])
                np.testing.assert_array_equal(a.support.points, b.support.points)
                assert a.bandwidth == b.bandwidth
                assert b.normalizer == pytest.approx(a.normalizer, rel=1e-15, abs=0)
        np.testing.assert_allclose(L_grouped, L[order], rtol=1e-13, atol=0)

    def test_class_selectors(self):
        rows = _kernels.class_selectors([1, 1, 0, 2, 0], 4)
        assert rows[1] == slice(0, 2) and rows[2] == slice(3, 4)
        np.testing.assert_array_equal(rows[0], [2, 4])
        assert rows[3].size == 0

    def test_desk_fit_peak(self, desk_suite):
        # the grouped seed-18 desk fit holds each training row once: its
        # tracemalloc peak is the tensor and the per-network work buffers,
        # not the tensor and 200 support copies (2.37x before supports were views)
        grouped, _ = grouped_by_class(desk_suite["train"])
        tracemalloc.start()
        try:
            _, L = fit_densities(grouped, 10, "kde")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * L.nbytes, peak / L.nbytes


class TestBatchedCellMeans:
    """fit_densities takes every cell's Fréchet mean from one
    _kernels.cell_means call per feature width."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    def test_one_call_per_width(self, monkeypatch, kind, space):
        rng = np.random.default_rng(10)
        if space == "sphere":
            batch, widths = sphere_batch(rng, 3, 3, 60), [3]
        else:
            batch, widths = grassmann_batch(rng, (4, 6, 4, 5), 3, 60), [4, 6, 5]
        calls = []
        cell_means = _kernels.cell_means

        def counting(features, *args, **kwargs):
            calls.append([f.shape[1] for f in features])
            return cell_means(features, *args, **kwargs)

        def per_cell(*args, **kwargs):
            raise AssertionError("fit_densities ran the per-cell mean")

        monkeypatch.setattr(_kernels, "cell_means", counting)
        monkeypatch.setattr(density, "incremental_frechet_mean", per_cell)
        fit_densities(batch, 3, kind)
        assert [ws[0] for ws in calls] == widths
        assert all(len(set(ws)) == 1 for ws in calls)
        assert sum(len(ws) for ws in calls) == batch.m

    def test_mixed_width_grassmann_means(self):
        rng = np.random.default_rng(11)
        batch = grassmann_batch(rng, (4, 6, 4, 5), 3, 90)
        densities, _ = fit_densities(batch, 3)
        for i, row in enumerate(densities):
            for j, dens in enumerate(row):
                ref = np.asarray(oracles.ref_incremental_mean(
                    batch.features[i][batch.labels == j], sign_align=True
                ))
                # a GrassmannPoint stores one canonical sign of its line
                got = dens.support.points[0]
                ref *= np.sign(ref @ got)
                assert np.abs(got - ref).max() <= oracles.CELL_MEAN_TOL

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("empty", [0, 2, 4])
    def test_empty_class_names_itself(self, kind, empty):
        rng = np.random.default_rng(12)
        batch = sphere_batch(rng, 2, 5, 80)
        labels = batch.labels.copy()
        labels[labels == empty] = (empty + 1) % 5
        batch = LabeledBatch(batch.features, labels)
        with pytest.raises(EmptySampleSet, match=f"^no samples for network 0, class {empty}$"):
            fit_densities(batch, 5, kind)

    def test_antipodal_cell_raises(self):
        feats = [np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.6, 0.8]])]
        batch = LabeledBatch(feats, np.array([0, 1, 0, 1]))
        with pytest.raises(AntipodalPoints):
            fit_densities(batch, 2)


def random_pdf_problem(seed, n=80, m=5, c=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 2.0, (n, m, c)), rng.integers(0, c, n)


class TestDescentMatchesReference:
    """The descent on the (n*c, m) layout, with one scores pass per trial and
    one gradient pass per step, follows the iterates of the formula-by-formula
    Barzilai-Borwein reference loop in oracles.py (tensordot scores, einsum
    gradient). Where no step was halved, the reference without halving gives
    the same iterates too, which pins that the halving rule changes nothing
    until it fires.

    The two loops round their gradients differently (about 1e-17 apart), and
    BB's long steps (lengths up to 46 on these problems) amplify a
    difference in the iterates from one step to the next. These cases stop
    within 19 steps, where the iterates still agree to 1e-13; the longer
    runs are compared in ``test_long_runs_same_steps_and_loss``."""

    @pytest.mark.parametrize("options", [
        {"tol": 1e-6},
        {"max_iters": 5, "tol": 1e-300},
        {"eta": 2.0},
        {"eta": 0.5, "max_iters": 200},
    ], ids=["tol-stop", "fixed-steps", "backtrack", "eta-0.5"])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_same_iterates(self, options, seed):
        P, labels = random_pdf_problem(seed)
        w, meta = fit_weights_from_pdf(P, labels, **options)
        halved = meta["loss_evaluations"] > meta["iterations_run"] + 1
        for halve in (True,) if halved else (True, False):
            ref_at, ref_iterations, ref_loss = oracles.ref_fit_weights(
                P, labels, **options, halve=halve)
            assert meta["iterations_run"] == ref_iterations
            np.testing.assert_allclose(w.alpha_tilde, ref_at, rtol=0, atol=1e-13)
            assert meta["final_loss"] == pytest.approx(ref_loss, rel=1e-13)

    def test_both_halving_cases_covered(self):
        # "fixed-steps" never halves, "backtrack" always does
        for seed in (10, 11, 12):
            P, labels = random_pdf_problem(seed)
            _, meta = fit_weights_from_pdf(P, labels, max_iters=5, tol=1e-300)
            assert meta["loss_evaluations"] == meta["iterations_run"] + 1
            _, meta = fit_weights_from_pdf(P, labels, eta=2.0)
            assert meta["loss_evaluations"] > meta["iterations_run"] + 1

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_halved_steps(self, seed):
        # at eta = 10 the first trial overshoots: the reference without
        # halving ends elsewhere, and the descent follows the one that halves
        P, labels = random_pdf_problem(seed)
        options = {"eta": 10.0, "max_iters": 5}
        w, meta = fit_weights_from_pdf(P, labels, **options)
        ref_at, ref_iterations, ref_loss = oracles.ref_fit_weights(P, labels, **options)
        plain_loss = oracles.ref_fit_weights(P, labels, **options, halve=False)[2]
        assert meta["loss_evaluations"] > meta["iterations_run"] + 1
        assert ref_loss < plain_loss
        assert meta["iterations_run"] == ref_iterations
        np.testing.assert_allclose(w.alpha_tilde, ref_at, rtol=0, atol=1e-13)
        assert meta["final_loss"] == pytest.approx(ref_loss, rel=1e-13)

    @pytest.mark.parametrize("options", [{}, {"eta": 10.0, "max_iters": 200}],
                             ids=["default", "eta-10"])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_long_runs_same_steps_and_loss(self, options, seed):
        # up to 44 steps: the step count and the loss still agree, while the
        # rounding difference in the iterates grows to 9e-10 (seed 11, eta 10)
        P, labels = random_pdf_problem(seed)
        w, meta = fit_weights_from_pdf(P, labels, **options)
        ref_at, ref_iterations, ref_loss = oracles.ref_fit_weights(P, labels, **options)
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] == ref_iterations
        assert meta["final_loss"] == pytest.approx(ref_loss, rel=1e-13)
        np.testing.assert_allclose(w.alpha_tilde, ref_at, rtol=0, atol=1e-8)

    def test_gradient_and_loss(self):
        P, labels = random_pdf_problem(13)
        at = np.abs(np.random.default_rng(14).standard_normal(P.shape[1]))
        at /= np.linalg.norm(at)
        objective = _Objective(P, labels)
        point = objective.at(at)
        assert point.loss == pytest.approx(oracles.ref_descent_loss(P, labels, at), rel=1e-14)
        np.testing.assert_allclose(
            objective.gradient(point),
            oracles.ref_descent_gradient(P, labels, at), rtol=0, atol=1e-14)


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
        shift_to_pdf(P_train)
        plain = np.ascontiguousarray(P_train)
        assert plain.flags.c_contiguous and not P_train.flags.c_contiguous
        for options in ({}, {"eta": 2.0}):
            w_view, meta_view = fit_weights(P_train, batch, **options)
            w_plain, meta_plain = fit_weights(plain, batch, **options)
            np.testing.assert_array_equal(w_view.alpha_tilde, w_plain.alpha_tilde)
            assert meta_view == meta_plain

    def test_shifted_sample_survives_descent(self):
        n, c = 12, 3
        labels = np.arange(n) % c
        L = np.empty((n, 2, c))
        L[:, 0, :] = math.log(0.05)
        L[np.arange(n), 0, labels] = 0.0  # network 0 is sharp and right
        L[:, 1, :] = 0.0  # network 1 is flat
        L[7, 0, :] = -1500.0  # only network 1 sees sample 7, at e^-668 ~ 1e-290
        L[7, 1, :] = -668.0
        shift = shift_to_pdf(L)
        assert shift[7] == -668.0 and np.all(L[7, 1] == 1.0) and np.all(L[7, 0] == 0.0)
        uniform = np.full(2, math.sqrt(0.5))
        # a first step of arc length pi/4 lands next to the vertex of network 0
        # (alpha_1 ~ 5e-32): sample 7's scores are ~5e-32, where unshifted
        # they were ~5e-322 and aborted the descent as underflowed
        objective = _Objective(L, labels)
        eta = (math.pi / 4) / np.linalg.norm(objective.gradient(objective.at(uniform)))
        w, meta = fit_weights_from_pdf(L, labels, eta=eta, max_iters=1)
        assert 0.0 < w.alpha[1] < 1e-30
        assert np.isfinite(meta["final_loss"]) and meta["final_loss"] < meta["uniform_loss"]


class TestDescentDiagnostics:
    def test_fit_meta_fields(self):
        P, labels = random_pdf_problem(17, m=4)
        w, meta = fit_weights_from_pdf(P, labels)
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] < 5000
        objective = _Objective(P, labels)
        assert meta["uniform_loss"] == objective.at(np.full(4, 0.5)).loss
        assert meta["final_loss"] <= meta["uniform_loss"]
        assert meta["grad_norm"] == pytest.approx(
            float(np.linalg.norm(objective.gradient(objective.at(w.alpha_tilde)))), rel=1e-12)
        assert meta["effective_networks"] == pytest.approx(1.0 / np.sum(w.alpha ** 2), rel=1e-15)
        assert 1.0 <= meta["effective_networks"] <= 4.0

    @pytest.mark.parametrize("eta", [1e3, 1e150])
    def test_oversized_eta_shows_in_loss_evaluations(self, eta):
        # a first trial arc far above pi lands anywhere; its halvings are counted
        P, labels = random_pdf_problem(10)
        _, meta = fit_weights_from_pdf(P, labels, max_iters=1)
        assert meta["loss_evaluations"] == meta["iterations_run"] + 1 == 2
        _, meta = fit_weights_from_pdf(P, labels, eta=eta, max_iters=1)
        assert meta["iterations_run"] == 1
        assert meta["loss_evaluations"] > meta["iterations_run"] + 1

    def test_stop_reason_max_iters(self):
        P, labels = random_pdf_problem(18)
        _, meta = fit_weights_from_pdf(P, labels, max_iters=3)
        assert meta["stop_reason"] == "max_iters" and meta["iterations_run"] == 3

    def test_settles_at_a_vertex(self):
        # network 0 is sharp and right, network 1 flat: the optimum is the
        # vertex alpha = (1, 0), which 5,000 fixed eta = 0.1 steps left at
        # alpha_tilde_1 ~ 1e-4 because the abs fold reflects each overshoot
        n, c = 12, 3
        labels = np.arange(n) % c
        P = np.empty((n, 2, c))
        P[:, 0, :] = 0.05
        P[np.arange(n), 0, labels] = 1.0
        P[:, 1, :] = 1.0
        w, meta = fit_weights_from_pdf(P, labels, max_iters=1000, tol=1e-300)
        assert meta["stop_reason"] == "tol" and meta["iterations_run"] < 50
        assert w.alpha_tilde[1] < 1e-15 and meta["grad_norm"] < 1e-15

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
        result = evaluate(model, batch.features, batch.labels)
        expected = []
        for i, row in enumerate(model.densities):
            log_p = np.column_stack([d.log_pdf_batch(batch.features[i]) for d in row])
            expected.append(float(np.mean(np.argmax(log_p, axis=1) == batch.labels)))
        assert result["density_argmax_accuracy"] == expected
        assert result["standalone_accuracy"] == expected


class TestDeskWeightsPinned:
    """Pins what the paper's loss learns on the seeded desk suite, without
    endorsing it: the parametric mixture collapses onto one network and
    scores that network's level, while uniform weights score 1.000. A
    change here must be deliberate."""

    def test_parametric_collapses_to_network_2(self, desk_suite, fitted_models):
        model = fitted_models["parametric"]["model"]
        assert model.fit_meta["iterations_run"] == 30
        assert model.fit_meta["effective_networks"] < 1.01
        assert int(np.argmax(model.weights.alpha)) == 2
        test = desk_suite["test"]
        accuracy = evaluate(model, test.features, test.labels)["accuracy"]
        assert accuracy == 0.695
        assert abs(accuracy - desk_suite["standalone_test_accuracy"][2]) <= 0.002
        uniform = EnsembleModel(
            kind=model.kind, space=model.space, m=model.m, c=model.c,
            densities=model.densities, weights=MixtureWeights.uniform(model.m), fit_meta={},
        )
        assert evaluate(uniform, test.features, test.labels)["accuracy"] == 1.0

    def test_evaluate_reports_uniform_accuracy(self, desk_suite, fitted_models):
        # the collapse is visible in one evaluate: learned 0.695, uniform 1.000
        test = desk_suite["test"]
        result = evaluate(fitted_models["parametric"]["model"], test.features, test.labels)
        assert (result["accuracy"], result["uniform_accuracy"]) == (0.695, 1.0)

    def test_kde_keeps_many_networks(self, fitted_models):
        meta = fitted_models["kde"]["model"].fit_meta
        assert meta["iterations_run"] == 26
        assert meta["effective_networks"] > 5


class TestDeskDescentStops:
    """The mechanism behind the desk fit time: at the benchmark stop
    (max_iters=1000, tol=1e-300, which ends only on an exactly flat loss)
    the Barzilai-Borwein descent reaches that flat loss well before the step
    cap, at a loss no higher than 1,000 fixed eta = 0.1 steps reached."""

    FIXED_ETA_LOSS = {"parametric": 0.9608652006, "kde": 0.1968594368}

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_stops_by_tol_below_fixed_eta_loss(self, desk_suite, fitted_models, kind):
        _, meta = fit_weights(fitted_models[kind]["P_train"], desk_suite["train"],
                              max_iters=1000, tol=1e-300)
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] < 1000
        assert meta["grad_norm"] < 1e-6
        assert meta["final_loss"] <= self.FIXED_ETA_LOSS[kind]

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_no_worse_than_uniform_or_any_vertex(self, desk_suite, fitted_models, kind):
        # the parametric optimum is the vertex of net 02 (0.9608514120), the
        # KDE one lies inside the simplex (0.1968 against uniform 0.2192 and
        # best vertex 0.4099); at the default stop the parametric loss is
        # still 8e-8 above its vertex, so only the benchmark stop is checked
        P, labels = fitted_models[kind]["P_train"], desk_suite["train"].labels
        _, meta = fit_weights(P, desk_suite["train"], max_iters=1000, tol=1e-300)
        objective = _Objective(P, labels)
        vertices = [objective.at(e).loss for e in np.eye(P.shape[1])]
        assert meta["final_loss"] <= min(meta["uniform_loss"], *vertices) * (1 + 1e-12)
