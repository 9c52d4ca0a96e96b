import math

import numpy as np
import pytest

import oracles
from conftest import load_fixture
from spheremix.density import (
    GaussianDensity,
    KernelDensity,
    fit_gaussian,
    fit_kde,
    silverman_bandwidth,
)
from spheremix.errors import DimensionMismatch
from spheremix.estimators import SampleSet
from spheremix.grassmann import GrassmannPoint
from spheremix.sphere import SpherePoint


def sample_set(rows, space="sphere", **kw):
    return SampleSet(np.asarray(rows, dtype=np.float64), space, **kw)


class TestGaussianPdf:
    def test_at_mu_is_normalizer(self):
        d = GaussianDensity(mu=SpherePoint([1, 0, 0]), sigma=0.5, normalizer=0.2)
        assert d.pdf(SpherePoint([1, 0, 0])) == 0.2

    def test_half_height_point(self):
        sigma = 0.5
        r = sigma * math.sqrt(2.0 * math.log(2.0))
        d = GaussianDensity(mu=SpherePoint([1, 0, 0]), sigma=sigma, normalizer=0.8)
        x = SpherePoint([math.cos(r), math.sin(r), 0.0])
        assert d.pdf(x) == pytest.approx(0.4, rel=1e-12)

    def test_fixture(self):
        fx = load_fixture("gaussian_pdf")
        d = GaussianDensity(
            mu=SpherePoint(fx["inputs"]["mu"]),
            sigma=fx["inputs"]["sigma"],
            normalizer=fx["inputs"]["normalizer"],
        )
        got = d.pdf(SpherePoint(fx["inputs"]["x"]))
        assert got == pytest.approx(fx["expected"]["pdf"], abs=fx["tolerance"])

    def test_dimension_mismatch(self):
        d = GaussianDensity(mu=SpherePoint([1, 0, 0]), sigma=0.5, normalizer=0.2)
        with pytest.raises(DimensionMismatch):
            d.pdf_batch(np.eye(4))

    def test_monotone_in_distance(self):
        d = GaussianDensity(mu=SpherePoint([1, 0, 0]), sigma=0.3, normalizer=1.0)
        rs = np.linspace(0.0, math.pi / 2, 30)
        values = [d.pdf([math.cos(r), math.sin(r), 0.0]) for r in rs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_positivity(self):
        rng = np.random.default_rng(0)
        d = GaussianDensity(mu=SpherePoint([0.6, 0.8]), sigma=0.2, normalizer=0.5)
        for _ in range(50):
            x = oracles.positive_quadrant_point(rng, 2)
            assert d.pdf(x) > 0.0


class TestSilverman:
    def test_fixture_cases(self):
        fx = load_fixture("silverman")
        for (s, n), expected in zip(fx["inputs"]["cases"], fx["expected"]["bandwidths"]):
            assert silverman_bandwidth(s, int(n)) == pytest.approx(
                expected, rel=fx["tolerance"]
            )

    def test_floor_propagation(self):
        assert silverman_bandwidth(1e-3, 1) == pytest.approx(
            (4e-15 / 3.0) ** 0.2, rel=1e-14
        )

    def test_doubling_n_scaling_law(self):
        b1 = silverman_bandwidth(0.7, 50)
        b2 = silverman_bandwidth(0.7, 100)
        assert b2 == pytest.approx(b1 * 2 ** (-0.2), rel=1e-14)


class TestKdePdf:
    def test_single_self_term(self):
        x = [0.6, 0.8]
        d = KernelDensity(support=sample_set([x]), bandwidth=0.3, normalizer=0.77)
        assert d.pdf(SpherePoint(x)) == 0.77

    def test_two_equidistant_points(self):
        r = 0.5
        support = sample_set([[math.cos(r), math.sin(r)], [math.cos(r), -math.sin(r)]])
        d = KernelDensity(support=support, bandwidth=0.4, normalizer=1.0)
        expected = math.exp(-(r * r) / (2 * 0.4**2))
        assert d.pdf(SpherePoint([1.0, 0.0])) == pytest.approx(expected, rel=1e-12)

    def test_fixture_vs_summation(self):
        fx = load_fixture("kde_pdf")
        d = KernelDensity(
            support=sample_set(fx["inputs"]["support"]),
            bandwidth=fx["inputs"]["bandwidth"],
            normalizer=fx["inputs"]["normalizer"],
        )
        got = d.pdf(SpherePoint(fx["inputs"]["x"]))
        assert got == pytest.approx(fx["expected"]["pdf"], rel=fx["tolerance"])

    def test_degenerates_to_gaussian_shape(self):
        # a one-point KDE and the Gaussian at that point are one kernel sum
        center = [0.6, 0.8, 0.0]
        rng = np.random.default_rng(1)
        pts = np.asarray([oracles.positive_quadrant_point(rng, 3) for _ in range(20)])
        for space, point, rows in [
            ("sphere", SpherePoint(center), pts),
            ("grassmann", GrassmannPoint(center), pts * rng.choice([-1.0, 1.0], (20, 1))),
        ]:
            kd = KernelDensity(support=sample_set([center], space), bandwidth=0.35,
                               normalizer=0.9)
            gd = GaussianDensity(mu=point, sigma=0.35, normalizer=0.9)
            np.testing.assert_array_equal(kd.pdf_batch(rows), gd.pdf_batch(rows))
            assert kd.pdf(rows[0]) == gd.pdf(rows[0])

    def test_dimension_mismatch(self):
        d = KernelDensity(support=sample_set([[1.0, 0.0]]), bandwidth=0.3, normalizer=1.0)
        with pytest.raises(DimensionMismatch):
            d.pdf_batch(np.eye(3))


class TestFitGaussian:
    def test_single_point(self):
        x = [0.8, 0.6]
        d = fit_gaussian(sample_set([x]), np.asarray([x]))
        np.testing.assert_array_equal(d.mu.coords, x)
        assert d.sigma == 1e-3
        assert d.normalizer == 1.0

    def test_identical_outputs(self):
        x = [0.5, 0.5, 0.5, 0.5]
        d = fit_gaussian(sample_set([x] * 6), np.asarray([x] * 6))
        np.testing.assert_array_equal(d.mu.coords, x)

    def test_reference_fixture(self):
        fx = load_fixture("fit_gaussian_ref")
        feats = [np.asarray(f) for f in fx["inputs"]["features"]]
        labels = np.asarray(fx["inputs"]["labels"])
        for i, expected_row in enumerate(fx["expected"]["densities"]):
            for j, expected in enumerate(expected_row):
                cell = sample_set(feats[i][labels == j], network_id=i, class_id=j)
                d = fit_gaussian(cell, feats[i])
                np.testing.assert_allclose(d.mu.coords, expected["mu"],
                                           rtol=0, atol=fx["tolerance"])
                assert d.sigma == pytest.approx(expected["sigma"], abs=fx["tolerance"])
                assert d.normalizer == pytest.approx(
                    expected["normalizer"], rel=fx["tolerance"]
                )

    def test_normalizer_consistency(self):
        rng = np.random.default_rng(2)
        train = np.asarray([oracles.positive_quadrant_point(rng, 5) for _ in range(40)])
        d = fit_gaussian(sample_set(train[:15]), train)
        mass = math.fsum(
            math.exp(-oracles.ref_arc(row, d.mu.coords) ** 2 / (2 * d.sigma**2))
            for row in train
        )
        assert d.normalizer * mass == pytest.approx(1.0, abs=1e-10)


class TestFitKde:
    def test_single_training_point(self):
        x = [0.6, 0.8]
        d = fit_kde(sample_set([x]), np.asarray([x]))
        assert d.bandwidth == pytest.approx((4e-15 / 3.0) ** 0.2, rel=1e-12)
        assert d.normalizer == 1.0

    def test_reference_fixture(self):
        fx = load_fixture("fit_kde_ref")
        feats = np.asarray(fx["inputs"]["features"])
        labels = np.asarray(fx["inputs"]["labels"])
        for j, expected in enumerate(fx["expected"]["densities"]):
            d = fit_kde(sample_set(feats[labels == j], class_id=j), feats)
            assert d.bandwidth == pytest.approx(expected["bandwidth"], rel=fx["tolerance"])
            assert d.normalizer == pytest.approx(expected["normalizer"], rel=fx["tolerance"])

    def test_normalizer_definition(self):
        # the normalizer inverts the mean kernel mass over the training set
        rng = np.random.default_rng(3)
        train = np.asarray([oracles.positive_quadrant_point(rng, 4) for _ in range(30)])
        d = fit_kde(sample_set(train[:12]), train)
        total = math.fsum(
            oracles.ref_kde_pdf(d.support.points.tolist(), d.bandwidth, 1.0, row)
            for row in train
        )
        assert d.normalizer * total == pytest.approx(1.0, abs=1e-10)

    def test_max_support_subsampling(self):
        rng = np.random.default_rng(4)
        rows = np.asarray([oracles.positive_quadrant_point(rng, 3) for _ in range(50)])
        d = fit_kde(sample_set(rows), rows, max_support=10, seed=5)
        assert len(d.support) == 10
        d2 = fit_kde(sample_set(rows), rows, max_support=10, seed=5)
        np.testing.assert_array_equal(d.support.points, d2.support.points)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        rows = np.asarray([oracles.positive_quadrant_point(rng, 3) for _ in range(20)])
        d = fit_kde(sample_set(rows), rows)
        for _ in range(20):
            assert d.pdf(oracles.positive_quadrant_point(rng, 3)) > 0.0
