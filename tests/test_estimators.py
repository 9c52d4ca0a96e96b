import math

import numpy as np
import pytest

import oracles
from conftest import load_fixture
from spheremix.density import empirical_normalizer
from spheremix.errors import AntipodalPoints, EmptySampleSet
from spheremix.estimators import (
    SampleSet,
    incremental_frechet_mean,
    sample_sigma,
)
from spheremix.grassmann import GrassmannPoint, gr_distance
from spheremix.sphere import SpherePoint, arc_distance, exp_map, geodesic, TangentVector


def sample_set(rows, space="sphere"):
    return SampleSet(np.asarray(rows, dtype=np.float64), space)


def shuffled(rows, seed):
    return rows[np.random.default_rng(seed).permutation(len(rows))]


class TestSampleSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptySampleSet):
            SampleSet(np.empty((0, 3)))

    def test_from_points(self):
        pts = [SpherePoint([1, 0, 0]), SpherePoint([0, 1, 0])]
        ss = SampleSet.from_points(pts, network_id=2, class_id=1)
        assert ss.space == "sphere" and len(ss) == 2 and ss.dim == 3

    def test_from_grassmann_points(self):
        pts = [GrassmannPoint([1, 1]), GrassmannPoint([0, 1])]
        assert SampleSet.from_points(pts).space == "grassmann"


class TestIncrementalFrechetMean:
    def test_repeated_point_is_fixed(self):
        x = oracles.positive_quadrant_point(np.random.default_rng(0), 4)
        mean = incremental_frechet_mean(sample_set([x] * 7))
        np.testing.assert_array_equal(mean.coords, x)

    def test_two_points_is_midstep(self):
        rng = np.random.default_rng(1)
        x = SpherePoint(oracles.positive_quadrant_point(rng, 5))
        y = SpherePoint(oracles.positive_quadrant_point(rng, 5))
        mean = incremental_frechet_mean(SampleSet.from_points([x, y]))
        expected = geodesic(x, y, 0.5)
        assert np.max(np.abs(mean.coords - expected.coords)) <= 1e-12

    def test_three_point_fixture_vs_grid_oracle(self):
        fx = load_fixture("frechet_mean_s2")
        pts = sample_set(fx["inputs"]["points"])
        mean = incremental_frechet_mean(pts)
        oracle_mu = SpherePoint(fx["expected"]["mu"])
        assert arc_distance(mean, oracle_mu) <= fx["tolerance"]

    def test_order_seed_is_deterministic(self):
        rng = np.random.default_rng(2)
        cloud = oracles.sphere_cloud(rng, [1, 1, 1, 1], 0.2, 40)
        a = incremental_frechet_mean(sample_set(shuffled(cloud, 7)))
        b = incremental_frechet_mean(sample_set(shuffled(cloud, 7)))
        np.testing.assert_array_equal(a.coords, b.coords)
        c = incremental_frechet_mean(sample_set(cloud))
        assert arc_distance(a, c) < 0.05

    def test_permutation_sensitivity_bound(self):
        rng = np.random.default_rng(3)
        cloud = oracles.sphere_cloud(rng, [1.0, 1.0, 1.0], 0.1, 200)
        dots = np.clip(cloud @ cloud.T, -1, 1)
        assert np.arccos(dots).max() <= 0.3
        a = incremental_frechet_mean(sample_set(shuffled(cloud, 1)))
        b = incremental_frechet_mean(sample_set(shuffled(cloud, 2)))
        assert arc_distance(a, b) <= 5e-2

    def test_consistency_under_symmetric_sampling(self):
        rng = np.random.default_rng(4)
        mu = SpherePoint([0.5, 0.5, 0.5, 0.5])
        rows = []
        for _ in range(500):
            v = rng.standard_normal(4)
            v -= (v @ mu.coords) * mu.coords
            v *= rng.uniform(0.0, 0.3) / np.linalg.norm(v)
            rows.append(exp_map(mu, TangentVector(mu, v)).coords)
            rows.append(exp_map(mu, TangentVector(mu, -v)).coords)
        mean = incremental_frechet_mean(sample_set(rows))
        assert arc_distance(mean, mu) <= 1e-2

    def test_positive_quadrant_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = [oracles.positive_quadrant_point(rng, 6) for _ in range(15)]
            mean = incremental_frechet_mean(sample_set(rows))
            assert np.all(mean.coords >= 0.0)

    def test_grassmann_sign_alignment(self):
        rng = np.random.default_rng(6)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        rows = [direction * (1 if k % 2 else -1) for k in range(9)]
        mean = incremental_frechet_mean(sample_set(rows, "grassmann"))
        assert isinstance(mean, GrassmannPoint)
        assert gr_distance(mean, GrassmannPoint(direction)) <= 1e-12


    @pytest.mark.parametrize("rows", [
        [[1, 0, 0], [-1, 0, 0]],
        [[1, 0, 0], [1, 0, 0], [-1, 0, 0]],
    ], ids=["pair", "triple"])
    def test_antipodal_samples_raise(self, rows):
        with pytest.raises(AntipodalPoints):
            incremental_frechet_mean(sample_set(rows))


class TestSampleSigma:
    def test_zero_dispersion_floored(self):
        x = [0.6, 0.8]
        ss = sample_set([x] * 5)
        assert sample_sigma(ss, SpherePoint(x)) == 1e-3

    def test_two_points_quarter_apart(self):
        mid = geodesic(SpherePoint([1, 0, 0]), SpherePoint([0, 1, 0]), 0.5)
        ss = sample_set([[1, 0, 0], [0, 1, 0]])
        assert sample_sigma(ss, mid) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_fixture_vs_direct_summation(self):
        fx = load_fixture("sample_sigma")
        ss = sample_set(fx["inputs"]["points"])
        got = sample_sigma(ss, SpherePoint(fx["inputs"]["mu"]))
        assert got == pytest.approx(fx["expected"]["sigma"], abs=fx["tolerance"])


class TestEmpiricalNormalizer:
    def test_single_point_at_mu(self):
        mu = SpherePoint([0.6, 0.8, 0.0])
        assert empirical_normalizer([mu.coords], mu, 0.4) == 1.0

    def test_two_point_closed_form(self):
        mu = SpherePoint([1.0, 0.0])
        r = 0.7
        other = [math.cos(r), math.sin(r)]
        sigma = 0.5
        expected = 1.0 / (1.0 + math.exp(-(r * r) / (2 * sigma * sigma)))
        got = empirical_normalizer([mu.coords, other], mu, sigma)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_fixture_vs_summation(self):
        fx = load_fixture("empirical_normalizer")
        got = empirical_normalizer(
            np.asarray(fx["inputs"]["points"]),
            SpherePoint(fx["inputs"]["mu"]),
            fx["inputs"]["sigma"],
        )
        assert got == pytest.approx(fx["expected"]["normalizer"], rel=fx["tolerance"])

    def test_range_when_set_contains_mu(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = SpherePoint(oracles.positive_quadrant_point(rng, 4))
            rows = [mu.coords] + [oracles.positive_quadrant_point(rng, 4) for _ in range(9)]
            c = empirical_normalizer(np.asarray(rows), mu, float(rng.uniform(0.05, 2.0)))
            assert 0.0 < c <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleSet):
            empirical_normalizer(np.empty((0, 3)), SpherePoint([1, 0, 0]), 0.5)

    @pytest.mark.parametrize("sigma", [0.0, -0.5])
    def test_non_positive_sigma_rejected(self, sigma):
        mu = SpherePoint([1, 0, 0])
        message = rf"^width {sigma} must be positive, and 2 width\^2 and its inverse finite$"
        with pytest.raises(ValueError, match=message):
            empirical_normalizer([mu.coords], mu, sigma)
