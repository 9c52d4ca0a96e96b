"""Backend agreement: the numba kernels and the pure-numpy fallback must
produce the same numbers (within accumulation-order noise), and both must
match independent fsum references."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from spheremix import _kernels


def random_unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1)[:, None]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return {
        "eval": random_unit_rows(rng, 60, 7),
        "support": random_unit_rows(rng, 40, 7),
        "center": random_unit_rows(rng, 1, 7)[0],
        "cloud": oracles.sphere_cloud(rng, np.full(7, 1 / math.sqrt(7)), 0.3, 50),
    }


class TestAgainstReference:
    def test_arc_distances(self, data):
        got = _kernels.arc_distances(data["eval"], data["center"])
        expected = [oracles.ref_arc(row, data["center"]) for row in data["eval"]]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_kernel_values(self, data):
        inv = 1.0 / (2 * 0.4**2)
        got = _kernels.kernel_values(data["eval"], data["center"], inv)
        expected = [
            math.exp(-oracles.ref_arc(row, data["center"]) ** 2 * inv)
            for row in data["eval"]
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_kernel_total(self, data):
        inv = 1.0 / (2 * 0.3**2)
        got = _kernels.kernel_total(data["eval"], data["center"], inv)
        expected = math.fsum(
            math.exp(-oracles.ref_arc(row, data["center"]) ** 2 * inv)
            for row in data["eval"]
        )
        assert got == pytest.approx(expected, rel=1e-13)

    def test_kernel_sums(self, data):
        inv = 1.0 / (2 * 0.25**2)
        got = _kernels.kernel_sums(data["eval"], data["support"], inv)
        expected = [
            math.fsum(
                math.exp(-oracles.ref_arc(row, s) ** 2 * inv) for s in data["support"]
            )
            for row in data["eval"]
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_sums_match_fsum_over_many_magnitudes(self):
        # 2e4 support terms from about 1 down to about 1e-214.
        # The evaluation rows are basis vectors, so every dot product is an
        # exact support coordinate and only the summation is under test.
        rng = np.random.default_rng(11)
        support = random_unit_rows(rng, 20_000, 3)
        inv = 50.0
        eval_pts = np.eye(3)
        expected = [
            math.fsum(math.exp(-math.acos(x) ** 2 * inv) for x in support[:, k])
            for k in range(3)
        ]
        np.testing.assert_allclose(
            _kernels.kernel_sums(eval_pts, support, inv), expected, rtol=1e-13
        )
        assert _kernels.kernel_total(support, eval_pts[0], inv) == pytest.approx(
            expected[0], rel=1e-13
        )

    @pytest.mark.parametrize("absolute", [False, True])
    def test_row_blocks_change_nothing(self, monkeypatch, absolute):
        # signed basis rows make every dot product exact whatever the BLAS
        # call shape, so blocking may not change a single bit
        rng = np.random.default_rng(12)
        support = random_unit_rows(rng, 300, 5)
        eval_pts = np.eye(5)[rng.integers(0, 5, 37)] * rng.choice([-1.0, 1.0], (37, 1))
        inv = 1.0 / (2 * 0.3**2)
        whole = _kernels._np_kernel_sums(eval_pts, support, inv, absolute)
        for budget in (1, 3 * 8 * 300):
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(
                _kernels._np_kernel_sums(eval_pts, support, inv, absolute), whole
            )

    def test_absolute_flag(self, data):
        flipped = data["eval"].copy()
        flipped[::2] *= -1.0
        a = _kernels.arc_distances(data["eval"], data["center"], absolute=True)
        b = _kernels.arc_distances(flipped, data["center"], absolute=True)
        np.testing.assert_array_equal(a, b)


@pytest.mark.skipif(not _kernels._have_numba, reason="numba not installed")
class TestBackendAgreement:
    def test_kernel_sums(self, data):
        inv = 1.0 / (2 * 0.3**2)
        nb = _kernels._nb_kernel_sums(data["eval"], data["support"], inv, False)
        np_ = _kernels._np_kernel_sums(data["eval"], data["support"], inv, False)
        np.testing.assert_allclose(nb, np_, rtol=1e-14)

    def test_kernel_total(self, data):
        inv = 1.0 / (2 * 0.5**2)
        nb = _kernels._nb_kernel_total(data["eval"], data["center"], inv, False)
        np_ = _kernels._np_kernel_total(data["eval"], data["center"], inv, False)
        assert nb == pytest.approx(np_, rel=1e-14)

    def test_incremental_mean(self, data):
        nb = _kernels._nb_incremental_mean(data["cloud"], False)
        np_ = _kernels._np_incremental_mean(data["cloud"], False)
        np.testing.assert_allclose(nb, np_, rtol=0, atol=1e-12)

    def test_incremental_mean_sign_align(self, data):
        cloud = data["cloud"].copy()
        cloud[1::2] *= -1.0
        nb = _kernels._nb_incremental_mean(cloud, True)
        np_ = _kernels._np_incremental_mean(cloud, True)
        np.testing.assert_allclose(nb, np_, rtol=0, atol=1e-12)


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert _kernels.backend() in ("numba", "numpy")

    def test_env_flag_forces_numpy(self):
        code = "import spheremix; print(spheremix.kernel_backend())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "SPHEREMIX_BACKEND": "numpy"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_env_flag_rejects_garbage(self):
        code = "import spheremix"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "SPHEREMIX_BACKEND": "cuda"},
            capture_output=True, text=True,
        )
        assert out.returncode != 0

    def test_numpy_pipeline_matches_active_backend(self):
        # a small end-to-end fit must not depend on the backend choice
        code = """
import numpy as np
from spheremix.synth import make_suite
from spheremix.io import embed_probability_rows
from spheremix.ensemble import LabeledBatch, fit_ensemble
suite = make_suite(5, 2, 3, 40, 1, [0.7, 0.8])
batch = LabeledBatch([embed_probability_rows(t) for t in suite["train"]], suite["train_labels"])
model = fit_ensemble(batch, 3)
print(repr(float(model.fit_meta["final_loss"])))
print(",".join(repr(float(a)) for a in model.weights.alpha))
"""
        runs = {}
        for backend in ("numpy", "auto"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "SPHEREMIX_BACKEND": backend},
                capture_output=True, text=True, check=True,
            )
            runs[backend] = out.stdout
        loss_np, alpha_np = runs["numpy"].splitlines()
        loss_auto, alpha_auto = runs["auto"].splitlines()
        assert float(loss_np) == pytest.approx(float(loss_auto), rel=1e-10)
        for a, b in zip(alpha_np.split(","), alpha_auto.split(",")):
            assert float(a) == pytest.approx(float(b), abs=1e-10)
