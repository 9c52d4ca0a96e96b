"""The numpy kernels against independent fsum references, the row-block
split, and the backend name the package reports."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
import spheremix
from spheremix import _kernels
from spheremix.cli import main
from spheremix.synth import make_suite, write_suite


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
        whole = _kernels.kernel_sums(eval_pts, support, inv, absolute=absolute)
        for budget in (1, 3 * 8 * 300):
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(
                _kernels.kernel_sums(eval_pts, support, inv, absolute=absolute), whole
            )

    @pytest.mark.parametrize("absolute", [False, True])
    def test_one_centre_adapters(self, data, absolute):
        # kernel_values and kernel_total are the one-centre kernel_sums, bit for bit
        inv = 1.0 / (2 * 0.35**2)
        sums = _kernels.kernel_sums(
            data["eval"], data["center"][None, :], inv, absolute=absolute
        )
        np.testing.assert_array_equal(
            _kernels.kernel_values(data["eval"], data["center"], inv, absolute=absolute), sums
        )
        assert _kernels.kernel_total(
            data["eval"], data["center"], inv, absolute=absolute
        ) == float(sums.sum())

    def test_absolute_flag(self, data):
        flipped = data["eval"].copy()
        flipped[::2] *= -1.0
        a = _kernels.arc_distances(data["eval"], data["center"], absolute=True)
        b = _kernels.arc_distances(flipped, data["center"], absolute=True)
        np.testing.assert_array_equal(a, b)


class TestBackendSelection:
    def test_active_backend_reported(self, tmp_path):
        assert _kernels.backend() == "numpy"
        assert spheremix.kernel_backend() == "numpy"
        suite = make_suite(5, 2, 3, 40, 1, [0.7, 0.8])
        paths = write_suite(suite, tmp_path / "suite")
        args = ["fit", "--labels", str(paths["train_labels"]),
                "--out", str(tmp_path / "model.json"),
                "--report", str(tmp_path / "fit.txt"), "--max-iters", "5"]
        for table in paths["train"]:
            args += ["--train-table", str(table)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["kernel_backend"] == "numpy"
