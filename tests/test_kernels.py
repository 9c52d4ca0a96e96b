"""The numpy kernels against independent fsum references, the row-chunk
split, the log sums of rows whose every term underflows, and the backend
name the package reports. ``kernel_sums`` and ``class_log_sums`` return
logs, which are compared with the log of the fsum reference at the same
relative tolerance."""

import json
import math

import numpy as np
import pytest

import oracles
import spheremix
from spheremix import _kernels
from spheremix.cli import main
from spheremix.ensemble import LabeledBatch, fit_densities
from spheremix.io import embed_probability_rows
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
        got = np.sqrt(_kernels.squared_arcs(data["eval"] @ data["center"], False))
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
        np.testing.assert_allclose(got, np.log(expected), rtol=1e-13)

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
            _kernels.kernel_sums(eval_pts, support, inv), np.log(expected), rtol=1e-13
        )
        assert _kernels.kernel_total(support, eval_pts[0], inv) == pytest.approx(
            expected[0], rel=1e-13
        )

    @pytest.mark.parametrize("absolute", [False, True])
    def test_row_blocks_change_nothing(self, monkeypatch, absolute):
        # signed basis rows make every dot product exact whatever the BLAS
        # call shape, so chunking may not change a single bit
        rng = np.random.default_rng(12)
        support = random_unit_rows(rng, 300, 5)
        eval_pts = np.eye(5)[rng.integers(0, 5, 37)] * rng.choice([-1.0, 1.0], (37, 1))
        inv = 1.0 / (2 * 0.3**2)
        whole = _kernels.kernel_sums(eval_pts, support, inv, absolute=absolute)
        for budget in (1, 3 * 8 * 300):
            monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
            np.testing.assert_array_equal(
                _kernels.kernel_sums(eval_pts, support, inv, absolute=absolute), whole
            )

    @pytest.mark.parametrize("absolute", [False, True])
    def test_one_centre_adapters(self, data, absolute):
        # kernel_values and kernel_total are the exp of the one-centre
        # kernel_sums, bit for bit
        inv = 1.0 / (2 * 0.35**2)
        sums = np.exp(_kernels.kernel_sums(
            data["eval"], data["center"][None, :], inv, absolute=absolute
        ))
        np.testing.assert_array_equal(
            _kernels.kernel_values(data["eval"], data["center"], inv, absolute=absolute), sums
        )
        assert _kernels.kernel_total(
            data["eval"], data["center"], inv, absolute=absolute
        ) == float(sums.sum())

    @pytest.mark.parametrize("absolute", [False, True])
    def test_underflowing_rows(self, data, absolute):
        # at this width every term of every row is below 1e-300: the linear
        # sums are 0 or subnormal, the log sums are those of the fsum of the
        # terms with each row's largest term factored out
        inv = 1.0 / (2 * 0.005**2)
        got = _kernels.kernel_sums(data["eval"], data["support"], inv, absolute=absolute)
        for row, value in zip(data["eval"], got):
            logs = [-oracles.ref_arc(row, s if not absolute or row @ s >= 0 else -s) ** 2 * inv
                    for s in data["support"]]
            top = max(logs)
            assert top < math.log(1e-300)
            assert value == pytest.approx(
                top + math.log(math.fsum(math.exp(a - top) for a in logs)), rel=1e-13)

    def test_only_low_rows_are_shifted(self):
        # row 0 sums to about 1e-261 and keeps its linear sum, in which the
        # terms that underflowed are lost below an ulp; row 1's largest term
        # is about 1e-304, under |support| * 2^-1022 / eps, and is factored out
        support = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        angle = math.sqrt(600.0 / 500.0), math.sqrt(700.0 / 500.0)
        eval_pts = np.array([[math.cos(a), 0.0, math.sin(a)] for a in angle])
        got = _kernels.kernel_sums(eval_pts, support, 500.0)
        terms = -(np.arccos(np.clip(eval_pts @ support.T, -1.0, 1.0)) ** 2) * 500.0
        assert got[0] == math.log(float(np.exp(terms[0]).sum()))
        assert np.exp(terms[1]).sum() < 2 * _kernels._LOW_SUM
        assert got[1] == pytest.approx(
            terms[1].max() + math.log(math.fsum(np.exp(terms[1] - terms[1].max()))), rel=1e-15)

    def test_absolute_flag(self, data):
        flipped = data["eval"].copy()
        flipped[::2] *= -1.0
        a = np.sqrt(_kernels.squared_arcs(data["eval"] @ data["center"], True))
        b = np.sqrt(_kernels.squared_arcs(flipped @ data["center"], True))
        np.testing.assert_array_equal(a, b)


def shifted_log_sum(row, support, inv, absolute):
    """top + log fsum exp(a - top) over the log terms a of ``row`` against
    ``support``: the log of the fsum of the terms, also where they underflow."""
    logs = [-oracles.ref_arc(row, s if not absolute or row @ s >= 0 else -s) ** 2 * inv
            for s in support]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(a - top) for a in logs))


def exact_unit_rows(rng, n, d):
    """Unit rows of integer coordinates over 32 (squared norm exactly 1024 /
    1024): every dot product of two rows, a row with itself included, is
    exact in any summation order, so the arc of a row to its own support
    point is exactly 0 in numpy and in the fsum reference alike."""
    rows = []
    while len(rows) < n:
        head = rng.integers(-20, 21, d - 1)
        rest = 1024 - int(head @ head)
        if rest >= 0 and math.isqrt(rest) ** 2 == rest:
            rows.append(rng.permutation([*head, rng.choice([-1, 1]) * math.isqrt(rest)]))
    return np.asarray(rows, dtype=np.float64) / 32.0


def class_rows(rng, sizes, d, *, absolute):
    """Exact unit rows in classes of the given sizes, shuffled; sphere rows
    (not ``absolute``) are folded into the positive orthant half of the time."""
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    points = exact_unit_rows(rng, len(labels), d)
    if not absolute:
        points[::2] = np.abs(points[::2])
    return points, labels


class TestClassLogSums:
    """class_log_sums: every row of a network against each class's rows,
    from one distance block per class pair."""

    # classes of 1, 2 and many rows; at width 0.02 most rows of other
    # classes have every term below 1e-300 and take the shifted sum
    SIZES = [1, 2, 31, 17, 9]
    WIDTHS = np.array([0.02, 0.3, 0.25, 0.02, 0.6])

    @pytest.mark.parametrize("absolute", [False, True])
    def test_against_fsum(self, absolute):
        rng = np.random.default_rng(21)
        points, labels = class_rows(rng, self.SIZES, 6, absolute=absolute)
        inv = 1.0 / (2.0 * self.WIDTHS**2)
        got = _kernels.class_log_sums(points, labels, inv, absolute=absolute)
        assert got.shape == (len(labels), len(self.SIZES))
        low = 0
        for r, row in enumerate(points):
            for j, inv_j in enumerate(inv):
                support = points[labels == j]
                expected = shifted_log_sum(row, support, inv_j, absolute)
                low += expected < math.log(len(support) * _kernels._LOW_SUM)
                assert got[r, j] == pytest.approx(expected, rel=1e-13), (r, j)
        assert low >= 50  # the shifted path is exercised

    @pytest.mark.parametrize("absolute", [False, True])
    def test_fallback_agrees_with_shared_blocks(self, monkeypatch, absolute):
        rng = np.random.default_rng(22)
        points, labels = class_rows(rng, self.SIZES, 6, absolute=absolute)
        inv = 1.0 / (2.0 * self.WIDTHS**2)
        shared = _kernels.class_log_sums(points, labels, inv, absolute=absolute)
        calls = []
        kernel_sums = _kernels.kernel_sums

        def counting(eval_pts, support, *args, **kwargs):
            calls.append((len(eval_pts), len(support)))
            return kernel_sums(eval_pts, support, *args, **kwargs)

        monkeypatch.setattr(_kernels, "kernel_sums", counting)
        # under 8 * 31 * 17 bytes, only the pairs within the two largest
        # classes fall back, each direction on its own
        for budget, pairs in ((8 * 31 * 17 - 1, [(31, 31), (31, 17), (17, 31)]), (1, None)):
            calls.clear()
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
            got = _kernels.class_log_sums(points, labels, inv, absolute=absolute)
            assert calls == pairs if pairs else len(calls) == len(self.SIZES) ** 2
            np.testing.assert_array_equal(got, shared)

    def test_chunks_change_nothing(self, monkeypatch):
        # the chunks split only whole rows, so no sum changes
        rng = np.random.default_rng(23)
        points, labels = class_rows(rng, self.SIZES, 6, absolute=False)
        inv = 1.0 / (2.0 * self.WIDTHS**2)
        whole = _kernels.class_log_sums(points, labels, inv)
        for budget in (1, 8 * 31 * 3):
            monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
            np.testing.assert_array_equal(_kernels.class_log_sums(points, labels, inv), whole)

    def test_sharp_suite_stays_finite(self):
        # the first networks of `synth --seed 18 --tau 0.1`: most rows of
        # the KDE fit underflow; pytest turns a log(0) warning into an error
        suite = make_suite(18, 2, 10, 2000, 1, [0.1, 0.1])
        batch = LabeledBatch([embed_probability_rows(t) for t in suite["train"]],
                             suite["train_labels"])
        densities, P_train = fit_densities(batch, 10, "kde")
        assert np.isfinite(P_train).all()
        sizes = np.bincount(batch.labels, minlength=10)
        for features, row in zip(batch.features, densities):
            sums = _kernels.class_log_sums(features, batch.labels,
                                           [d.inv_two_bw_sq for d in row])
            assert np.isfinite(sums).all()
            assert np.mean(sums < np.log(sizes * _kernels._LOW_SUM)) > 0.8


def labelled_cells(rng, sizes, m, d, *, sign_flips=False):
    """m tables of positive-quadrant unit rows, shuffled over classes of the
    given sizes; ``sign_flips`` negates a random half of the rows."""
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    feats = []
    for _ in range(m):
        f = np.abs(rng.standard_normal((len(labels), d))) + 0.5
        f /= np.linalg.norm(f, axis=1)[:, None]
        if sign_flips:
            f *= rng.choice([-1.0, 1.0], (len(labels), 1))
        feats.append(f)
    return feats, labels


def assert_cells_match_oracle(means, feats, labels, *, sign_align=False):
    for i, f in enumerate(feats):
        for j in range(means.shape[1]):
            rows = f[labels == j]
            if len(rows) == 0:
                assert np.all(np.isnan(means[i, j]))
                continue
            ref = oracles.ref_incremental_mean(rows, sign_align=sign_align)
            assert np.abs(means[i, j] - ref).max() <= oracles.CELL_MEAN_TOL, (i, j)


class TestCellMeans:
    """The batched recursion over every (network, class) cell against the
    scalar per-cell oracle, within oracles.CELL_MEAN_TOL per coordinate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ragged_classes(self, seed):
        # classes run out at different steps, the longest after 60
        rng = np.random.default_rng(seed)
        feats, labels = labelled_cells(rng, [1, 2, 37, 5, 60], 3, 5)
        means = _kernels.cell_means(feats, labels, 5)
        assert means.shape == (3, 5, 5)
        assert_cells_match_oracle(means, feats, labels)

    def test_coincident_rows(self):
        # a row equal to the running mean takes the theta < 1e-14 branch
        rng = np.random.default_rng(3)
        x, y = random_unit_rows(rng, 2, 4)
        table = np.array([x, x, x, y, x, y, y, x, x, y, x, x])
        labels = np.array([0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1])
        means = _kernels.cell_means([table, np.abs(table)], labels, 2)
        np.testing.assert_array_equal(means[0, 0], x)
        np.testing.assert_array_equal(means[1, 0], np.abs(x))
        assert_cells_match_oracle(means, [table, np.abs(table)], labels)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_grassmann_sign_flips(self, seed):
        rng = np.random.default_rng(seed)
        feats, labels = labelled_cells(rng, [9, 30, 17], 4, 6, sign_flips=True)
        means = _kernels.cell_means(feats, labels, 3, sign_align=True)
        assert_cells_match_oracle(means, feats, labels, sign_align=True)

    @pytest.mark.parametrize("sizes", [[0, 4, 6], [4, 0, 6], [4, 6, 0], [0, 5, 0]])
    def test_empty_classes_get_nan(self, sizes):
        rng = np.random.default_rng(6)
        feats, labels = labelled_cells(rng, sizes, 2, 3)
        means = _kernels.cell_means(feats, labels, 3)
        assert_cells_match_oracle(means, feats, labels)

    def test_antipodal_sample_gives_non_finite_mean(self):
        table = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.8, 0.6]])
        means = _kernels.cell_means([table], np.array([0, 1, 0, 1]), 2)
        assert not np.all(np.isfinite(means[0, 0]))
        assert np.all(np.isfinite(means[0, 1]))


class TestBackendSelection:
    def test_active_backend_reported(self, runner, tmp_path):
        assert _kernels.backend() == "numpy"
        assert spheremix.kernel_backend() == "numpy"
        suite = make_suite(5, 2, 3, 40, 1, [0.7, 0.8])
        paths = write_suite(suite, tmp_path / "suite")
        args = ["fit", "--labels", str(paths["train_labels"]),
                "--out", str(tmp_path / "model.json"),
                "--report", str(tmp_path / "fit.txt"), "--max-iters", "5"]
        for table in paths["train"]:
            args += ["--train-table", str(table)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["kernel_backend"] == "numpy"
