import json

import numpy as np
import pytest
from click.testing import CliRunner

from spheremix import ensemble
from spheremix.cli import main
from spheremix.io import load_labels, load_output_table
from spheremix.synth import make_suite, write_suite
from test_io import BLOB_DAMAGE, corrupt_blob


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    write_suite(make_suite(7, 3, 4, 240, 80, [0.55, 0.7, 0.85]), out)
    return out


def table_args(prefix, outdir, m, flag):
    args = []
    for i in range(m):
        args += [flag, str(outdir / f"{prefix}_net{i:02d}.csv")]
    return args


def run_fit(runner, suite_dir, tmp_path, *extra):
    model_path = tmp_path / "model.json"
    args = (
        ["fit"]
        + table_args("train", suite_dir, 3, "--train-table")
        + ["--labels", str(suite_dir / "train_labels.txt"), "--out", str(model_path)]
        + list(extra)
    )
    result = runner.invoke(main, args)
    return result, model_path


class TestSynthCommand:
    def test_writes_files(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--outdir", str(tmp_path / "s"), "--m", "2", "--c", "3",
            "--n-train", "30", "--n-test", "10", "--tau", "0.7", "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        table = load_output_table(tmp_path / "s" / "train_net01.csv")
        assert table.n == 30 and table.d == 3
        assert load_labels(tmp_path / "s" / "test_labels.txt", 3).shape == (10,)

    def test_deterministic_bytes(self, runner, tmp_path):
        for d in ("a", "b"):
            result = runner.invoke(main, [
                "synth", "--outdir", str(tmp_path / d), "--m", "2", "--c", "3",
                "--n-train", "25", "--n-test", "5", "--tau", "0.6:0.8", "--seed", "11",
            ])
            assert result.exit_code == 0
        for name in ("train_net00.csv", "test_net01.csv", "train_labels.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_tau_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--outdir", str(tmp_path), "--tau", "nope"])
        assert result.exit_code == 2


class TestFitCommand:
    def test_fit_writes_model_and_reports(self, runner, suite_dir, tmp_path):
        report = tmp_path / "report.txt"
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--report", str(report))
        assert result.exit_code == 0, result.output
        assert model_path.exists() and report.exists()
        metrics = json.loads((tmp_path / "report.json").read_text())
        alpha = np.asarray(metrics["alpha"])
        assert np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12
        assert "standalone_train_accuracy" in metrics
        assert metrics["wall_time_weight_learning_s"] > 0.0
        assert "learned weights" in result.output

    def test_fd_mode_matches_analytic(self, runner, suite_dir, tmp_path):
        r1, m1 = run_fit(runner, suite_dir, tmp_path / "a")
        r2, m2 = run_fit(runner, suite_dir, tmp_path / "b",
                         "--grad-mode", "finite-difference")
        assert r1.exit_code == 0 and r2.exit_code == 0
        a1 = np.asarray(json.loads(m1.read_text())["alpha"])
        a2 = np.asarray(json.loads(m2.read_text())["alpha"])
        np.testing.assert_allclose(a1, a2, rtol=0, atol=1e-4)

    def test_missing_labels_file(self, runner, suite_dir, tmp_path):
        result = runner.invoke(main, [
            "fit", "--train-table", str(suite_dir / "train_net00.csv"),
            "--labels", str(suite_dir / "no_such_file.txt"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3

    def test_invalid_eta(self, runner, suite_dir, tmp_path):
        result, _ = run_fit(runner, suite_dir, tmp_path, "--eta", "-1.0")
        assert result.exit_code == 2

    def test_negative_kde_max_support(self, runner, suite_dir, tmp_path):
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--model", "kde",
                                     "--kde-max-support", "-5")
        assert result.exit_code == 2
        assert "InvalidConfig" in result.output and not model_path.exists()

    def test_kde_fit(self, runner, suite_dir, tmp_path):
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--model", "kde")
        assert result.exit_code == 0, result.output
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "kde"
        assert "support" in doc["densities"][0][0]

    def test_fit_is_deterministic(self, runner, suite_dir, tmp_path):
        _, m1 = run_fit(runner, suite_dir, tmp_path / "r1", "--model", "kde",
                        "--kde-max-support", "40")
        _, m2 = run_fit(runner, suite_dir, tmp_path / "r2", "--model", "kde",
                        "--kde-max-support", "40")
        assert m1.read_bytes() == m2.read_bytes()


@pytest.fixture(scope="module")
def fitted(runner, suite_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fitted")
    result, model_path = run_fit(runner, suite_dir, tmp)
    assert result.exit_code == 0
    return model_path


class TestPredictCommand:
    def test_predictions_shape_and_sum(self, runner, suite_dir, fitted, tmp_path):
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted),
            *table_args("test", suite_dir, 3, "--table"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert len(rows) == 80
        for row in rows:
            assert len(row) == 5
            assert 0 <= int(row[0]) < 4
            assert abs(sum(map(float, row[1:])) - 1.0) <= 1e-12

    def test_scores_once_and_class_is_argmax(self, runner, suite_dir, fitted, tmp_path,
                                             monkeypatch):
        calls = []
        real = ensemble.pdf_grid
        monkeypatch.setattr(ensemble, "pdf_grid", lambda *a: calls.append(1) or real(*a))
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted),
            *table_args("test", suite_dir, 3, "--table"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        for line in out.read_text().strip().splitlines():
            cells = line.split(",")
            assert int(cells[0]) == int(np.argmax([float(v) for v in cells[1:]]))

    def test_single_row(self, runner, suite_dir, fitted, tmp_path):
        single = []
        for i in range(3):
            src = (suite_dir / f"test_net{i:02d}.csv").read_text().splitlines()[0]
            p = tmp_path / f"one{i}.csv"
            p.write_text(src + "\n")
            single += ["--table", str(p)]
        out = tmp_path / "pred_one.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted), *single, "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_network_count_mismatch(self, runner, suite_dir, fitted, tmp_path):
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted),
            "--table", str(suite_dir / "test_net00.csv"),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert result.exit_code == 4

    def test_corrupt_model(self, runner, suite_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, [
            "predict", "--model-file", str(bad),
            *table_args("test", suite_dir, 3, "--table"),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert result.exit_code == 4

    @pytest.mark.parametrize("how", BLOB_DAMAGE)
    def test_damaged_array_blob(self, runner, suite_dir, fitted, tmp_path, how):
        doc = json.loads(fitted.read_text())
        corrupt_blob(doc["densities"][1][2]["mu"], how)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in (["inspect", "--model-file", str(bad)], [
            "predict", "--model-file", str(bad),
            *table_args("test", suite_dir, 3, "--table"), "--out", str(tmp_path / "p.csv"),
        ]):
            result = runner.invoke(main, command)
            assert result.exit_code == 4 and "CorruptModel" in result.output

    def test_separable_fixture_all_correct(self, runner, tmp_path):
        # near-noiseless networks: the class means are the test points
        outdir = tmp_path / "sep"
        write_suite(make_suite(5, 2, 3, 120, 30, [0.05, 0.05]), outdir)
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, [
            "fit", *table_args("train", outdir, 2, "--train-table"),
            "--labels", str(outdir / "train_labels.txt"), "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(model_path),
            *table_args("test", outdir, 2, "--table"), "--out", str(out),
        ])
        assert result.exit_code == 0
        predicted = [int(r.split(",")[0]) for r in out.read_text().strip().splitlines()]
        labels = load_labels(outdir / "test_labels.txt", 3)
        assert np.array_equal(predicted, labels)


class TestEvaluateCommand:
    def test_reports_delta(self, runner, suite_dir, tmp_path):
        _, model_path = run_fit(runner, suite_dir, tmp_path)
        report = tmp_path / "eval.txt"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            *table_args("test", suite_dir, 3, "--table"),
            "--labels", str(suite_dir / "test_labels.txt"),
            "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "eval.json").read_text())
        assert metrics["delta"] == pytest.approx(
            metrics["accuracy"] - metrics["average_constituent_accuracy"], abs=1e-12
        )
        assert metrics["average_constituent_accuracy"] == pytest.approx(
            float(np.mean(metrics["standalone_accuracy"])), abs=1e-12
        )

    def test_single_network_close_to_standalone(self, runner, tmp_path):
        outdir = tmp_path / "one"
        write_suite(make_suite(9, 1, 4, 400, 200, [0.65]), outdir)
        model_path = tmp_path / "m.json"
        result = runner.invoke(main, [
            "fit", "--train-table", str(outdir / "train_net00.csv"),
            "--labels", str(outdir / "train_labels.txt"), "--out", str(model_path),
        ])
        assert result.exit_code == 0
        report = tmp_path / "eval.txt"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            "--table", str(outdir / "test_net00.csv"),
            "--labels", str(outdir / "test_labels.txt"),
            "--report", str(report),
        ])
        assert result.exit_code == 0
        metrics = json.loads((tmp_path / "eval.json").read_text())
        # the density decision rule may differ slightly from raw argmax
        assert abs(metrics["accuracy"] - metrics["standalone_accuracy"][0]) <= 0.02

    def test_identical_networks_equal_shared_classifier(self, runner, tmp_path):
        outdir = tmp_path / "dup"
        write_suite(make_suite(13, 1, 3, 200, 100, [0.7]), outdir)
        model_path = tmp_path / "m.json"
        dup_tables = ["--train-table", str(outdir / "train_net00.csv")] * 2
        result = runner.invoke(main, [
            "fit", *dup_tables,
            "--labels", str(outdir / "train_labels.txt"), "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        report = tmp_path / "eval.txt"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            "--table", str(outdir / "test_net00.csv"),
            "--table", str(outdir / "test_net00.csv"),
            "--labels", str(outdir / "test_labels.txt"),
            "--report", str(report),
        ])
        assert result.exit_code == 0
        metrics = json.loads((tmp_path / "eval.json").read_text())
        # two copies of one network: the mixture collapses to the shared
        # density classifier, whatever the learned weights
        single_model = tmp_path / "single.json"
        result = runner.invoke(main, [
            "fit", "--train-table", str(outdir / "train_net00.csv"),
            "--labels", str(outdir / "train_labels.txt"), "--out", str(single_model),
        ])
        assert result.exit_code == 0
        report2 = tmp_path / "eval2.txt"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(single_model),
            "--table", str(outdir / "test_net00.csv"),
            "--labels", str(outdir / "test_labels.txt"),
            "--report", str(report2),
        ])
        metrics2 = json.loads((tmp_path / "eval2.json").read_text())
        assert metrics["accuracy"] == metrics2["accuracy"]


class TestInspectCommand:
    def test_dumps_metadata(self, runner, suite_dir, tmp_path):
        _, model_path = run_fit(runner, suite_dir, tmp_path)
        result = runner.invoke(main, ["inspect", "--model-file", str(model_path)])
        assert result.exit_code == 0
        assert "alpha" in result.output
        assert "m:     3 networks" in result.output

    def test_prints_descent_diagnostics(self, runner, suite_dir, tmp_path):
        fit_result, model_path = run_fit(runner, suite_dir, tmp_path, "--max-iters", "5")
        assert fit_result.exit_code == 0, fit_result.output
        assert "descent stopped by max_iters" in fit_result.output
        assert "uniform-weight loss" in fit_result.output
        assert "effective networks" in fit_result.output
        meta = json.loads(model_path.read_text())["fit_meta"]
        result = runner.invoke(main, ["inspect", "--model-file", str(model_path)])
        assert result.exit_code == 0
        assert "stop_reason=max_iters" in result.output
        assert f"grad_norm={meta['grad_norm']}" in result.output
        assert f"uniform_loss={meta['uniform_loss']}" in result.output
        assert f"effective_networks={meta['effective_networks']}" in result.output


def write_feature_suite(fx, outdir):
    for split in ("train", "test"):
        for i, table in enumerate(fx[split]):
            path = outdir / f"{split}_net{i:02d}.csv"
            path.write_text(
                "\n".join(",".join(repr(float(v)) for v in row) for row in table) + "\n"
            )
        (outdir / f"{split}_labels.txt").write_text(
            "\n".join(str(v) for v in fx[f"{split}_labels"]) + "\n"
        )


class TestGrassmannCli:
    def test_feature_mode_end_to_end(self, runner, tmp_path):
        import oracles

        fx = oracles.grassmann_feature_suite(21, dims=(5, 8), c=3,
                                             n_train=90, n_test=45,
                                             noise=(0.3, 0.35))
        write_feature_suite(fx, tmp_path)
        model_path = tmp_path / "gr.json"
        result = runner.invoke(main, [
            "fit", "--space", "grassmann", "--classes", "3",
            "--train-table", str(tmp_path / "train_net00.csv"),
            "--train-table", str(tmp_path / "train_net01.csv"),
            "--labels", str(tmp_path / "train_labels.txt"),
            "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        report = tmp_path / "eval.txt"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            "--table", str(tmp_path / "test_net00.csv"),
            "--table", str(tmp_path / "test_net01.csv"),
            "--labels", str(tmp_path / "test_labels.txt"),
            "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "eval.json").read_text())
        assert metrics["accuracy"] > 0.5

    def test_kde_evaluate_evaluates_each_density_once(self, runner, tmp_path, monkeypatch):
        from spheremix import _kernels

        import oracles

        fx = oracles.grassmann_feature_suite(22, dims=(4, 6), c=3, n_train=60, n_test=30,
                                             noise=(0.3, 0.35))
        write_feature_suite(fx, tmp_path)
        model_path = tmp_path / "gr.json"
        result = runner.invoke(main, [
            "fit", "--space", "grassmann", "--classes", "3", "--model", "kde",
            "--train-table", str(tmp_path / "train_net00.csv"),
            "--train-table", str(tmp_path / "train_net01.csv"),
            "--labels", str(tmp_path / "train_labels.txt"), "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        calls = []
        kernel_sums = _kernels.kernel_sums

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return kernel_sums(*args, **kwargs)

        monkeypatch.setattr(_kernels, "kernel_sums", counting)
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            "--table", str(tmp_path / "test_net00.csv"),
            "--table", str(tmp_path / "test_net01.csv"),
            "--labels", str(tmp_path / "test_labels.txt"),
        ])
        assert result.exit_code == 0, result.output
        # one kernel sum per (network, class) density over the 30 test rows
        assert calls == [30] * 6

    def test_grassmann_requires_classes(self, runner, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n2.0,1.0\n")
        y = tmp_path / "y.txt"
        y.write_text("0\n1\n")
        result = runner.invoke(main, [
            "fit", "--space", "grassmann", "--train-table", str(p),
            "--labels", str(y), "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 2
