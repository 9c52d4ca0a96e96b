import argparse
import dataclasses
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from spheremix import cli, ensemble, io
from spheremix.cli import main
from spheremix.io import load_labels, load_output_table
from spheremix.synth import make_suite, parse_taus, write_suite
from conftest import SUITE_C, SUITE_M, SUITE_N_TEST, SUITE_N_TRAIN, SUITE_SEED, SUITE_TAU
from test_io import (
    BLOB_DAMAGE, CELL_DAMAGE, corrupt_blob, damage_cell, model_file, model_header, old_document,
    parse_model, poison_blob,
)


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

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau(self, runner, tmp_path, tau):
        result = runner.invoke(main, ["synth", "--outdir", str(tmp_path / "s"), "--tau", tau])
        assert result.exit_code == 2
        assert "InvalidConfig: tau values must be positive and finite" in result.output
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_network_count_below_one(self, runner, tmp_path, m):
        # --m -1 used to reach np.linspace and exit 1 with a ValueError
        result = runner.invoke(main, ["synth", "--outdir", str(tmp_path / "s"), "--m", m])
        assert result.exit_code == 2
        assert f"InvalidConfig: need m >= 1 networks, got {m}" in result.output
        assert not (tmp_path / "s").exists()


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

    @pytest.mark.parametrize("flag", [["--sigma-floor", "1"], ["--kde-max-support", "1"],
                                      ["--seed", "1"], ["--thread", "2"]],
                             ids=["sigma-floor", "kde-max-support", "seed", "abbreviated"])
    def test_removed_fit_options(self, runner, suite_dir, tmp_path, flag):
        result, model_path = run_fit(runner, suite_dir, tmp_path, *flag)
        assert result.exit_code == 2
        assert "unrecognized arguments" in result.output and not model_path.exists()

    @pytest.mark.parametrize("flag", [["--backtrack"], ["--grad-mode", "analytic"]],
                             ids=["backtrack", "grad-mode"])
    def test_removed_descent_options(self, runner, suite_dir, tmp_path, flag):
        result, model_path = run_fit(runner, suite_dir, tmp_path, *flag)
        assert result.exit_code == 2
        assert "unrecognized arguments" in result.output and not model_path.exists()

    def test_missing_labels_file(self, runner, suite_dir, tmp_path):
        result = runner.invoke(main, [
            "fit", "--train-table", str(suite_dir / "train_net00.csv"),
            "--labels", str(suite_dir / "no_such_file.txt"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3

    def test_empty_class_exit_code(self, runner, suite_dir, tmp_path, monkeypatch):
        # the suite has 4 classes; relabel the last one so it has no rows. The
        # labels are checked once, by name, before any density is fitted
        labels = tmp_path / "labels.txt"
        labels.write_text((suite_dir / "train_labels.txt").read_text().replace("3", "0"))
        monkeypatch.setattr(cli, "fit_densities", None)
        result = runner.invoke(main, [
            "fit", *table_args("train", suite_dir, 3, "--train-table"),
            "--labels", str(labels), "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3
        assert f"EmptySampleSet: {labels}: no training rows for class 3\n" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_invalid_eta(self, runner, suite_dir, tmp_path):
        result, _ = run_fit(runner, suite_dir, tmp_path, "--eta", "-1.0")
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, value", [
        ("--eta", "nan"), ("--eta", "inf"), ("--tol", "inf"),
        ("--eta", "-inf"), ("--tol", "-1e-3"),  # a value that begins with "-"
    ])
    def test_non_finite_option(self, runner, suite_dir, tmp_path, option, value):
        result, model_path = run_fit(runner, suite_dir, tmp_path, option, value)
        assert result.exit_code == 2
        assert "InvalidConfig" in result.output and "positive and finite" in result.output
        assert not model_path.exists()

    def test_overflowing_step(self, runner, suite_dir, tmp_path):
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--eta", "1e200")
        assert result.exit_code == 5
        assert "NonFiniteLoss: descent step length is inf; reduce eta" in result.output
        assert "Traceback" not in result.output and not model_path.exists()

    @pytest.mark.parametrize("space, classes", [
        ("sphere", "0"), ("sphere", "-1"), ("grassmann", "0"), ("grassmann", "-2"),
    ])
    def test_classes_below_one(self, runner, suite_dir, tmp_path, space, classes):
        # grassmann --classes -2 exited 3 on the labels, sphere --classes 0
        # exited 4 on the table width
        result, _ = run_fit(runner, suite_dir, tmp_path, "--space", space, "--classes", classes)
        assert result.exit_code == 2
        assert "InvalidConfig" in result.output

    def test_reports_uniform_weight_accuracy(self, runner, suite_dir, tmp_path):
        report = tmp_path / "fit.txt"
        result, _ = run_fit(runner, suite_dir, tmp_path, "--report", str(report))
        assert result.exit_code == 0, result.output
        metrics = json.loads((tmp_path / "fit.json").read_text())
        line = (f"train accuracy: {metrics['train_accuracy']:.4f}   "
                f"uniform-weight train accuracy: {metrics['uniform_train_accuracy']:.4f}")
        assert line in result.output
        assert 0.0 < metrics["uniform_train_accuracy"] <= 1.0
        assert not {"train_accuracy", "uniform_accuracy",
                    "uniform_train_accuracy"} & set(metrics["fit_meta"])

    def test_kde_fit(self, runner, suite_dir, tmp_path):
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--model", "kde")
        assert result.exit_code == 0, result.output
        doc = model_header(model_path)
        assert doc["kind"] == "kde"
        assert "support" in doc["densities"][0][0]

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_fit_is_deterministic(self, runner, suite_dir, tmp_path, kind):
        # fit draws no random numbers and takes no seed
        r1, m1 = run_fit(runner, suite_dir, tmp_path / "r1", "--model", kind)
        r2, m2 = run_fit(runner, suite_dir, tmp_path / "r2", "--model", kind)
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_grouped_input_is_a_fixed_point(self, runner, suite_dir, tmp_path, kind):
        # fit groups the rows by class (stable), so files already grouped
        # that way give the same model bytes
        grouped = tmp_path / "grouped"
        grouped.mkdir()
        labels = (suite_dir / "train_labels.txt").read_text().splitlines(keepends=True)
        order = np.argsort([int(v) for v in labels], kind="stable")
        for name in ["train_labels.txt"] + [f"train_net{i:02d}.csv" for i in range(3)]:
            lines = (suite_dir / name).read_text().splitlines(keepends=True)
            (grouped / name).write_text("".join(lines[k] for k in order))
        r1, m1 = run_fit(runner, suite_dir, tmp_path / "r1", "--model", kind)
        r2, m2 = run_fit(runner, grouped, tmp_path / "r2", "--model", kind)
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("kind, below", [("parametric", True), ("kde", False)])
    def test_flags_learned_below_uniform(self, runner, suite_dir, tmp_path, kind, below):
        # on this suite the parametric weights collapse onto one network and
        # classify worse than uniform ones, on both splits; the KDE weights tie
        # with them there, and nothing is flagged
        result, model_path = run_fit(runner, suite_dir, tmp_path, "--model", kind,
                                     "--report", str(tmp_path / "fit.txt"))
        evaluated = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path),
            *table_args("test", suite_dir, 3, "--table"),
            "--labels", str(suite_dir / "test_labels.txt"), "--report", str(tmp_path / "ev.txt")])
        assert result.exit_code == 0 and evaluated.exit_code == 0, result.output + evaluated.output
        fit = json.loads((tmp_path / "fit.json").read_text())
        ev = json.loads((tmp_path / "ev.json").read_text())
        for output, report, accuracy, uniform, split in (
            (result.output, "fit.txt", fit["train_accuracy"], fit["uniform_train_accuracy"],
             "the training set"),
            (evaluated.output, "ev.txt", ev["accuracy"], ev["uniform_accuracy"], "this batch"),
        ):
            assert (accuracy < uniform) == below
            line = (f"note: learned weights classify worse than uniform ones on {split}: "
                    f"accuracy {accuracy:.4f} < uniform {uniform:.4f}\n")
            assert (line in output) == below and (line in (tmp_path / report).read_text()) == below
            assert output.count("worse than uniform") == below


@pytest.fixture(scope="module")
def fitted(runner, suite_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fitted")
    result, model_path = run_fit(runner, suite_dir, tmp)
    assert result.exit_code == 0
    return model_path


@pytest.fixture(scope="module")
def kde_fitted(runner, suite_dir, tmp_path_factory):
    result, model_path = run_fit(runner, suite_dir, tmp_path_factory.mktemp("kde"),
                                 "--model", "kde")
    assert result.exit_code == 0, result.output
    return model_path


def scoring_args(command, suite_dir, tmp_path) -> list:
    """The --table options of the 3-network suite and the command's own output or labels."""
    extra = (["--labels", str(suite_dir / "test_labels.txt")] if command == "evaluate"
             else ["--out", str(tmp_path / "p.csv")])
    return [*table_args("test", suite_dir, 3, "--table"), *extra]


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
        # one pass of the per-network generator, which scores each network once
        calls, networks = [], []
        real = ensemble.network_log_densities

        def spy(*args):
            calls.append(1)
            for L in real(*args):
                networks.append(L.shape)
                yield L

        monkeypatch.setattr(ensemble, "network_log_densities", spy)
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted),
            *table_args("test", suite_dir, 3, "--table"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1 and networks == [(80, 4)] * 3
        for line in out.read_text().strip().splitlines():
            cells = line.split(",")
            assert int(cells[0]) == int(np.argmax([float(v) for v in cells[1:]]))

    def test_rows_are_class_then_float_reprs(self, runner, suite_dir, fitted, tmp_path):
        out = tmp_path / "pred.csv"
        tables = table_args("test", suite_dir, 3, "--table")
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted), *tables, "--out", str(out)])
        assert result.exit_code == 0, result.output
        model = io.load_model_file(fitted)
        probs = ensemble.ensemble_probability_batch(model, io.load_split(tables[1::2])[0])
        assert out.read_text() == "".join(
            ",".join([str(int(np.argmax(row)))] + [repr(float(p)) for p in row]) + "\n"
            for row in probs)

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
        bad = tmp_path / "bad.json"
        bad.write_bytes(corrupt_blob(io.load_model_file(fitted),
                                     lambda doc: doc["densities"][1][2]["mu"], how))
        for command in (["inspect", "--model-file", str(bad)], [
            "predict", "--model-file", str(bad),
            *table_args("test", suite_dir, 3, "--table"), "--out", str(tmp_path / "p.csv"),
        ]):
            result = runner.invoke(main, command)
            assert result.exit_code == 4 and "CorruptModel" in result.output
            assert BLOB_DAMAGE[how] in result.output and f"(in {bad})" in result.output

    def test_short_model_body(self, runner, suite_dir, fitted, tmp_path):
        short = tmp_path / "short.json"
        short.write_bytes(fitted.read_bytes()[:-8])
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(short), *table_args("test", suite_dir, 3, "--table"),
            "--labels", str(suite_dir / "test_labels.txt")])
        assert result.exit_code == 4, result.output
        assert "CorruptModel: model body ends early" in result.output
        assert f"(in {short})" in result.output

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_old_schema_is_refused(self, runner, suite_dir, kde_fitted, tmp_path, command):
        # a schema-2 model, which this version no longer reads, must be refit
        old = tmp_path / "v2.json"
        old.write_bytes(old_document(io.load_model_file(kde_fitted), 2))
        report = ["--report", str(tmp_path / "r.txt")] if command == "evaluate" else []
        result = runner.invoke(main, [command, "--model-file", str(old),
                                      *scoring_args(command, suite_dir, tmp_path), *report])
        assert result.exit_code == 4, result.output
        assert "SchemaMismatch: model schema_version 2" in result.output
        assert result.output.rstrip().endswith(f"(in {old})")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v2.json"]

    @pytest.mark.parametrize("field", ["alpha_tilde", "support", "mu"])
    def test_non_finite_model_array(self, runner, suite_dir, tmp_path, field):
        # a NaN alpha_tilde used to load and predict exited 0 with nan probabilities
        kind = "kde" if field == "support" else "parametric"
        _, model_path = run_fit(runner, suite_dir, tmp_path, "--model", kind)
        doc = parse_model(model_path.read_bytes())
        poison_blob(doc[field] if field == "alpha_tilde" else doc["densities"][1][2][field])
        model_path.write_bytes(model_file(doc))
        tables = table_args("test", suite_dir, 3, "--table")
        for command in (
            ["predict", "--model-file", str(model_path), *tables, "--out", str(tmp_path / "p.csv")],
            ["evaluate", "--model-file", str(model_path), *tables,
             "--labels", str(suite_dir / "test_labels.txt")],
        ):
            result = runner.invoke(main, command)
            assert result.exit_code == 4 and "CorruptModel" in result.output
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("damage", CELL_DAMAGE.values(), ids=CELL_DAMAGE.keys())
    def test_damaged_model_cell(self, runner, suite_dir, tmp_path, damage):
        # exit 0, 1 (a ZeroDivisionError traceback) or 3 before
        kind, space, field, damage = damage
        extra = ["--space", "grassmann", "--classes", "4"] if space == "grassmann" else []
        _, model_path = run_fit(runner, suite_dir, tmp_path, "--model", kind, *extra)
        model_path.write_bytes(damage_cell(model_path.read_bytes(), field, damage))
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), *table_args("test", suite_dir, 3, "--table"),
            "--labels", str(suite_dir / "test_labels.txt")])
        assert result.exit_code == 4, result.output
        assert "CorruptModel: model file is missing or corrupts required fields" in result.output
        assert "network 1, class 2: " in result.output and f"(in {model_path})" in result.output

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
        assert f"uniform-weight accuracy: {metrics['uniform_accuracy']:.4f}" in result.output
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


class TestAmbiguousRows:
    """Three sharp networks (tau = 0.1): at a uniform or a 50/50 row every
    density lies below 1e-300. Both rows made predict and evaluate exit 5
    with DegenerateScores before scores were shifted in log space."""

    @pytest.fixture(scope="class")
    def sharp_suite(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sharp")
        write_suite(make_suite(18, 3, 10, 600, 10, [0.1] * 3), out)
        return out

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("row", ["0.1," * 9 + "0.1", "0.5,0.5" + ",0" * 8],
                             ids=["uniform", "fifty-fifty"])
    def test_predict_and_evaluate(self, runner, sharp_suite, tmp_path, kind, row):
        _, model_path = run_fit(runner, sharp_suite, tmp_path, "--model", kind)
        for i in range(3):
            (tmp_path / f"row_net{i:02d}.csv").write_text(row + "\n")
        (tmp_path / "row_labels.txt").write_text("0\n")
        tables = table_args("row", tmp_path, 3, "--table")
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, ["predict", "--model-file", str(model_path), *tables,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        cells = out.read_text().strip().split(",")
        probs = np.array([float(v) for v in cells[1:]])
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12
        assert int(cells[0]) == int(np.argmax(probs))
        result = runner.invoke(main, ["evaluate", "--model-file", str(model_path), *tables,
                                      "--labels", str(tmp_path / "row_labels.txt")])
        assert result.exit_code == 0, result.output
        assert f"ensemble accuracy:       {float(cells[0] == '0'):.4f}" in result.output


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
        meta = model_header(model_path)["fit_meta"]
        assert f"{meta['loss_evaluations']} loss evaluations" in fit_result.output
        result = runner.invoke(main, ["inspect", "--model-file", str(model_path)])
        assert result.exit_code == 0
        assert "stop_reason=max_iters" in result.output
        assert f"grad_norm={meta['grad_norm']}" in result.output
        assert f"uniform_loss={meta['uniform_loss']}" in result.output
        assert f"effective_networks={meta['effective_networks']}" in result.output
        assert f"loss_evaluations={meta['loss_evaluations']}" in result.output

    def test_weights_listed_by_printed_value(self, runner, fitted, tmp_path):
        # by printed weight, then network index: two models whose weights
        # differ below 1e-7 list alike (an argsort listed them by their last bits)
        model = io.load_model_file(fitted)
        listings = []
        for k, tail in enumerate(([1e-9, 2e-9], [2e-9, 1e-9])):
            path = tmp_path / f"m{k}.json"
            weights = ensemble.MixtureWeights.from_alpha([1.0 - 3e-9, *tail])
            io.save_model_file(dataclasses.replace(model, weights=weights), path)
            result = runner.invoke(main, ["inspect", "--model-file", str(path)])
            assert result.exit_code == 0, result.output
            listings.append(result.output.split("alpha (sorted):\n")[1])
        assert listings[0] == listings[1] == (
            "  net 00  alpha = 1.000000\n  net 01  alpha = 0.000000\n"
            "  net 02  alpha = 0.000000\n")
        assert cli._weight_lines([0.25 + 1e-12, 0.25, 0.5 - 1e-12]) == [
            "  net 02  alpha = 0.500000", "  net 00  alpha = 0.250000",
            "  net 01  alpha = 0.250000"]


class TestScoringMemory:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_one_table_alive(self, runner, suite_dir, fitted, tmp_path, monkeypatch, command):
        # each --table is parsed only once the one before it is gone
        alive = []
        load_output_table = io.load_output_table

        def load(path, mode):
            assert all(ref() is None for ref in alive), path
            table = load_output_table(path, mode)
            alive.append(weakref.ref(table.values))
            return table

        monkeypatch.setattr(io, "load_output_table", load)
        extra = (["--labels", str(suite_dir / "test_labels.txt")] if command == "evaluate"
                 else ["--out", str(tmp_path / "p.csv")])
        result = runner.invoke(main, [command, "--model-file", str(fitted),
                                      *table_args("test", suite_dir, 3, "--table"), *extra])
        assert result.exit_code == 0, result.output
        assert len(alive) == 3

    def test_desk_kde_peak(self, runner, fitted_models, tmp_path):
        # evaluate and predict read their tables one at a time, so a scoring
        # command's tracemalloc peak stays below the model's arrays plus 1.8x
        # the (n, m, c) tensor
        model = fitted_models["kde"]["model"]
        model_path = tmp_path / "kde.model"
        io.save_model_file(model, model_path)
        suite = make_suite(SUITE_SEED, SUITE_M, SUITE_C, SUITE_N_TRAIN, SUITE_N_TEST,
                           parse_taus(SUITE_TAU, SUITE_M))
        for i, table in enumerate(suite["test"]):
            io.write_rows(tmp_path / f"test_net{i:02d}.csv", table.tolist())
        io.write_rows(tmp_path / "labels.txt", suite["test_labels"][:, None].tolist())
        arrays = sum(d.support.points.nbytes for row in model.densities for d in row)
        tensor = 8 * SUITE_N_TEST * SUITE_M * SUITE_C
        tables = table_args("test", tmp_path, SUITE_M, "--table")
        for extra in (["--labels", str(tmp_path / "labels.txt")],
                      ["--out", str(tmp_path / "p.csv")]):
            command = "evaluate" if extra[0] == "--labels" else "predict"
            tracemalloc.start()
            try:
                result = runner.invoke(main, [command, "--model-file", str(model_path),
                                              *tables, *extra])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            assert peak <= arrays + 1.8 * tensor, (command, (peak - arrays) / tensor)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_one_network_alive(self, runner, suite_dir, kde_fitted, tmp_path, monkeypatch,
                               command):
        # a network's cells are read from the model file only once every
        # earlier network's support arrays are gone, in the load's check and
        # in network_log_densities
        alive, reads = [], []
        read_row = io.LoadedGrid.read_row

        def row(grid, i):
            assert all(ref() is None for ref in alive), (reads, i)
            cells = read_row(grid, i)
            alive.extend(weakref.ref(d.support.points) for d in cells)
            reads.append(i)
            return cells

        monkeypatch.setattr(io.LoadedGrid, "read_row", row)
        result = runner.invoke(main, [command, "--model-file", str(kde_fitted),
                                      *scoring_args(command, suite_dir, tmp_path)])
        assert result.exit_code == 0, result.output
        assert reads == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("command", ["evaluate", "predict", "inspect"])
    def test_each_network_read_at_load_and_scoring(self, runner, suite_dir, kde_fitted,
                                                   tmp_path, monkeypatch, command):
        # the load reads each network's cells once to check them, and the
        # scoring pass once more; network_dims, the table checks and inspect
        # read none
        reads = []
        read_row = io.LoadedGrid.read_row
        monkeypatch.setattr(io.LoadedGrid, "read_row",
                            lambda grid, i: reads.append(i) or read_row(grid, i))
        args = [] if command == "inspect" else scoring_args(command, suite_dir, tmp_path)
        result = runner.invoke(main, [command, "--model-file", str(kde_fitted), *args])
        assert result.exit_code == 0, result.output
        assert reads == [0, 1, 2] * (1 if command == "inspect" else 2)

    def test_desk_kde_peak_one_network(self, runner, fitted_models, tmp_path):
        # the loaded model reads each network's cells when
        # network_log_densities reaches it and drops them with its table, and
        # each network is folded into the running class scores, so a scoring
        # command holds one network's support arrays, one table, its (n, c)
        # densities and the scores: its tracemalloc peak is the largest
        # network's arrays plus about 0.7x the 1.6 MB (n, m, c) tensor, which
        # it never builds
        model = fitted_models["kde"]["model"]
        model_path = tmp_path / "kde.model"
        io.save_model_file(model, model_path)
        suite = make_suite(SUITE_SEED, SUITE_M, SUITE_C, SUITE_N_TRAIN, SUITE_N_TEST,
                           parse_taus(SUITE_TAU, SUITE_M))
        for i, table in enumerate(suite["test"]):
            io.write_rows(tmp_path / f"test_net{i:02d}.csv", table.tolist())
        io.write_rows(tmp_path / "labels.txt", suite["test_labels"][:, None].tolist())
        network = max(sum(d.support.points.nbytes for d in row) for row in model.densities)
        tensor = 8 * SUITE_N_TEST * SUITE_M * SUITE_C
        tables = table_args("test", tmp_path, SUITE_M, "--table")
        for command, extra in (("evaluate", ["--labels", str(tmp_path / "labels.txt")]),
                               ("predict", ["--out", str(tmp_path / "p.csv")])):
            tracemalloc.start()
            try:
                result = runner.invoke(main, [command, "--model-file", str(model_path),
                                              *tables, *extra])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            assert peak <= network + tensor, (command, (peak - network) / tensor)


class TestHeldModelFile:
    """A scoring command reads each network's cells from the model file it
    loaded and checked, which it holds open: not from whatever is at the
    path by the time it scores."""

    @staticmethod
    def after_load(monkeypatch, action):
        load = cli.load_model_file

        def load_then(path):
            model = load(path)
            action(path)
            return model

        monkeypatch.setattr(cli, "load_model_file", load_then)

    def test_replaced_after_load(self, runner, suite_dir, fitted, kde_fitted, tmp_path,
                                 monkeypatch):
        model = tmp_path / "m.json"
        model.write_bytes(kde_fitted.read_bytes())
        tables = table_args("test", suite_dir, 3, "--table")
        result = runner.invoke(main, ["predict", "--model-file", str(model), *tables,
                                      "--out", str(tmp_path / "expected.csv")])
        assert result.exit_code == 0, result.output
        other = tmp_path / "other.json"
        other.write_bytes(fitted.read_bytes())
        self.after_load(monkeypatch, lambda path: other.replace(path))
        result = runner.invoke(main, ["predict", "--model-file", str(model), *tables,
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == 0, result.output
        assert model.read_bytes() == fitted.read_bytes()
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_cut_after_load(self, runner, suite_dir, kde_fitted, tmp_path, monkeypatch, command):
        # a short read of the cut file is an error, never a short support
        model = tmp_path / "m.json"
        model.write_bytes(kde_fitted.read_bytes())
        self.after_load(monkeypatch, lambda path: os.truncate(path, os.path.getsize(path) // 2))
        report = ["--report", str(tmp_path / "r.txt")] if command == "evaluate" else []
        result = runner.invoke(main, [command, "--model-file", str(model),
                                      *scoring_args(command, suite_dir, tmp_path), *report])
        assert result.exit_code == 4, result.output
        assert "CorruptModel: model body ends early: shape [" in result.output
        assert result.output.rstrip().endswith(f"(in {model})")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestPathErrors:
    """An output path that cannot be written is a configuration error (2), a
    model path that cannot be read a model error (4); both name the path."""

    @pytest.fixture
    def dir_and_file(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        return tmp_path / "dir", tmp_path / "file"

    @pytest.mark.parametrize("out", ["dir", "file/m.json"])
    def test_fit_out(self, runner, suite_dir, tmp_path, dir_and_file, out):
        result = runner.invoke(main, [
            "fit", *table_args("train", suite_dir, 3, "--train-table"),
            "--labels", str(suite_dir / "train_labels.txt"), "--out", str(tmp_path / out)])
        assert result.exit_code == 2, result.output
        assert f"InvalidConfig: {tmp_path / out}: cannot write" in result.output

    @pytest.mark.parametrize("flag, target, named", [
        ("--out", "dir", "dir"),
        ("--report", "dir", "dir"),
        ("--report", "dir/report.txt", "dir/report.json"),
    ], ids=["out", "report", "report-json"])
    def test_fit_output_checked_before_reading(self, runner, tmp_path, dir_and_file,
                                               flag, target, named):
        # the train table does not exist: a data error (3) if it were read first
        (tmp_path / "dir" / "report.json").mkdir()
        args = {"--out": str(tmp_path / "m.json"), flag: str(tmp_path / target)}
        result = runner.invoke(main, [
            "fit", "--train-table", str(tmp_path / "missing.csv"),
            "--labels", str(tmp_path / "missing.txt"), *[a for kv in args.items() for a in kv]])
        assert result.exit_code == 2, result.output
        assert f"InvalidConfig: {tmp_path / named}: cannot write" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]

    def test_predict_out(self, runner, suite_dir, fitted, dir_and_file):
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted), *table_args("test", suite_dir, 3, "--table"),
            "--out", str(dir_and_file[0])])
        assert result.exit_code == 2 and "InvalidConfig" in result.output

    def test_evaluate_report(self, runner, suite_dir, fitted, dir_and_file):
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(fitted), *table_args("test", suite_dir, 3, "--table"),
            "--labels", str(suite_dir / "test_labels.txt"), "--report", str(dir_and_file[0])])
        assert result.exit_code == 2 and "InvalidConfig" in result.output

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_output_checked_before_reading(self, runner, fitted, tmp_path, dir_and_file,
                                           command):
        # the table does not exist: a data error (3) if it were read first
        args = ["--table", str(tmp_path / "missing.csv")]
        if command == "evaluate":
            args += ["--labels", str(tmp_path / "missing.txt"), "--report", str(dir_and_file[0])]
        else:
            args += ["--out", str(dir_and_file[0])]
        result = runner.invoke(main, [command, "--model-file", str(fitted), *args])
        assert result.exit_code == 2, result.output
        assert f"InvalidConfig: {dir_and_file[0]}: cannot write" in result.output

    @pytest.mark.parametrize("command, option, target, named", [
        ("fit", "--report", "m.txt", "the report's JSON m.json"),
        ("fit", "--report", "m.json", "--report m.json"),
        ("evaluate", "--report", "m.json", "--report m.json"),
        ("predict", "--out", "m.json", "--out m.json"),
        ("predict", "--out", "link.json", "--out link.json"),
    ], ids=["fit-report-json-sibling", "fit-report", "evaluate-report", "predict-out",
            "predict-out-symlink"])
    def test_output_clashes(self, runner, suite_dir, fitted, tmp_path, command, option, target,
                            named):
        # each exited 0 before, and its last write replaced the model
        model = tmp_path / "m.json"
        model.write_bytes(fitted.read_bytes())
        (tmp_path / "link.json").symlink_to(model)
        if command == "fit":
            args = [*table_args("train", suite_dir, 3, "--train-table"),
                    "--labels", str(suite_dir / "train_labels.txt"), "--out", str(model)]
            other = "--out"
        else:
            args = ["--model-file", str(model), *table_args("test", suite_dir, 3, "--table")]
            if command == "evaluate":
                args += ["--labels", str(suite_dir / "test_labels.txt")]
            other = "--model-file"
        result = runner.invoke(main, [command, *args, option, str(tmp_path / target)])
        assert result.exit_code == 2, result.output
        what, name = named.rsplit(" ", 1)
        assert (f"InvalidConfig: {what} {tmp_path / name} is the same file as {other} {model}"
                in result.output)
        assert model.read_bytes() == fitted.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "m.json"]

    def test_synth_outdir(self, runner, dir_and_file):
        result = runner.invoke(main, [
            "synth", "--outdir", str(dir_and_file[1]), "--m", "2", "--c", "3",
            "--n-train", "30", "--n-test", "10"])
        assert result.exit_code == 2 and "InvalidConfig" in result.output

    @pytest.mark.parametrize("command", ["inspect", "predict"])
    def test_model_file_is_a_directory(self, runner, suite_dir, dir_and_file, command):
        args = [command, "--model-file", str(dir_and_file[0])]
        if command == "predict":
            args += [*table_args("test", suite_dir, 3, "--table"),
                     "--out", str(dir_and_file[1].parent / "p.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert f"CorruptModel: {dir_and_file[0]}: cannot read" in result.output

    def test_failed_fit_keeps_the_old_model(self, runner, suite_dir, tmp_path, monkeypatch):
        result, model_path = run_fit(runner, suite_dir, tmp_path)
        assert result.exit_code == 0
        before = model_path.read_bytes()
        shape, calls = io._shape, []

        def failing(a, body):
            calls.append(a)
            if len(calls) == 4:
                raise RuntimeError("encoder failed")
            return shape(a, body)

        monkeypatch.setattr(io, "_shape", failing)
        result, _ = run_fit(runner, suite_dir, tmp_path, "--model", "kde")
        assert isinstance(result.exception, RuntimeError) and len(calls) == 4
        assert model_path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def replace_first_cell(src, dst, lineno, cell):
    """Copy the table ``src`` to ``dst`` with the first cell of file line
    ``lineno`` replaced by ``cell``."""
    lines = src.read_text().splitlines()
    lines[lineno - 1] = cell + lines[lineno - 1][lines[lineno - 1].index(","):]
    dst.write_text("\n".join(lines) + "\n")


def at_line_5(edit):
    """Damage that rewrites the comma-separated cells of file line 5."""
    def damage(lines):
        cells = lines[4].rstrip("\n").split(",")
        return [*lines[:4], ",".join(edit(cells)) + "\n", *lines[5:]]
    return damage


# Every input fault fit meets: the damaged file, the error it raises, the
# damage, and the line the message names (None where no one line is at fault).
FIT_INPUT_FAULTS = {
    "row-sum-1.5": ("table", "NotNormalized",
                    at_line_5(lambda c: [repr(float(c[0]) + 0.5), *c[1:]]), 5),
    "negative-cell": ("table", "NegativeProbability",
                      at_line_5(lambda c: [repr(-float(c[0])), *c[1:]]), 5),
    "label-12": ("labels", "LabelOutOfRange", at_line_5(lambda c: ["12"]), 5),
    "label-x": ("labels", "ParseError", at_line_5(lambda c: ["x"]), 5),
    "ragged-row": ("table", "RaggedTable", at_line_5(lambda c: c[:-1]), 5),
    "table-one-row-short": ("table", "RaggedEnsemble", lambda lines: lines[:-1], None),
    "labels-one-row-short": ("labels", "RaggedEnsemble", lambda lines: lines[:-1], None),
    "class-without-rows": ("labels", "EmptySampleSet",
                           lambda lines: [x.replace("3", "0") for x in lines], None),
}


class TestInputErrors:
    def test_fit_rejects_non_finite_cell(self, runner, suite_dir, tmp_path):
        bad = tmp_path / "train_net01.csv"
        replace_first_cell(suite_dir / "train_net01.csv", bad, 5, "nan")
        model_path = tmp_path / "m.json"
        result = runner.invoke(main, [
            "fit", "--train-table", str(suite_dir / "train_net00.csv"),
            "--train-table", str(bad), "--train-table", str(suite_dir / "train_net02.csv"),
            "--labels", str(suite_dir / "train_labels.txt"), "--out", str(model_path),
        ])
        assert result.exit_code == 3, result.output
        assert f"ParseError: {bad}: line 5: non-finite value nan" in result.output
        assert not model_path.exists()

    def test_predict_rejects_non_finite_cell(self, runner, suite_dir, fitted, tmp_path):
        bad = tmp_path / "test_net02.csv"
        replace_first_cell(suite_dir / "test_net02.csv", bad, 1, "nan")
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, [
            "predict", "--model-file", str(fitted),
            *table_args("test", suite_dir, 2, "--table"), "--table", str(bad),
            "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert f"ParseError: {bad}: line 1: non-finite value nan" in result.output
        assert not out.exists()

    def test_grassmann_fit_rejects_non_finite_feature(self, runner, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n2.0,nan\n")
        y = tmp_path / "y.txt"
        y.write_text("0\n1\n")
        result = runner.invoke(main, [
            "fit", "--space", "grassmann", "--classes", "2", "--train-table", str(p),
            "--labels", str(y), "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3, result.output
        assert f"ParseError: {p}: line 2: non-finite value nan" in result.output

    @pytest.mark.parametrize("damaged", ["table", "labels"])
    def test_undecodable_file(self, runner, suite_dir, tmp_path, damaged):
        table = suite_dir / "train_net00.csv"
        labels = suite_dir / "train_labels.txt"
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"0.5,0.5\n\xe9\n")
        if damaged == "table":
            table = bad
        else:
            labels = bad
        result = runner.invoke(main, [
            "fit", "--train-table", str(table), "--labels", str(labels),
            "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3, result.output
        assert f"ParseError: {bad}: 'utf-8' codec can't decode" in result.output

    def test_labels_one_row_short(self, runner, suite_dir, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join((suite_dir / "train_labels.txt").read_text()
                                  .splitlines(keepends=True)[:-1]))
        result = runner.invoke(main, [
            "fit", *table_args("train", suite_dir, 3, "--train-table"),
            "--labels", str(labels), "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 3, result.output
        assert "RaggedEnsemble: " in result.output and "has 239 labels" in result.output

    def test_ragged_tables_name_the_file(self, runner, suite_dir, tmp_path):
        short = tmp_path / "train_net01.csv"
        short.write_text("".join((suite_dir / "train_net01.csv").read_text()
                                 .splitlines(keepends=True)[:-1]))
        tables = table_args("train", suite_dir, 3, "--train-table")
        tables[3] = str(short)
        result = runner.invoke(main, [
            "fit", *tables, "--labels", str(suite_dir / "train_labels.txt"),
            "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 3, result.output
        assert (f"RaggedEnsemble: {short} has 239 rows, {suite_dir / 'train_net00.csv'} has 240"
                in result.output)

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_label_count_names_the_file(self, runner, suite_dir, fitted, tmp_path, command):
        split = "train" if command == "fit" else "test"
        labels = tmp_path / "labels.txt"
        labels.write_text("".join((suite_dir / f"{split}_labels.txt").read_text()
                                  .splitlines(keepends=True)[:-1]))
        if command == "fit":
            args = [*table_args("train", suite_dir, 3, "--train-table"),
                    "--out", str(tmp_path / "m.json")]
        else:
            args = ["--model-file", str(fitted), *table_args("test", suite_dir, 3, "--table")]
        result = runner.invoke(main, [command, *args, "--labels", str(labels)])
        n = 240 if command == "fit" else 80
        first = suite_dir / f"{split}_net00.csv"
        assert result.exit_code == 3, result.output
        assert (f"RaggedEnsemble: {labels} has {n - 1} labels, {first} has {n} rows\n"
                in result.output)

    @pytest.mark.parametrize("narrow, classes", [(1, None), (0, None), (1, "4")],
                             ids=["second", "first", "classes"])
    def test_fit_names_a_narrow_table(self, runner, suite_dir, tmp_path, monkeypatch,
                                      narrow, classes):
        # a valid probability table one column short is named as soon as the
        # tables are loaded, before the labels are read or any density is fitted
        # (a narrow second table exited 4 after the whole fit, naming no file;
        # a narrow first one exited 3 on the labels)
        bad = tmp_path / "narrow.csv"
        bad.write_text("0.5,0.25,0.25\n" * 240)
        tables = table_args("train", suite_dir, 3, "--train-table")
        tables[2 * narrow + 1] = str(bad)
        monkeypatch.setattr(cli, "fit_densities", None)
        out = tmp_path / "m.json"
        result = runner.invoke(main, [
            "fit", *tables, *(["--classes", classes] if classes else []),
            "--labels", str(tmp_path / "no_labels.txt"), "--out", str(out)])
        assert result.exit_code == 4, result.output
        source = (f"--classes is {classes}" if classes
                  else f"{suite_dir / 'train_net00.csv'} has 4")
        expected = (f"{bad} has 3 columns; {source}" if narrow
                    else f"{suite_dir / 'train_net01.csv'} has 4 columns; {bad} has 3")
        assert result.stderr == f"error: DimensionMismatch: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scoring_names_a_narrow_table(self, runner, suite_dir, fitted, tmp_path, command):
        # checked against the model's widths before the labels are read (an
        # evaluate or predict used to exit 4 in scoring, naming network 1)
        bad = tmp_path / "narrow.csv"
        bad.write_text("0.5,0.25,0.25\n" * 80)
        tables = table_args("test", suite_dir, 3, "--table")
        tables[3] = str(bad)
        out = tmp_path / "p.csv"
        extra = (["--labels", str(tmp_path / "no_labels.txt")] if command == "evaluate"
                 else ["--out", str(out)])
        result = runner.invoke(main, [command, "--model-file", str(fitted), *tables, *extra])
        assert result.exit_code == 4, result.output
        assert result.stderr == (
            f"error: DimensionMismatch: {bad} has 3 columns; the model expects 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("second", ["short", "unparseable"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scoring_checks_each_table_in_turn(self, runner, suite_dir, fitted, tmp_path,
                                               command, second):
        # each table's rows and width are checked as it is read, so a narrow
        # first table is named before a faulty second one (every table was
        # parsed and row-checked before any width: exit 3, naming the second)
        narrow, bad = tmp_path / "narrow.csv", tmp_path / "bad.csv"
        narrow.write_text("0.5,0.25,0.25\n" * 80)
        lines = (suite_dir / "test_net01.csv").read_text().splitlines(keepends=True)
        bad.write_text("".join(lines[:-1]) if second == "short" else "x,y\n" + "".join(lines))
        tables = table_args("test", suite_dir, 3, "--table")
        tables[1], tables[3] = str(narrow), str(bad)
        out = tmp_path / "p.csv"
        extra = (["--labels", str(suite_dir / "test_labels.txt")] if command == "evaluate"
                 else ["--out", str(out)])
        result = runner.invoke(main, [command, "--model-file", str(fitted), *tables, *extra])
        assert result.exit_code == 4, result.output
        assert result.stderr == (
            f"error: DimensionMismatch: {narrow} has 3 columns; the model expects 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scoring_checks_the_table_count_first(self, runner, suite_dir, fitted, tmp_path,
                                                  command):
        # two --table options for a three-network model exit 4 before any
        # table is read (they exited 3 on the missing second file)
        tables = ["--table", str(suite_dir / "test_net00.csv"),
                  "--table", str(tmp_path / "missing.csv")]
        out = tmp_path / "p.csv"
        extra = (["--labels", str(suite_dir / "test_labels.txt")] if command == "evaluate"
                 else ["--out", str(out)])
        result = runner.invoke(main, [command, "--model-file", str(fitted), *tables, *extra])
        assert result.exit_code == 4, result.output
        assert result.stderr == "error: DimensionMismatch: 2 --table files for a model with m=3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scoring_names_a_short_last_table(self, runner, suite_dir, fitted, tmp_path,
                                              command):
        # the tables reach network_log_densities one at a time, each checked
        # against the first as it is read: a short last one is a data error
        # naming both files, not its DimensionMismatch, and nothing is written
        short = tmp_path / "test_net02.csv"
        short.write_text("".join((suite_dir / "test_net02.csv").read_text()
                                 .splitlines(keepends=True)[:-1]))
        tables = table_args("test", suite_dir, 3, "--table")
        tables[5] = str(short)
        out, report = tmp_path / "p.csv", tmp_path / "eval.txt"
        extra = (["--labels", str(suite_dir / "test_labels.txt"), "--report", str(report)]
                 if command == "evaluate" else ["--out", str(out)])
        result = runner.invoke(main, [command, "--model-file", str(fitted), *tables, *extra])
        assert result.exit_code == 3, result.output
        assert result.stderr == (f"error: RaggedEnsemble: {short} has 79 rows, "
                                 f"{suite_dir / 'test_net00.csv'} has 80\n")
        assert not out.exists() and not report.exists()
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("fault", FIT_INPUT_FAULTS)
    def test_every_fit_input_fault(self, runner, suite_dir, tmp_path, fault):
        # each fault fit meets in its inputs exits 3 before anything is
        # written, and names its error, the damaged file and its line
        damaged, error, damage, line = FIT_INPUT_FAULTS[fault]
        name = "train_net01.csv" if damaged == "table" else "train_labels.txt"
        bad = tmp_path / name
        bad.write_text("".join(damage((suite_dir / name).read_text().splitlines(keepends=True))))
        tables = table_args("train", suite_dir, 3, "--train-table")
        labels = suite_dir / "train_labels.txt"
        if damaged == "table":
            tables[3] = str(bad)
        else:
            labels = bad
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", *tables, "--labels", str(labels), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith(f"error: {error}: "), result.stderr
        named = re.escape(str(bad)) + (rf": line {line}\b" if line else "")
        assert re.search(named, result.stderr), result.stderr
        assert not out.exists()


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

    # usage before data: a missing table is not read, and so not a ParseError (3)
    @pytest.mark.parametrize("table_exists", [True, False], ids=["table", "missing-table"])
    def test_grassmann_requires_classes(self, runner, tmp_path, table_exists):
        p = tmp_path / "f.csv"
        if table_exists:
            p.write_text("1.0,2.0\n2.0,1.0\n")
        y = tmp_path / "y.txt"
        y.write_text("0\n1\n")
        result = runner.invoke(main, [
            "fit", "--space", "grassmann", "--train-table", str(p),
            "--labels", str(y), "--out", str(tmp_path / "m.json"),
        ])
        assert result.exit_code == 2


class TestReadmeOptions:
    def test_every_readme_option_exists(self):
        """Every --option named in README.md is an option of some spheremix
        command; git's --exit-code is the one exemption."""
        known = {"--exit-code"}
        parser, _ = cli._parser()
        commands, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in [parser, *commands.choices.values()]:
            for action in command._actions:
                known.update(action.option_strings)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
        assert named and not named - known, sorted(named - known)


class TestEntryPoint:
    def test_import_loads_no_click_and_no_pool(self):
        # fit imports the thread pool only for --threads above 1
        code = ("import sys, spheremix.cli; "
                "print({'click', 'concurrent.futures'} & set(sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "set()\n"

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0 and result.stdout == "spheremix, version 0.1.0\n"

    def test_help_shows_defaults(self, runner):
        result = runner.invoke(main, ["fit", "--help"])
        assert result.exit_code == 0 and "(default: 5000)" in result.stdout

    def test_in_process_call(self, suite_dir, fitted, tmp_path):
        # pipebench/run.py --trace 1 runs each command this way: a success
        # returns, every failure raises SystemExit with the command's exit code
        call = functools.partial(main.main, prog_name="spheremix", standalone_mode=False)
        assert call(["inspect", "--model-file", str(fitted)]) is None
        one_table = ["--table", str(suite_dir / "test_net00.csv"), "--out", str(tmp_path / "p.csv")]
        for args, code in [(["inspect", "--model-file", str(fitted), "--seed", "1"], 2),
                           (["inspect", "--model", str(fitted)], 2),
                           (["predict", "--model-file", str(fitted), *one_table], 4)]:
            with pytest.raises(SystemExit) as info:
                call(args)
            assert info.value.code == code, args
        assert not (tmp_path / "p.csv").exists()

    def test_traced_names_resolve(self, monkeypatch):
        # pipebench/tracing.py replaces each (module, name) in PATCHES from
        # outside the package; one that the package drops fails here too, not
        # only in the benchmark's own tests. Loading the module patches nothing
        path = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("pipebench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        assert tracing.PATCHES
        assert [(module, name) for module, name, *_ in tracing.PATCHES
                if not hasattr(importlib.import_module(module), name)] == []
