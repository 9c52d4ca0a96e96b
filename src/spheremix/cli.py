"""Command-line front end: fit, predict, evaluate, synth, inspect.

Every error family maps to a stable exit code: 2 configuration/usage,
3 data, 4 model format or dimension agreement, 5 numerics. When ``--report``
is given, a machine-readable JSON document is written beside the human
report (same stem, .json suffix).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, _kernels
from ._points import GRASSMANN, SPHERE
from .ensemble import (
    KDE,
    PARAMETRIC,
    EnsembleModel,
    LabeledBatch,
    MixtureWeights,
    argmax_classes,
    ensemble_probability_batch,
    evaluate,
    fit_densities,
    fit_weights,
    predict_batch,  # not called here; pipebench/tracing.py patches this name
    score_report,
    shift_to_pdf,
    standalone_classes,
    tensor_scores,
)
from .errors import (
    DimensionMismatch, EmptySampleSet, InvalidConfig, RaggedEnsemble, SpheremixError,
)
from .io import (
    check_writable, iter_split, load_labels, load_model_file, load_split, output_file,
    save_model_file, write_rows,
)
from .synth import make_suite, parse_taus, write_suite


def _exit_on_error(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SpheremixError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _report_paths(report_path) -> tuple:
    """The text report's path and its JSON sibling's."""
    path = Path(report_path)
    json_path = path.with_suffix(".json")
    return path, json_path if json_path != path else path.with_suffix(".metrics.json")


def _check_paths(inputs, outputs, report_path=None):
    """Before any input is read: InvalidConfig naming both paths when an
    output resolves to an input's or another output's path, then the error
    ``output_file`` would raise for each output. Paths come as (option, path);
    ``report_path`` adds the report and its JSON sibling to ``outputs``."""
    if report_path:
        path, json_path = _report_paths(report_path)
        outputs = [*outputs, ("--report", path), ("the report's JSON", json_path)]
    seen = {os.path.realpath(path): f"{option} {path}" for option, path in inputs}
    for option, path in outputs:
        key = os.path.realpath(path)  # unlike Path.resolve, never raises
        if key in seen:
            raise InvalidConfig(f"{option} {path} is the same file as {seen[key]}")
        seen[key] = f"{option} {path}"
    for _, path in outputs:
        check_writable(path)


def _below_uniform(accuracy: float, uniform: float, split: str) -> list:
    """The report line naming learned weights that classify worse than uniform ones."""
    return [f"note: learned weights classify worse than uniform ones on {split}: accuracy "
            f"{accuracy:.4f} < uniform {uniform:.4f}"] if accuracy < uniform else []


def _weight_lines(alpha) -> list:
    """One line per network's weight, as printed to 6 decimals: largest
    printed weight first, equal printed weights in network order, so weights
    that differ only below the printed digits list the same way."""
    printed = [f"{a:.6f}" for a in alpha]
    order = sorted(range(len(printed)), key=lambda i: (-float(printed[i]), i))
    return [f"  net {i:02d}  alpha = {printed[i]}" for i in order]


def _write_report(report_path, text: str, metrics: dict):
    path, json_path = _report_paths(report_path)
    with output_file(path) as fh:
        fh.write(text)
    with output_file(json_path) as fh:
        fh.write(json.dumps(metrics, indent=1) + "\n")


def _check_width(path, table, width: int, source: str):
    if table.d != width:
        raise DimensionMismatch(f"{path} has {table.d} columns; {source} {width}")


def _check_label_count(labels_path, labels, tables, n: int):
    if labels.size != n:
        raise RaggedEnsemble(f"{labels_path} has {labels.size} labels, {tables[0]} has {n} rows")


def _load_batch(tables, labels_path, space: str, c: int | None):
    """fit's batch. DimensionMismatch names the first sphere table whose
    width is not ``c`` or, without ``c``, the first table's."""
    features, raw = load_split(tables, space)
    if space == SPHERE:
        source = "--classes is" if c else f"{tables[0]} has"
        for path, table in zip(tables, raw):
            _check_width(path, table, c or raw[0].d, source)
    c = c or raw[0].d
    labels = load_labels(labels_path, c)
    _check_label_count(labels_path, labels, tables, raw[0].n)
    return LabeledBatch(features, labels, space), c


def _scoring_tables(tables, model: EnsembleModel):
    """The embedded points of each ``--table`` in turn, each table read only
    when ``network_log_densities`` asks for it. DimensionMismatch for a
    table count that is not the model's m, before any table is read, and
    for a table whose width is not the model's for its network."""
    if len(tables) != model.m:
        raise DimensionMismatch(f"{len(tables)} --table files for a model with m={model.m}")
    split = iter_split(tables, model.space)
    for path, width in zip(tables, model.network_dims()):
        table = next(split)
        _check_width(path, table, width, "the model expects")
        yield table.values
        del table  # before the next table is parsed


@click.group()
@click.version_option(__version__)
def main():
    """Aggregate pre-trained weak classifiers into a boosted ensemble."""


@main.command()
@click.option("--train-table", "tables", type=click.Path(), multiple=True, required=True,
              help="Per-network training CSV; repeat once per network, in order.")
@click.option("--labels", "labels_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Model file to write.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the text report here (+ JSON metrics beside it).")
@click.option("--model", "kind", type=click.Choice([PARAMETRIC, KDE]), default=PARAMETRIC,
              show_default=True, help="Density family.")
@click.option("--space", type=click.Choice([SPHERE, GRASSMANN]), default=SPHERE,
              show_default=True,
              help="sphere: tables are class probabilities; grassmann: raw features.")
@click.option("--classes", type=int, default=None,
              help="Class count (required for --space grassmann).")
@click.option("--eta", type=float, default=0.1, show_default=True,
              help="First step size; later steps are Barzilai-Borwein lengths, "
                   "halved while they would raise the loss.")
@click.option("--max-iters", type=int, default=5000, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Stop when |dL| <= tol * max(1, L).")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for a kde fit's kernel sums, one network each; "
                   "a parametric fit is one pass.")
@_exit_on_error
def fit(tables, labels_path, out_path, report_path, kind, space, classes, eta, max_iters,
        tol, threads):
    """Fit densities and mixture weights on training tables."""
    if (not (0 < eta < math.inf and 0 < tol < math.inf) or max_iters < 1 or threads < 1
            or (classes is not None and classes < 1)):
        raise InvalidConfig(
            "eta and tol must be positive and finite; max-iters, threads and classes >= 1")
    if classes is None and space == GRASSMANN:
        raise InvalidConfig("--classes is required with --space grassmann")
    _check_paths([*(("--train-table", t) for t in tables), ("--labels", labels_path)],
                 [("--out", out_path)], report_path)
    batch, c = _load_batch(tables, labels_path, space, classes)
    empty = np.flatnonzero(np.bincount(batch.labels, minlength=c) == 0)
    if empty.size:
        raise EmptySampleSet(f"{labels_path}: no training rows for class {empty[0]}")
    # rows grouped by class, each class in file order: every KDE support is
    # then a view of its table, and the Fréchet means see the same sequences
    order = np.argsort(batch.labels, kind="stable")
    for f in batch.features:
        f[:] = f[order]
    batch = LabeledBatch(batch.features, batch.labels[order], space)

    t0 = time.perf_counter()
    densities, P_train = fit_densities(batch, c, kind, threads=threads)
    # only the Grassmannian's standalone accuracies read the density classifier
    density_classes = ([argmax_classes(P_train[:, i, :]) for i in range(batch.m)]
                       if space == GRASSMANN else None)
    shift_to_pdf(P_train)
    t_densities = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights, meta = fit_weights(P_train, batch, eta=eta, max_iters=max_iters, tol=tol)
    t_weights = time.perf_counter() - t0

    model = EnsembleModel(kind=kind, space=space, m=batch.m, c=c,
                          densities=densities, weights=weights, fit_meta=meta)
    save_model_file(model, out_path)

    # one network's classes at a time: the fit's peak is here, beside P_train
    train = score_report(tensor_scores(P_train, weights.alpha),
                         tensor_scores(P_train, MixtureWeights.uniform(batch.m).alpha),
                         batch.labels, density_classes,
                         (standalone_classes(f, space) for f in batch.features))
    standalone = train["standalone_accuracy"]
    lines = [
        f"fitted {kind} ensemble: m={batch.m} networks, c={c} classes, space={space}",
        f"model file: {out_path}",
        f"density fit: {t_densities:.2f} s   weight learning: {t_weights:.2f} s "
        f"({meta['iterations_run']} iterations, {meta['loss_evaluations']} loss evaluations, "
        f"kernel backend: {_kernels.backend()})",
        f"final loss: {meta['final_loss']:.6f}   uniform-weight loss: {meta['uniform_loss']:.6f}",
        f"train accuracy: {train['accuracy']:.4f}   "
        f"uniform-weight train accuracy: {train['uniform_accuracy']:.4f}",
        *_below_uniform(train["accuracy"], train["uniform_accuracy"], "the training set"),
        f"descent stopped by {meta['stop_reason']}   gradient norm: {meta['grad_norm']:.3e}   "
        f"effective networks: {meta['effective_networks']:.3f}",
        "learned weights (sorted):",
    ]
    lines += _weight_lines(weights.alpha)
    lines.append("standalone train accuracy per network:")
    lines += [f"  net {i:02d}  {a:.4f}" for i, a in enumerate(standalone)]
    lines.append(
        f"standalone summary: min {min(standalone):.4f}  "
        f"mean {float(np.mean(standalone)):.4f}  max {max(standalone):.4f}"
    )
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if report_path:
        _write_report(report_path, text, {
            "command": "fit", "kind": kind, "space": space, "m": batch.m, "c": c,
            "alpha": weights.alpha.tolist(), "fit_meta": meta,
            "train_accuracy": train["accuracy"],
            "uniform_train_accuracy": train["uniform_accuracy"],
            "standalone_train_accuracy": standalone,
            "wall_time_density_fit_s": t_densities,
            "wall_time_weight_learning_s": t_weights,
            "kernel_backend": _kernels.backend(),
        })


@main.command()
@click.option("--model-file", type=click.Path(), required=True)
@click.option("--table", "tables", type=click.Path(), multiple=True, required=True,
              help="Per-network test CSV; repeat once per network, in model order.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Predictions CSV: class id, then c ensemble probabilities.")
@_exit_on_error
def predict(model_file, tables, out_path):
    """Predict classes for new samples under a fitted model.

    The --table count is checked against the model's before any table is
    read; each table is then read, checked and folded into the running
    class scores in turn, so the command holds no (n, m, c) tensor.
    """
    _check_paths([("--model-file", model_file), *(("--table", t) for t in tables)],
                 [("--out", out_path)])
    model = load_model_file(model_file)
    # one scoring pass; each written class is the argmax of its written row
    probs = ensemble_probability_batch(model, _scoring_tables(tables, model))
    classes = np.argmax(probs, axis=1)
    write_rows(out_path, ([k, *row] for k, row in zip(classes.tolist(), probs.tolist())))
    click.echo(f"wrote {classes.shape[0]} predictions to {out_path}")


@main.command(name="evaluate")
@click.option("--model-file", type=click.Path(), required=True)
@click.option("--table", "tables", type=click.Path(), multiple=True, required=True)
@click.option("--labels", "labels_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
@_exit_on_error
def evaluate_cmd(model_file, tables, labels_path, report_path):
    """Compare ensemble accuracy against the constituent networks.

    The library evaluate reads, scores and folds the tables one at a time,
    as predict does, keeping each network's own classes for its standalone
    accuracy, and reads the labels after the last table.
    """
    _check_paths([("--model-file", model_file), *(("--table", t) for t in tables),
                  ("--labels", labels_path)], [], report_path)
    model = load_model_file(model_file)

    def read_labels(n: int):  # after the last table, so a table's fault is named first
        labels = load_labels(labels_path, model.c)
        _check_label_count(labels_path, labels, tables, n)
        return labels

    result = evaluate(model, _scoring_tables(tables, model), read_labels)
    standalone = result["standalone_accuracy"]
    average = float(np.mean(standalone))
    delta = result["accuracy"] - average
    lines = [
        f"ensemble accuracy:       {result['accuracy']:.4f}",
        f"uniform-weight accuracy: {result['uniform_accuracy']:.4f}",
        *_below_uniform(result["accuracy"], result["uniform_accuracy"], "this batch"),
        f"mean loss:               {result['mean_loss']:.6f}",
        "constituent accuracies:",
    ]
    lines += [f"  net {i:02d}  {a:.4f}" for i, a in enumerate(standalone)]
    lines += [
        f"average constituent:     {average:.4f}",
        f"delta (ensemble - avg):  {delta:+.4f}",
    ]
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if report_path:
        _write_report(report_path, text, {
            "command": "evaluate",
            "accuracy": result["accuracy"],
            "uniform_accuracy": result["uniform_accuracy"],
            "mean_loss": result["mean_loss"],
            "per_class_accuracy": [None if np.isnan(v) else float(v)
                                   for v in result["per_class_accuracy"]],
            "standalone_accuracy": standalone,
            "average_constituent_accuracy": average,
            "delta": delta,
        })


@main.command()
@click.option("--outdir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--m", "m", type=int, default=20, show_default=True)
@click.option("--c", "c", type=int, default=10, show_default=True)
@click.option("--n-train", type=int, default=2000, show_default=True)
@click.option("--n-test", type=int, default=1000, show_default=True)
@click.option("--tau", default="0.696:0.739", show_default=True,
              help="Noise level: single value, lo:hi spread, or m comma-separated values.")
@_exit_on_error
def synth(outdir, seed, m, c, n_train, n_test, tau):
    """Generate a deterministic synthetic weak-classifier suite."""
    taus = parse_taus(tau, m)
    suite = make_suite(seed, m, c, n_train, n_test, taus)
    paths = write_suite(suite, outdir)
    click.echo(
        f"wrote {m} train tables ({n_train} rows), {m} test tables ({n_test} rows) "
        f"and labels under {outdir}"
    )
    click.echo(f"train labels: {paths['train_labels']}")
    click.echo(f"test labels:  {paths['test_labels']}")


@main.command()
@click.option("--model-file", type=click.Path(), required=True)
@_exit_on_error
def inspect(model_file):
    """Dump model metadata and the learned weights."""
    model = load_model_file(model_file)
    click.echo(f"kind:  {model.kind}")
    click.echo(f"space: {model.space}")
    click.echo(f"m:     {model.m} networks")
    click.echo(f"c:     {model.c} classes")
    click.echo(f"dims:  {model.network_dims()}")
    meta = model.fit_meta
    click.echo(
        f"fit:   eta={meta.get('eta')}  iterations={meta.get('iterations_run')}  "
        f"loss_evaluations={meta.get('loss_evaluations')}  "
        f"final_loss={meta.get('final_loss')}"
    )
    click.echo(
        f"       stop_reason={meta.get('stop_reason')}  grad_norm={meta.get('grad_norm')}  "
        f"uniform_loss={meta.get('uniform_loss')}  "
        f"effective_networks={meta.get('effective_networks')}"
    )
    click.echo("alpha (sorted):")
    for line in _weight_lines(model.weights.alpha):
        click.echo(line)


if __name__ == "__main__":
    main()
