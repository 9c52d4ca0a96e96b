"""Command-line front end: fit, predict, evaluate, synth, inspect.

Every error family maps to a stable exit code: 2 configuration/usage,
3 data, 4 model format or dimension agreement, 5 numerics. When ``--report``
is given, a machine-readable JSON document is written beside the human
report (same stem, .json suffix).
"""

from __future__ import annotations

import functools
import json
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
    density_argmax_accuracies,
    ensemble_probability_batch,
    evaluate,
    fit_densities,
    fit_weights,
    predict_batch,  # not called here; pipebench/tracing.py patches this name
)
from .errors import DimensionMismatch, InvalidConfig, SpheremixError
from .io import load_labels, load_model_file, load_split, save_model_file
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


def _write_report(report_path, text: str, metrics: dict):
    path = Path(report_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    json_path = path.with_suffix(".json")
    if json_path == path:
        json_path = path.with_suffix(".metrics.json")
    json_path.write_text(json.dumps(metrics, indent=1) + "\n", encoding="utf-8")


def _standalone_accuracies(model: EnsembleModel, batch: LabeledBatch,
                           density_accuracies: list | None) -> list:
    """Per-network standalone accuracy: argmax of the network's own
    probabilities on the sphere (the square-root embedding is monotone),
    its density classifier on the Grassmannian (no probabilities exist),
    as already read from the batch's pdf tensor into ``density_accuracies``."""
    if model.space == SPHERE:
        return [
            float(np.mean(np.argmax(f, axis=1) == batch.labels)) for f in batch.features
        ]
    return density_accuracies


def _load_batch(tables, labels_path, space: str, c: int | None):
    features, raw = load_split(tables, space)
    if space == SPHERE:
        width = raw[0].d
        if c is None:
            c = width
        elif c != width:
            raise DimensionMismatch(f"--classes {c} but probability tables have {width} columns")
    elif c is None:
        raise InvalidConfig("--classes is required with --space grassmann")
    labels = load_labels(labels_path, c)
    if labels.shape[0] != features[0].shape[0]:
        raise DimensionMismatch(
            f"{labels.shape[0]} labels for {features[0].shape[0]} samples"
        )
    return LabeledBatch(features, labels, space), c


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
@click.option("--eta", type=float, default=0.1, show_default=True, help="Descent step size.")
@click.option("--max-iters", type=int, default=5000, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Stop when |dL| <= tol * max(1, L).")
@click.option("--seed", type=int, default=42, show_default=True,
              help="Seed for every random choice (KDE support subsampling).")
@click.option("--sigma-floor", type=float, default=1e-3, show_default=True)
@click.option("--grad-mode", type=click.Choice(["analytic", "finite-difference"]),
              default="analytic", show_default=True)
@click.option("--kde-max-support", type=int, default=0, show_default=True,
              help="Cap KDE support per class by seeded subsampling; 0 = unlimited.")
@click.option("--backtrack", is_flag=True, default=False,
              help="Halve a step while it would increase the loss.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for per-(network, class) density fitting.")
@_exit_on_error
def fit(tables, labels_path, out_path, report_path, kind, space, classes, eta, max_iters,
        tol, seed, sigma_floor, grad_mode, kde_max_support, backtrack, threads):
    """Fit densities and mixture weights on training tables."""
    _validate_common(eta, max_iters, tol, sigma_floor, kde_max_support, threads)
    batch, c = _load_batch(tables, labels_path, space, classes)

    t0 = time.perf_counter()
    densities, P_train = fit_densities(
        batch, c, kind, sigma_floor=sigma_floor,
        kde_max_support=kde_max_support, seed=seed, threads=threads,
    )
    t_densities = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights, meta = fit_weights(
        P_train, batch, eta=eta, max_iters=max_iters, tol=tol,
        grad_mode=grad_mode, backtrack=backtrack, seed=seed,
    )
    t_weights = time.perf_counter() - t0

    model = EnsembleModel(kind=kind, space=space, m=batch.m, c=c,
                          densities=densities, weights=weights, fit_meta=meta)
    save_model_file(model, out_path)

    standalone = _standalone_accuracies(
        model, batch,
        density_argmax_accuracies(P_train, batch.labels) if space == GRASSMANN else None)
    order = np.argsort(weights.alpha)[::-1]
    lines = [
        f"fitted {kind} ensemble: m={batch.m} networks, c={c} classes, space={space}",
        f"model file: {out_path}",
        f"density fit: {t_densities:.2f} s   weight learning: {t_weights:.2f} s "
        f"({meta['iterations_run']} iterations, kernel backend: {_kernels.backend()})",
        f"final loss: {meta['final_loss']:.6f}   uniform-weight loss: {meta['uniform_loss']:.6f}",
        f"descent stopped by {meta['stop_reason']}   gradient norm: {meta['grad_norm']:.3e}   "
        f"effective networks: {meta['effective_networks']:.3f}",
        "learned weights (sorted):",
    ]
    lines += [f"  net {i:02d}  alpha = {weights.alpha[i]:.6f}" for i in order]
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
    """Predict classes for new samples under a fitted model."""
    model = load_model_file(model_file)
    if len(tables) != model.m:
        raise DimensionMismatch(f"{len(tables)} tables for a model with m={model.m}")
    features, _ = load_split(tables, model.space)
    # one scoring pass; each written class is the argmax of its written row
    probs = ensemble_probability_batch(model, features)
    classes = np.argmax(probs, axis=1)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for k, row in zip(classes, probs):
            fh.write(",".join([str(int(k))] + [repr(float(v)) for v in row]))
            fh.write("\n")
    click.echo(f"wrote {classes.shape[0]} predictions to {out_path}")


@main.command(name="evaluate")
@click.option("--model-file", type=click.Path(), required=True)
@click.option("--table", "tables", type=click.Path(), multiple=True, required=True)
@click.option("--labels", "labels_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
@_exit_on_error
def evaluate_cmd(model_file, tables, labels_path, report_path):
    """Compare ensemble accuracy against the constituent networks."""
    model = load_model_file(model_file)
    if len(tables) != model.m:
        raise DimensionMismatch(f"{len(tables)} tables for a model with m={model.m}")
    features, _ = load_split(tables, model.space)
    labels = load_labels(labels_path, model.c)
    batch = LabeledBatch(features, labels, model.space)
    result = evaluate(model, batch)
    standalone = _standalone_accuracies(model, batch, result["density_argmax_accuracy"])
    average = float(np.mean(standalone))
    delta = result["accuracy"] - average
    lines = [
        f"ensemble accuracy:       {result['accuracy']:.4f}",
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
        f"final_loss={meta.get('final_loss')}  seed={meta.get('seed')}"
    )
    click.echo(
        f"       stop_reason={meta.get('stop_reason')}  grad_norm={meta.get('grad_norm')}  "
        f"uniform_loss={meta.get('uniform_loss')}  "
        f"effective_networks={meta.get('effective_networks')}"
    )
    click.echo("alpha (sorted):")
    for i in np.argsort(model.weights.alpha)[::-1]:
        click.echo(f"  net {i:02d}  alpha = {model.weights.alpha[i]:.6f}")


def _validate_common(eta, max_iters, tol, sigma_floor, kde_max_support, threads):
    if (eta <= 0 or tol <= 0 or max_iters < 1 or sigma_floor <= 0 or kde_max_support < 0
            or threads < 1):
        raise InvalidConfig(
            "eta, tol and sigma-floor must be positive; kde-max-support >= 0; "
            "max-iters and threads >= 1"
        )


if __name__ == "__main__":
    main()
