"""Command-line front end: fit, predict, evaluate, synth, inspect.

``main(argv)`` parses ``argv`` with the standard library's ``argparse``, one
subparser per command, and runs the command it names. Every error family
maps to a stable exit code: 2 configuration/usage, 3 data, 4 model format or
dimension agreement, 5 numerics. When ``--report`` is given, a
machine-readable JSON document is written beside the human report (same
stem, .json suffix).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from ._points import GRASSMANN, SPHERE
from .ensemble import (
    KDE, PARAMETRIC, EnsembleModel, LabeledBatch, MixtureWeights, argmax_classes,
    ensemble_probability_batch, evaluate, fit_densities, fit_weights, score_report, shift_to_pdf,
    standalone_classes, tensor_scores, predict_batch,  # predict_batch: for pipebench/tracing.py
)
from .errors import (
    DimensionMismatch, EmptySampleSet, InvalidConfig, RaggedEnsemble, SpheremixError,
)
from .io import (
    check_writable, iter_split, load_labels, load_model_file, load_split, output_file,
    save_model_file, write_rows,
)
from .synth import make_suite, parse_taus, write_suite


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
    print(text, end="")
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
    # row by row, so no list of every row's Python floats is held at once
    write_rows(out_path, ([int(k), *p.tolist()] for k, p in zip(classes, probs)))
    print(f"wrote {classes.shape[0]} predictions to {out_path}")


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
    print(text, end="")
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


def synth(outdir, seed, m, c, n_train, n_test, tau):
    """Generate a deterministic synthetic weak-classifier suite."""
    taus = parse_taus(tau, m)
    suite = make_suite(seed, m, c, n_train, n_test, taus)
    paths = write_suite(suite, outdir)
    print(
        f"wrote {m} train tables ({n_train} rows), {m} test tables ({n_test} rows) "
        f"and labels under {outdir}"
    )
    print(f"train labels: {paths['train_labels']}")
    print(f"test labels:  {paths['test_labels']}")


def inspect(model_file):
    """Dump model metadata and the learned weights."""
    model = load_model_file(model_file)
    dims = [model.densities[i][0].dim for i in range(model.m)]  # reads and checks every cell
    print(f"kind:  {model.kind}")
    print(f"space: {model.space}")
    print(f"m:     {model.m} networks")
    print(f"c:     {model.c} classes")
    print(f"dims:  {dims}")
    meta = model.fit_meta
    print(
        f"fit:   eta={meta.get('eta')}  iterations={meta.get('iterations_run')}  "
        f"loss_evaluations={meta.get('loss_evaluations')}  "
        f"final_loss={meta.get('final_loss')}"
    )
    print(
        f"       stop_reason={meta.get('stop_reason')}  grad_norm={meta.get('grad_norm')}  "
        f"uniform_loss={meta.get('uniform_loss')}  "
        f"effective_networks={meta.get('effective_networks')}"
    )
    print("alpha (sorted):")
    for line in _weight_lines(model.weights.alpha):
        print(line)


def _parser() -> tuple:
    """The CLI's parser, one subparser per command, and the option strings
    that take a value. No option may be abbreviated."""
    parser = argparse.ArgumentParser(
        prog="spheremix", allow_abbrev=False,
        description="Aggregate pre-trained weak classifiers into a boosted ensemble.")
    parser.add_argument("--version", action="version", version=f"spheremix, version {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    value_options = set()

    def command(fn, name: str):
        sub = commands.add_parser(name, allow_abbrev=False, description=fn.__doc__,
                                  help=(fn.__doc__ or "").partition("\n")[0])
        sub.set_defaults(command=fn)

        def option(flag, **kwargs):
            if "default" in kwargs:
                kwargs["help"] = f"{kwargs.get('help', '')} (default: %(default)s)".lstrip()
            value_options.add(flag)
            sub.add_argument(flag, **kwargs)

        return option

    option = command(fit, "fit")
    option("--train-table", dest="tables", metavar="PATH", action="append", required=True,
           help="Per-network training CSV; repeat once per network, in order.")
    option("--labels", dest="labels_path", metavar="PATH", required=True)
    option("--out", dest="out_path", metavar="PATH", required=True, help="Model file to write.")
    option("--report", dest="report_path", metavar="PATH",
           help="Write the text report here (+ JSON metrics beside it).")
    option("--model", dest="kind", choices=[PARAMETRIC, KDE], default=PARAMETRIC,
           help="Density family.")
    option("--space", choices=[SPHERE, GRASSMANN], default=SPHERE,
           help="sphere: tables are class probabilities; grassmann: raw features.")
    option("--classes", type=int, help="Class count (required for --space grassmann).")
    option("--eta", type=float, default=0.1, help="First step size; later steps are "
           "Barzilai-Borwein lengths, halved while they would raise the loss.")
    option("--max-iters", type=int, default=5000)
    option("--tol", type=float, default=1e-8, help="Stop when |dL| <= tol * max(1, L).")
    option("--threads", type=int, default=1, help="Worker threads for a kde fit's kernel "
           "sums, one network each; a parametric fit is one pass.")

    option = command(predict, "predict")
    option("--model-file", metavar="PATH", required=True)
    option("--table", dest="tables", metavar="PATH", action="append", required=True,
           help="Per-network test CSV; repeat once per network, in model order.")
    option("--out", dest="out_path", metavar="PATH", required=True,
           help="Predictions CSV: class id, then c ensemble probabilities.")

    option = command(evaluate_cmd, "evaluate")
    option("--model-file", metavar="PATH", required=True)
    option("--table", dest="tables", metavar="PATH", action="append", required=True)
    option("--labels", dest="labels_path", metavar="PATH", required=True)
    option("--report", dest="report_path", metavar="PATH")

    option = command(synth, "synth")
    option("--outdir", metavar="PATH", required=True)
    for flag, default in [("--seed", 42), ("--m", 20), ("--c", 10), ("--n-train", 2000),
                          ("--n-test", 1000)]:
        option(flag, type=int, default=default)
    option("--tau", default="0.696:0.739",
           help="Noise level: single value, lo:hi spread, or m comma-separated values.")

    option = command(inspect, "inspect")
    option("--model-file", metavar="PATH", required=True)
    return parser, value_options


def main(argv=None) -> None:
    """Run the command that ``argv`` names (default: the process's arguments)."""
    parser, value_options = _parser()
    # an option's value may begin with "-" (--eta -inf); argparse reads it only joined
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] in value_options and word.startswith("-"):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = vars(parser.parse_args(words))
    try:
        args.pop("command")(**args)
    except SpheremixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


# pipebench/run.py runs each command as main.main(args, prog_name=..., standalone_mode=False)
main.main = lambda args, prog_name, standalone_mode: main(args)


if __name__ == "__main__":
    main()
