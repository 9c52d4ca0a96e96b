"""Spans and counters around spheremix's layers, recorded from outside the package.

Each traced function is replaced in the module where its caller looks it up
(``spheremix.cli.fit_densities``, ``spheremix.density.incremental_frechet_mean``,
``spheremix._kernels.kernel_sums``, ...), so the package itself is unchanged.
A span has a name, a start, an end, a parent and the CLI command it ran
under. Counters are kept per command at the same boundaries. Everything
stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Counts that must repeat exactly across traced runs of one seed.
COUNT_METRICS = (
    "io.rows_parsed",
    "io.model_bytes",
    "estimators.frechet_steps",
    "kernels.kernel_terms",
    "kernels.kernel_terms_useful_ratio",
    "kernels.kernel_terms_useful_ratio.fit",
    "kernels.kernel_terms_useful_ratio.predict",
    "ensemble.pdf_grid_calls",
    "ensemble.descent.iterations",
)

SCORE_COMMANDS = ("evaluate", "predict")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    command: str | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span tree and per-command counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (command, counter) -> value
        self.values = {}  # last observed value, e.g. the final descent loss
        # command -> {(eval rows hash, support hash, bandwidth, absolute): pairs}
        self.kernel_calls = defaultdict(dict)
        self.command = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.command, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command_span(self, command: str):
        self.command = command
        try:
            with self.span(f"cli.{command}"):
                yield
        finally:
            self.command = None

    def count(self, name: str, value):
        self.counts[(self.command, name)] += value

    def total_count(self, name: str, commands=None) -> float:
        return sum(v for (cmd, n), v in self.counts.items()
                   if n == name and (commands is None or cmd in commands))

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


# -- what each counter reads from a traced call --------------------------------


def _rows_parsed(t, args, kwargs, result):
    t.count("io.rows_parsed", sum(table.n for table in result[1]))


def _model_bytes(t, args, kwargs, result):
    t.count("io.model_bytes", os.path.getsize(args[1]))


def _frechet_steps(t, args, kwargs, result):
    t.count("estimators.frechet_steps", len(args[0]) - 1)


def _descent(t, args, kwargs, result):
    meta = result[1]
    t.count("ensemble.descent.iterations", meta["iterations_run"])
    t.values["ensemble.descent.final_loss"] = meta["final_loss"]


def _pdf_grid(t, args, kwargs, result):
    t.count("ensemble.pdf_grid_calls", 1)


def _digest(a) -> str:
    return hashlib.sha1(a.tobytes()).hexdigest()


def _kernel_sums(t, args, kwargs, result):
    eval_pts, support, inv_two_bw_sq = args[:3]
    n, d = eval_pts.shape
    s = support.shape[0]
    t.count("kernels.kernel_sums_calls", 1)
    t.count("kernels.kernel_terms", n * s)
    # computed from shapes, not measured: both inputs read once, the sums written once
    t.count("kernels.kernel_bytes", 8 * (n * d + s * d + n))
    key = (_digest(eval_pts), _digest(support), float(inv_two_bw_sq),
           bool(kwargs.get("absolute", False)))
    t.kernel_calls[t.command][key] = n * s


# (module, attribute, span name, counter hook). The module is where the
# caller looks the name up.
PATCHES = [
    ("spheremix.cli", "make_suite", "synth.make_suite", None),
    ("spheremix.cli", "write_suite", "synth.write_suite", None),
    ("spheremix.cli", "load_split", "io.load_split", _rows_parsed),
    ("spheremix.cli", "save_model_file", "io.save_model", _model_bytes),
    ("spheremix.cli", "load_model_file", "io.load_model", None),
    ("spheremix.cli", "fit_densities", "ensemble.fit_densities", None),
    ("spheremix.cli", "fit_weights", "ensemble.fit_weights", None),
    ("spheremix.cli", "evaluate", "ensemble.evaluate", None),
    ("spheremix.cli", "predict_batch", "ensemble.predict_batch", None),
    ("spheremix.cli", "ensemble_probability_batch", "ensemble.ensemble_probability_batch", None),
    ("spheremix.ensemble", "pdf_grid", "ensemble.pdf_grid", _pdf_grid),
    ("spheremix.ensemble", "fit_weights_from_pdf", "ensemble.descent", _descent),
    ("spheremix.ensemble", "fit_gaussian", "density.fit_gaussian", None),
    ("spheremix.ensemble", "fit_kde", "density.fit_kde", None),
    ("spheremix.density", "incremental_frechet_mean", "estimators.incremental_frechet_mean",
     _frechet_steps),
    ("spheremix.density", "sample_sigma", "estimators.sample_sigma", None),
    ("spheremix.density", "empirical_normalizer", "estimators.empirical_normalizer", None),
    ("spheremix._kernels", "kernel_sums", "kernels.kernel_sums", _kernel_sums),
    ("spheremix._kernels", "kernel_values", "kernels.kernel_values", None),
    ("spheremix._kernels", "kernel_total", "kernels.kernel_total", None),
]


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            # bookkeeping gets its own span, so it is not charged to the caller's self time
            with tracer.span("trace.hook"):
                hook(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every function in PATCHES through ``tracer`` until exit."""
    saved = []
    try:
        for module, attr, name, hook in PATCHES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# -- per-layer metrics from a finished trace -----------------------------------


def _useful_ratio(tracer: Tracer, commands) -> float:
    """Distinct (eval rows, support, bandwidth) pairs over pairs evaluated.
    Distinctness is within one command; with no kernel sums nothing was
    wasted and the ratio is 1."""
    evaluated = tracer.total_count("kernels.kernel_terms", commands)
    if evaluated == 0:
        return 1.0
    useful = sum(sum(calls.values()) for cmd, calls in tracer.kernel_calls.items()
                 if cmd in commands)
    return useful / evaluated


def layer_metrics(tracer: Tracer, startup_s: float, overhead_s: float) -> dict:
    """Every per-layer metric, as {name: value}."""
    children = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append(s)

    def total(name, commands=None):
        return sum(s.duration for s in tracer.spans
                   if s.name == name and (commands is None or s.command in commands))

    def self_time(name, child_names=None):
        return sum(
            s.duration - sum(c.duration for c in children[s.id]
                             if child_names is None or c.name in child_names)
            for s in tracer.spans if s.name == name
        )

    commands = {s.command for s in tracer.spans}
    iterations = tracer.total_count("ensemble.descent.iterations")
    return {
        "cli.startup_s": startup_s,
        "synth.make_suite_s": total("synth.make_suite"),
        "synth.write_suite_s": total("synth.write_suite"),
        "io.load_split_s": total("io.load_split"),
        "io.rows_parsed": tracer.total_count("io.rows_parsed"),
        "io.save_model_s": total("io.save_model"),
        "io.load_model_s": total("io.load_model"),
        "io.model_bytes": tracer.total_count("io.model_bytes"),
        "estimators.incremental_frechet_mean_s": total("estimators.incremental_frechet_mean"),
        "estimators.frechet_steps": tracer.total_count("estimators.frechet_steps"),
        "estimators.sample_sigma_s": total("estimators.sample_sigma"),
        "estimators.empirical_normalizer_s": total("estimators.empirical_normalizer"),
        "density.fit_gaussian_s": self_time("density.fit_gaussian"),
        "density.fit_kde_s": self_time("density.fit_kde"),
        "kernels.kernel_sums_s": total("kernels.kernel_sums"),
        "kernels.kernel_sums_calls": tracer.total_count("kernels.kernel_sums_calls"),
        "kernels.kernel_terms": tracer.total_count("kernels.kernel_terms"),
        "kernels.kernel_bytes": tracer.total_count("kernels.kernel_bytes"),
        "kernels.kernel_terms_useful_ratio": _useful_ratio(tracer, commands),
        "kernels.kernel_terms_useful_ratio.fit": _useful_ratio(tracer, {"fit"}),
        "kernels.kernel_terms_useful_ratio.predict": _useful_ratio(tracer, {"predict"}),
        "kernels.kernel_values_s": total("kernels.kernel_values"),
        "kernels.kernel_total_s": total("kernels.kernel_total"),
        "ensemble.fit_densities_s": total("ensemble.fit_densities"),
        "ensemble.pdf_grid.fit_s": total("ensemble.pdf_grid", {"fit"}),
        "ensemble.pdf_grid.score_s": total("ensemble.pdf_grid", SCORE_COMMANDS),
        "ensemble.pdf_grid_calls": tracer.total_count("ensemble.pdf_grid_calls"),
        "ensemble.fit_weights_s":
            self_time("ensemble.fit_weights", {"ensemble.pdf_grid", "trace.hook"}),
        "ensemble.descent.iterations": iterations,
        "ensemble.descent.per_iter_ms":
            1e3 * total("ensemble.descent") / iterations if iterations else 0.0,
        "ensemble.descent.final_loss": tracer.values.get("ensemble.descent.final_loss", 0.0),
        "ensemble.evaluate_s": total("ensemble.evaluate"),
        "ensemble.predict_batch_s": total("ensemble.predict_batch"),
        "ensemble.ensemble_probability_batch_s": total("ensemble.ensemble_probability_batch"),
        "trace.overhead_s": overhead_s,
    }
