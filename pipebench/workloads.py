"""Workloads of the pipeline benchmark and the CLI arguments they run.

Every workload is a synthetic suite from `spheremix synth`, generated from the
benchmark's seed, then `fit`, `evaluate`, `predict` and `inspect` against it.
The reasons for each workload are in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

TAU = "0.696:0.739"

# Descent runs a fixed number of steps. With the default stop
# (|dL| <= 1e-8 * max(1, L)) the step count depends on the suite: seeds 1-24
# of the desk suite stop after 471 to 2,095 steps, which would make fit_s
# reflect the seed rather than the code. A tolerance of 1e-300 only stops on
# an exactly flat loss, so every seed runs MAX_ITERS steps.
MAX_ITERS = 1000
TOL = "1e-300"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    m: int
    c: int
    n_train: int
    n_test: int


WORKLOADS = {
    w.name: w
    for w in [
        Workload("desk-parametric", "parametric", 20, 10, 2000, 1000),
        Workload("desk-kde", "kde", 20, 10, 2000, 1000),
        # Toy shape for the harness's own tests; not part of BENCHMARK.json.
        Workload("toy", "kde", 3, 3, 60, 30),
    ]
}


@dataclass(frozen=True)
class Paths:
    """Files one pass of the pipeline reads and writes under ``root``."""

    root: Path

    @property
    def data(self) -> Path:
        return self.root / "data"

    @property
    def model(self) -> Path:
        return self.root / "model.json"

    @property
    def fit_report(self) -> Path:
        return self.root / "fit.txt"

    @property
    def eval_report(self) -> Path:
        return self.root / "eval.txt"

    @property
    def eval_json(self) -> Path:
        return self.root / "eval.json"

    @property
    def predictions(self) -> Path:
        return self.root / "predictions.csv"

    def tables(self, w: Workload, split: str) -> list:
        return [str(self.data / f"{split}_net{i:02d}.csv") for i in range(w.m)]

    def labels(self, split: str) -> str:
        return str(self.data / f"{split}_labels.txt")


def _repeat(flag: str, values) -> list:
    return [a for v in values for a in (flag, v)]


def commands(w: Workload, seed: int, p: Paths) -> dict:
    """CLI argument lists (after `spheremix`) for each step, in run order."""
    return {
        "synth": [
            "synth", "--outdir", str(p.data), "--seed", str(seed), "--m", str(w.m),
            "--c", str(w.c), "--n-train", str(w.n_train), "--n-test", str(w.n_test),
            "--tau", TAU,
        ],
        "fit": [
            "fit", *_repeat("--train-table", p.tables(w, "train")),
            "--labels", p.labels("train"), "--out", str(p.model),
            "--report", str(p.fit_report), "--model", w.kind,
            "--max-iters", str(MAX_ITERS), "--tol", TOL, "--threads", "1",
        ],
        "evaluate": [
            "evaluate", "--model-file", str(p.model), *_repeat("--table", p.tables(w, "test")),
            "--labels", p.labels("test"), "--report", str(p.eval_report),
        ],
        "predict": [
            "predict", "--model-file", str(p.model), *_repeat("--table", p.tables(w, "test")),
            "--out", str(p.predictions),
        ],
        "inspect": ["inspect", "--model-file", str(p.model)],
    }
