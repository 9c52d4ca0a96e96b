import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from spheremix.ensemble import (
    KDE, PARAMETRIC, EnsembleModel, LabeledBatch, fit_densities, fit_weights, shift_to_pdf,
)
from spheremix.io import embed_probability_rows
from spheremix.synth import make_suite, parse_taus

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# the seeded desk-scale suite: 20 weak networks, 10 classes
SUITE_SEED = 18
SUITE_TAU = "0.696:0.739"
SUITE_M = 20
SUITE_C = 10
SUITE_N_TRAIN = 2000
SUITE_N_TEST = 1000


@dataclass
class Result:
    """One in-process CLI run. ``output`` is stdout and stderr in the order
    they were written; an uncaught exception is kept, not printed, and exits 1."""

    exit_code: int
    output: str
    stdout: str
    stderr: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """A captured stream that also writes into the shared ``output``."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.shared = output

    def write(self, s: str) -> int:
        self.shared.write(s)
        return super().write(s)


class Runner:
    def invoke(self, main, args) -> Result:
        """Run ``main(args)`` with stdout and stderr captured."""
        output = io.StringIO()
        stdout, stderr = _Stream(output), _Stream(output)
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(list(args))
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # kept for the test to inspect
                exit_code, exception = 1, exc
        return Result(exit_code, output.getvalue(), stdout.getvalue(), stderr.getvalue(),
                      exception)


@pytest.fixture(scope="session")
def runner():
    """Runs spheremix.cli.main in this process, as a test's ``runner.invoke(main, args)``."""
    return Runner()


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def desk_suite():
    """The seeded 20-network suite used by the acceptance criteria."""
    taus = parse_taus(SUITE_TAU, SUITE_M)
    t0 = time.perf_counter()
    suite = make_suite(SUITE_SEED, SUITE_M, SUITE_C, SUITE_N_TRAIN, SUITE_N_TEST, taus)
    train = LabeledBatch(
        [embed_probability_rows(t) for t in suite["train"]], suite["train_labels"]
    )
    test = LabeledBatch(
        [embed_probability_rows(t) for t in suite["test"]], suite["test_labels"]
    )
    gen_time = time.perf_counter() - t0
    standalone = [
        float(np.mean(np.argmax(f, axis=1) == test.labels)) for f in test.features
    ]
    return {
        "train": train,
        "test": test,
        "standalone_test_accuracy": standalone,
        "generation_time_s": gen_time,
    }


@pytest.fixture(scope="session")
def fitted_models(desk_suite):
    """Both model kinds fitted on the desk suite, with their shifted train pdf
    tensors and per-phase wall times."""
    out = {}
    for kind in (PARAMETRIC, KDE):
        t0 = time.perf_counter()
        densities, P_train = fit_densities(desk_suite["train"], SUITE_C, kind)
        shift_to_pdf(P_train)
        t_densities = time.perf_counter() - t0
        t0 = time.perf_counter()
        weights, meta = fit_weights(P_train, desk_suite["train"])
        t_weights = time.perf_counter() - t0
        model = EnsembleModel(
            kind=kind, space="sphere", m=SUITE_M, c=SUITE_C,
            densities=densities, weights=weights, fit_meta=meta,
        )
        out[kind] = {
            "model": model,
            "P_train": P_train,
            "density_time_s": t_densities,
            "weight_time_s": t_weights,
        }
    return out
