"""Output checks of one fit -> evaluate -> predict pass.

Each check is one operation of the benchmark: it passes or fails on its own,
and a failure never stops the checks after it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SUM_TOL = 1e-9


def _read_predictions(path, c: int):
    """(classes, probability rows), or None when any row is not c+1 numbers."""
    classes, probs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                cells = line.strip().split(",")
                if len(cells) != c + 1:
                    return None
                classes.append(int(cells[0]))
                probs.append([float(v) for v in cells[1:]])
    except (OSError, ValueError):
        return None
    return classes, probs


def _read_labels(path):
    with open(path, encoding="utf-8") as fh:
        return [int(line) for line in fh if line.strip()]


def _argmax(row) -> int:
    # first maximum, as numpy.argmax breaks ties
    return max(range(len(row)), key=lambda j: (row[j], -j))


def check_outputs(predictions, labels, eval_json, c: int, n_test: int) -> list:
    """Return (check name, passed) for every output check of one pass."""
    parsed = _read_predictions(predictions, c)
    results = [("predictions.rows", parsed is not None and len(parsed[0]) == n_test)]
    if parsed is None:
        classes, probs = [], []
    else:
        classes, probs = parsed
    results.append((
        "predictions.class_is_argmax",
        parsed is not None
        and all(0 <= k < c and k == _argmax(row) for k, row in zip(classes, probs)),
    ))
    results.append((
        "predictions.probabilities_normalized",
        parsed is not None
        and all(
            all(math.isfinite(v) for v in row) and abs(math.fsum(row) - 1.0) <= SUM_TOL
            for row in probs
        ),
    ))
    try:
        reported = json.loads(Path(eval_json).read_text(encoding="utf-8"))["accuracy"]
        truth = _read_labels(labels)
        hits = sum(k == y for k, y in zip(classes, truth))
        matches = len(classes) == len(truth) == n_test and reported == hits / n_test
    except (OSError, ValueError, KeyError, TypeError):
        matches = False
    results.append(("evaluate.accuracy_matches_predictions", matches))
    return results


def reported_accuracy(eval_json) -> float:
    """Ensemble accuracy from evaluate's JSON report."""
    return float(json.loads(Path(eval_json).read_text(encoding="utf-8"))["accuracy"])
