"""Deterministic synthetic weak-classifier suites.

For a sample of true class j, network i emits

    softmax( onehot(j) / tau_i  +  tau_i * gaussian_noise ),

so tau_i dials that network's standalone accuracy: tau -> 0 gives a
near-perfect classifier, large tau drives accuracy to chance 1/c. For
c = 10, tau around 0.70-0.74 lands in the 60-70% band. All randomness
comes from the single seed; equal configs produce byte-identical files,
written by ``io.write_rows``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .io import write_rows


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _outputs(onehot: np.ndarray, tau: float, rng) -> np.ndarray:
    """One network's softmax rows for its ``onehot`` labels at noise level ``tau``."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _softmax(onehot / tau + tau * rng.standard_normal(onehot.shape))
        except FloatingPointError:  # 1/tau or tau * noise is not finite
            raise InvalidConfig(f"tau {float(tau)!r} overflows the synthetic logits") from None


def parse_taus(text: str, m: int) -> np.ndarray:
    """Per-network noise levels from 'x', 'lo:hi' (linear spread), or a
    comma-separated list of exactly m values."""
    if m < 1:
        raise InvalidConfig(f"need m >= 1 networks, got {m}")
    text = text.strip()
    spread = ":" in text
    try:
        values = [float(s) for s in text.split(":" if spread else ",")]
        if spread:
            lo, hi = values
    except ValueError:
        raise InvalidConfig(f"cannot parse tau setting {text!r}") from None
    if not all(0.0 < v < math.inf for v in values):
        raise InvalidConfig("tau values must be positive and finite")
    if spread:
        taus = np.linspace(lo, hi, m)
    elif len(values) == 1:
        taus = np.full(m, values[0])
    else:
        taus = np.asarray(values, dtype=np.float64)
    if taus.shape[0] != m:
        raise InvalidConfig(f"{taus.shape[0]} tau values for m={m} networks")
    return taus


def make_suite(seed: int, m: int, c: int, n_train: int, n_test: int, taus) -> dict:
    """Generate one suite in memory.

    Returns {"train_labels", "test_labels", "train": [m tables], "test":
    [m tables]} with raw (un-embedded) probability rows.
    """
    if m < 1 or c < 2 or n_train < 1 or n_test < 1:
        raise InvalidConfig("need m >= 1, c >= 2 and positive sample counts")
    taus = np.asarray(taus, dtype=np.float64)
    if taus.shape != (m,):
        raise InvalidConfig(f"expected {m} tau values, got shape {taus.shape}")
    if seed < 0:
        raise InvalidConfig(f"seed {seed} must be >= 0")
    rng = np.random.default_rng(seed)
    train_labels = rng.integers(0, c, n_train)
    test_labels = rng.integers(0, c, n_test)
    eye = np.eye(c)
    train = [_outputs(eye[train_labels], t, rng) for t in taus]
    test = [_outputs(eye[test_labels], t, rng) for t in taus]
    return {
        "train_labels": train_labels,
        "test_labels": test_labels,
        "train": train,
        "test": test,
    }


def write_suite(suite: dict, outdir) -> dict:
    """Write a generated suite as CSV tables plus label files.

    Returns the path layout: train/test tables indexed by network, and the
    two label files.
    """
    outdir = Path(outdir)
    paths = {split: [outdir / f"{split}_net{i:02d}.csv" for i in range(len(suite[split]))]
             for split in ("train", "test")}
    for split in ("train", "test"):
        for path, table in zip(paths[split], suite[split]):
            write_rows(path, table.tolist())
        paths[f"{split}_labels"] = outdir / f"{split}_labels.txt"
        write_rows(paths[f"{split}_labels"], suite[f"{split}_labels"][:, None].tolist())
    return paths
