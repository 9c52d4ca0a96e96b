"""Data ingestion and model serialization.

Input tables are headerless CSV, one row per sample, one file per network
per split: softmax probabilities (d = c columns) in probability mode, raw
feature vectors (d = d_i columns) in feature mode. Labels are one base-10
integer per line. Models are stored as a single self-describing JSON
document with an explicit schema_version (2; version 1 is still read). Every
float array is a blob {"shape": [...], "f8": base64 of its little-endian
float64 bytes}, so deserialize(serialize(M)) reproduces every array bit for
bit by construction; scalars are plain JSON numbers, which round-trip too.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._points import GRASSMANN, SPHERE
from .density import GaussianDensity, KernelDensity
from .ensemble import KDE, PARAMETRIC, EnsembleModel, MixtureWeights
from .errors import (
    CorruptModel,
    EmptyBatch,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ParseError,
    RaggedEnsemble,
    RaggedTable,
    SchemaMismatch,
    ZeroFeature,
)
from .estimators import SampleSet
from .grassmann import GrassmannPoint
from .sphere import SpherePoint

SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)

PROBABILITY = "probability"
FEATURE = "feature"

# rows off by <= this are silently renormalized; beyond it the file is rejected
_ROW_SUM_HARD = 1e-2


@dataclass(frozen=True)
class OutputTable:
    """One network's outputs on one split: n samples by d columns."""

    values: np.ndarray
    mode: str
    network_id: int = 0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _parse_rows(path):
    """The rows of a CSV table, plus the row count at each blank line it
    skipped, from which ``_file_line`` gives each row's file line."""
    rows = []
    blanks = []
    width = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                blanks.append(len(rows))
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise RaggedTable(
                    f"{path}: line {lineno} has {len(cells)} columns, expected {width}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise EmptyBatch(f"{path}: no rows")
    return np.asarray(rows, dtype=np.float64), blanks


def _file_line(blanks, row: int) -> int:
    """1-based file line of data row ``row``: one past the row index, plus
    every blank line skipped before it."""
    return row + 1 + bisect_right(blanks, row)


def load_output_table(path, mode: str = PROBABILITY, network_id: int = 0) -> OutputTable:
    """Parse and validate one network's CSV table.

    Probability mode rejects entries below -1e-9 and rows whose mass is off
    1 by more than 1e-2; smaller drift (float32 softmax exports commonly sit
    at the 1e-6 level) is renormalized. Feature mode rejects zero rows.
    """
    if mode not in (PROBABILITY, FEATURE):
        raise ValueError(f"unknown table mode {mode!r}")
    values, blanks = _parse_rows(path)
    if mode == PROBABILITY:
        if np.any(values < -1e-9):
            line = _file_line(blanks, int(np.where(values < -1e-9)[0][0]))
            raise NegativeProbability(f"{path}: line {line} has a negative probability")
        values = np.maximum(values, 0.0)
        sums = values.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > _ROW_SUM_HARD):
            row = int(np.argmax(off))
            raise NotNormalized(f"{path}: line {_file_line(blanks, row)} sums to {sums[row]:.6g}")
        values = values / sums[:, None]
    else:
        norms = np.linalg.norm(values, axis=1)
        if np.any(norms <= 1e-12):
            line = _file_line(blanks, int(np.argmin(norms)))
            raise ZeroFeature(f"{path}: line {line} is a zero feature vector")
    return OutputTable(values=values, mode=mode, network_id=network_id)


def load_labels(path, c: int) -> np.ndarray:
    """One class id per line, each in [0, c)."""
    labels = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: not an integer: {line!r}") from None
            if value < 0 or value >= c:
                raise LabelOutOfRange(f"{path}: line {lineno}: label {value} outside [0, {c})")
            labels.append(value)
    if not labels:
        raise EmptyBatch(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def check_alignment(tables, labels=None):
    """All per-network tables of one split must agree on the sample count."""
    counts = {t.n for t in tables}
    if len(counts) != 1:
        raise RaggedEnsemble(f"tables disagree on sample count: {sorted(counts)}")
    if labels is not None and labels.shape[0] != tables[0].n:
        raise RaggedEnsemble(
            f"{labels.shape[0]} labels for {tables[0].n} samples"
        )


def embed_probability_rows(values: np.ndarray) -> np.ndarray:
    """Square-root embedding of already-normalized probability rows."""
    return np.sqrt(values)


def embed_feature_rows(values: np.ndarray) -> np.ndarray:
    """Sign-canonical unit representatives of raw feature rows."""
    reps = values / np.linalg.norm(values, axis=1)[:, None]
    first_nonzero = (reps != 0.0).argmax(axis=1)
    signs = np.sign(reps[np.arange(reps.shape[0]), first_nonzero])
    return reps * signs[:, None]


def load_split(table_paths, space: str = SPHERE):
    """Load and embed one split's per-network tables.

    Returns (features, tables): embedded (n, d_i) matrices plus the raw
    OutputTable objects, with the cross-network alignment checked.
    """
    mode = PROBABILITY if space == SPHERE else FEATURE
    tables = [load_output_table(p, mode, network_id=i) for i, p in enumerate(table_paths)]
    check_alignment(tables)
    if space == SPHERE:
        features = [embed_probability_rows(t.values) for t in tables]
    else:
        features = [embed_feature_rows(t.values) for t in tables]
    return features, tables


# -- model files -----------------------------------------------------------------


def _blob(a: np.ndarray) -> dict:
    """A float array as its shape and the base64 of its little-endian float64 bytes."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _array(obj) -> np.ndarray:
    """The float64 array of a blob (schema 2) or of a nested list (schema 1).
    Bad base64, a byte count that is not a multiple of 8 and a shape that
    does not hold the bytes raise ValueError."""
    if isinstance(obj, dict):
        raw = base64.b64decode(obj["f8"], validate=True)
        return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"])
    return np.asarray(obj, dtype=np.float64)


def _density_to_dict(d) -> dict:
    if isinstance(d, GaussianDensity):
        vec = d.mu.rep if d.space == GRASSMANN else d.mu.coords
        return {"mu": _blob(vec), "sigma": d.sigma, "normalizer": d.normalizer}
    return {
        "support": _blob(d.support.points),
        "bandwidth": d.bandwidth,
        "normalizer": d.normalizer,
    }


def _density_from_dict(obj: dict, kind: str, space: str, network_id: int, class_id: int):
    if kind == PARAMETRIC:
        vec = _array(obj["mu"])
        mu = GrassmannPoint(vec) if space == GRASSMANN else SpherePoint(vec)
        return GaussianDensity(mu=mu, sigma=float(obj["sigma"]), normalizer=float(obj["normalizer"]))
    support = SampleSet(_array(obj["support"]), space, network_id, class_id)
    return KernelDensity(
        support=support, bandwidth=float(obj["bandwidth"]), normalizer=float(obj["normalizer"])
    )


def save_model(model: EnsembleModel) -> bytes:
    """Serialize a fitted model to its JSON document (UTF-8 bytes), on one
    line: without ``indent`` CPython runs its C encoder."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "space": model.space,
        "m": model.m,
        "c": model.c,
        "alpha": model.weights.alpha.tolist(),  # readable only; alpha_tilde is read back
        "alpha_tilde": _blob(model.weights.alpha_tilde),
        "fit_meta": model.fit_meta,
        "densities": [[_density_to_dict(d) for d in row] for row in model.densities],
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def load_model(data: bytes) -> EnsembleModel:
    """Rebuild an EnsembleModel from its JSON document (schema 1 or 2)."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"unreadable model file: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptModel("model file is not a JSON object")
    if doc.get("schema_version") not in _READABLE_SCHEMAS:
        raise SchemaMismatch(
            f"model schema_version {doc.get('schema_version')!r}, supported: {_READABLE_SCHEMAS}"
        )
    try:
        kind = doc["kind"]
        space = doc["space"]
        if kind not in (PARAMETRIC, KDE) or space not in (SPHERE, GRASSMANN):
            raise CorruptModel(f"unknown kind/space: {kind!r}/{space!r}")
        weights = MixtureWeights(_array(doc["alpha_tilde"]))
        densities = [
            [_density_from_dict(cell, kind, space, i, j) for j, cell in enumerate(row)]
            for i, row in enumerate(doc["densities"])
        ]
        return EnsembleModel(
            kind=kind, space=space, m=int(doc["m"]), c=int(doc["c"]),
            densities=densities, weights=weights, fit_meta=dict(doc["fit_meta"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModel(f"model file is missing or corrupts required fields: {exc}") from None


def save_model_file(model: EnsembleModel, path):
    """Write the bytes of ``save_model(model)`` to ``path``, creating its
    parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(save_model(model))


def load_model_file(path) -> EnsembleModel:
    p = Path(path)
    if not p.exists():
        raise CorruptModel(f"{path}: no such file")
    return load_model(p.read_bytes())
