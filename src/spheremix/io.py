"""Data ingestion and model serialization.

This module alone knows the CSV text format. Input tables are headerless
CSV, one row per sample, one file per network per split: softmax
probabilities (d = c columns) in probability mode, raw feature vectors
(d = d_i columns) in feature mode, read by numpy's C reader or, for a table
it refuses, in one Python pass with float() syntax. Labels are one base-10
integer per line. Tables, labels and predictions are all written by
``write_rows``: each cell is the repr of its Python number, for a float the
shortest text float() reads back. A model file (schema_version 3, the only
one read or written) is a JSON line in which each float array is {"shape":
[...]}, then the arrays' little-endian float64 bytes in C order, so every
value round-trips bit for bit. The model's kind sets each cell's layout: {"mu",
"sigma", "normalizer"} holds the one support point and width of a parametric
cell's `KernelDensity`, and {"support", "bandwidth", "normalizer"} a KDE
cell. A cell that fails the density's or a point's checks is a CorruptModel
(exit 4) naming its network and class. ``_modelread`` reads model files:
``load_model`` and ``load_model_file`` import it when called, and a loaded
model reads each network's cells from its file when they are asked for, once
for the load's check and once per scoring pass.
Every output file is written through ``output_file``, which replaces its
target atomically.
"""

from __future__ import annotations

import errno
import json
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path

import numpy as np

from ._points import SPHERE
from .ensemble import PARAMETRIC, EnsembleModel
from .errors import (
    EmptyBatch,
    InvalidConfig,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ParseError,
    RaggedEnsemble,
    RaggedTable,
    ZeroFeature,
)

SCHEMA_VERSION = 3

PROBABILITY = "probability"
FEATURE = "feature"

# rows off by <= this are silently renormalized; beyond it the file is rejected
_ROW_SUM_HARD = 1e-2


@dataclass(frozen=True)
class OutputTable:
    """One network's outputs on one split: n samples by d columns."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _read_rows(path) -> list:
    """The non-blank lines of a UTF-8 text file, stripped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line for line in map(str.strip, fh) if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _where(path, k) -> str:
    """The "<path>: line <n>" naming row k, n its 1-based file line with blank
    lines counted. It reads the file again, so only an error message calls it."""
    with open(path, "r", encoding="utf-8") as fh:
        return f"{path}: line {[i for i, line in enumerate(fh, start=1) if line.strip()][k]}"


def _parse_rows(path) -> np.ndarray:
    """A CSV table as one float64 array, read by numpy's C reader. A table
    that it refuses or reads no row from is read in one Python pass, each row
    converted by numpy (float() syntax); the first ragged row or cell that is
    not a number raises, naming its line."""
    try:
        # an open file, not a path: numpy would fetch a URL, or read t.csv.gz for t.csv
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        if len(values):
            return values
    except (ValueError, OSError):  # UnicodeDecodeError is a ValueError
        pass
    rows = _read_rows(path)
    if not rows:
        raise EmptyBatch(f"{path}: no rows")
    values = np.empty((len(rows), rows[0].count(",") + 1))
    for k, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != values.shape[1]:
            raise RaggedTable(
                f"{_where(path, k)} has {len(cells)} columns, expected {values.shape[1]}")
        try:
            values[k] = np.array(cells, dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{_where(path, k)}: {exc}") from None
    return values


def load_output_table(path, mode: str = PROBABILITY) -> OutputTable:
    """Parse and validate one network's CSV table.

    Probability mode rejects entries below -1e-9 and rows whose mass is off
    1 by more than 1e-2; smaller drift (float32 softmax exports commonly sit
    at the 1e-6 level) is renormalized in place. Feature mode rejects zero
    rows. Every mode rejects non-finite cells.
    """
    if mode not in (PROBABILITY, FEATURE):
        raise ValueError(f"unknown table mode {mode!r}")
    values = _parse_rows(path)
    if not np.isfinite(values).all():
        k, j = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(f"{_where(path, k)}: non-finite value {values[k, j]}")
    if mode == PROBABILITY:
        if np.any(values < -1e-9):
            row = np.where(values < -1e-9)[0][0]
            raise NegativeProbability(f"{_where(path, row)} has a negative probability")
        np.maximum(values, 0.0, out=values)
        sums = values.sum(axis=1)
        off = np.abs(sums - 1.0) > _ROW_SUM_HARD
        if off.any():
            row = int(off.argmax())
            raise NotNormalized(f"{_where(path, row)} sums to {sums[row]:.6g}")
        values /= sums[:, None]
    else:
        zero = np.linalg.norm(values, axis=1) <= 1e-12
        if zero.any():
            raise ZeroFeature(f"{_where(path, zero.argmax())} is a zero feature vector")
    return OutputTable(values)


def load_labels(path, c: int) -> np.ndarray:
    """One class id per line, each in [0, c)."""
    rows = _read_rows(path)
    if not rows:
        raise EmptyBatch(f"{path}: no labels")
    labels = []
    for k, row in enumerate(rows):
        try:
            value = int(row)
        except ValueError:
            raise ParseError(f"{_where(path, k)}: not an integer: {row!r}") from None
        if value < 0 or value >= c:
            raise LabelOutOfRange(f"{_where(path, k)}: label {value} outside [0, {c})")
        labels.append(value)
    return np.asarray(labels, dtype=np.int64)


def embed_probability_rows(values: np.ndarray, out=None) -> np.ndarray:
    """Square-root embedding of already-normalized probability rows; pass
    ``out=values`` to embed in place."""
    return np.sqrt(values, out=out)


def embed_feature_rows(values: np.ndarray, out=None) -> np.ndarray:
    """Sign-canonical unit representatives of raw feature rows; pass
    ``out=values`` to embed in place."""
    reps = np.divide(values, np.linalg.norm(values, axis=1)[:, None], out=out)
    first_nonzero = (reps != 0.0).argmax(axis=1)
    reps *= np.sign(reps[np.arange(reps.shape[0]), first_nonzero])[:, None]
    return reps


def iter_split(table_paths, space: str = SPHERE):
    """Yield one split's per-network tables in order, each parsed, checked
    and embedded only when it is asked for, so a consumer that drops each
    table before asking for the next holds one at a time.

    A table whose row count is not the first table's is RaggedEnsemble,
    naming both. Each table is embedded in its own buffer: a yielded table's
    ``values`` are its embedded points, so only its ``n`` and ``d`` still
    describe the file.
    """
    mode = PROBABILITY if space == SPHERE else FEATURE
    embed = embed_probability_rows if space == SPHERE else embed_feature_rows
    n = None
    for path in table_paths:
        table = load_output_table(path, mode)
        n = table.n if n is None else n
        if table.n != n:
            raise RaggedEnsemble(f"{path} has {table.n} rows, {table_paths[0]} has {n}")
        embed(table.values, out=table.values)
        yield table
        del table  # before the next table is parsed


def load_split(table_paths, space: str = SPHERE):
    """Load and embed one split's per-network tables: all of ``iter_split``'s,
    as (features, tables) with ``features[i]`` being ``tables[i].values``."""
    tables = list(iter_split(table_paths, space))
    return [t.values for t in tables], tables


# -- output files ----------------------------------------------------------------


@contextmanager
def _writing(path: Path):
    """The sibling temporary file to write ``path`` through, after making its
    parent directories; it is gone when the block exits. An OSError (an
    output path that is a directory, a parent that is a file, no permission,
    a full disk) raises InvalidConfig naming ``path``."""
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    try:
        with suppress(FileExistsError):  # a parent that is a file: open says so
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():  # else only the final replace fails, after the work
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        yield tmp
    except OSError as exc:
        raise InvalidConfig(f"{path}: cannot write: {exc.strerror or exc}") from None
    finally:
        with suppress(OSError):  # gone already after the replace
            tmp.unlink()


@contextmanager
def output_file(path):
    """A UTF-8 text file that replaces ``path`` only when the block exits
    cleanly, so a failed write leaves any earlier file at ``path`` as it was
    and no temporary file behind. Errors are as in ``_writing``."""
    path = Path(path)
    with _writing(path) as tmp:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)


def write_rows(path, rows):
    """Write ``rows`` of Python numbers to ``path`` through ``output_file``,
    one line each: the cells' reprs, joined by commas."""
    with output_file(path) as fh:
        for row in rows:
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def check_writable(path):
    """Raise now the InvalidConfig that ``output_file(path)`` would raise,
    leaving ``path`` as it is."""
    with _writing(Path(path)) as tmp:
        open(tmp, "w").close()


# -- model files -----------------------------------------------------------------


def _shape(a, body: list) -> dict:
    """The JSON encoder's ``default`` hook: a float array joins ``body`` and
    leaves its shape; anything else (a numpy int in fit_meta, say) is a TypeError."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"Object of type {type(a).__name__} is not JSON serializable")
    a = np.ascontiguousarray(a, dtype="<f8")
    body.append(a)
    return {"shape": list(a.shape)}


def _document(model: EnsembleModel) -> dict:
    """The model's JSON document, its float arrays still ndarrays."""
    def cell(d) -> dict:
        if model.kind == PARAMETRIC:
            return {"mu": d.support.points[0], "sigma": d.bandwidth, "normalizer": d.normalizer}
        return {"support": d.support.points, "bandwidth": d.bandwidth,
                "normalizer": d.normalizer}

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "space": model.space,
        "m": model.m,
        "c": model.c,
        "alpha": model.weights.alpha.tolist(),  # readable only; alpha_tilde is read back
        "alpha_tilde": model.weights.alpha_tilde,
        "fit_meta": model.fit_meta,
        "densities": [[cell(d) for d in row] for row in model.densities],
    }


def _write_model(model: EnsembleModel, fh):
    # the header is streamed: json.dumps would hold it as small strings, 8x its size
    body = []
    for chunk in json.JSONEncoder(default=lambda a: _shape(a, body)).iterencode(_document(model)):
        fh.write(chunk.encode("utf-8"))
    fh.write(b"\n")
    for a in body:
        fh.write(a)


def save_model(model: EnsembleModel) -> bytes:
    """The bytes of a fitted model's file."""
    with BytesIO() as fh:
        _write_model(model, fh)
        return fh.getvalue()


def load_model(data: bytes) -> EnsembleModel:
    """The model in a model file's bytes (``_modelread.load_model``)."""
    from . import _modelread  # here, not at the top: see _modelread
    return _modelread.load_model(data)


def save_model_file(model: EnsembleModel, path):
    """Write ``save_model(model)`` to ``path`` through ``output_file``."""
    with output_file(path) as fh:
        _write_model(model, fh.buffer)


def load_model_file(path) -> EnsembleModel:
    """The model in the file at ``path`` (``_modelread.load_model_file``)."""
    from . import _modelread
    return _modelread.load_model_file(path)
