"""Data ingestion and model files.

This module alone knows the CSV text format. Input tables are headerless
CSV, one row per sample, one file per network per split: softmax
probabilities (d = c columns) in probability mode, raw feature vectors
(d = d_i columns) in feature mode, read by numpy's C reader or, for a table
it refuses, in one Python pass with float() syntax. Labels are one base-10
integer per line. Tables, labels and predictions are all written by
``write_rows``: each cell is the repr of its Python number, for a float the
shortest text float() reads back. Every output file is written through
``output_file``, which replaces its target atomically.

It alone knows the model file too. A model file (schema_version 3, the only
one written or read; any other version is a SchemaMismatch, and an older
model must be refit) is a JSON line in which each float array is {"shape":
[...]}, then the arrays' little-endian float64 bytes in C order, so every
value round-trips bit for bit. The model's kind sets each cell's layout:
{"mu", "sigma", "normalizer"} holds the one support point and width of a
parametric cell's `KernelDensity`, and {"support", "bandwidth",
"normalizer"} a KDE cell. A load checks every array's shape and the body's
length against the header before it reads any array, then reads
alpha_tilde. The model's density grid, a ``LoadedGrid``, reads network i's
c cells from the file, and checks them, each time it is indexed, and keeps
none: ``EnsembleModel`` indexes each row once as the load's check, and
``ensemble.network_log_densities`` once per scoring pass, each dropping a
row before it indexes the next, so each holds one network's cells at a
time. A cell that fails the density's or a point's checks is a CorruptModel
(exit 4) naming its network and class. The grid reads from the file, which
the model holds open for its life (a raw descriptor read with os.pread and
closed by a finalizer), or from the bytes of a pipe or of ``load_model``,
which it keeps.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import stat
import warnings
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path

import numpy as np

from ._points import GRASSMANN, SPHERE, make_point
from .density import GaussianDensity, KernelDensity
from .ensemble import KDE, PARAMETRIC, EnsembleModel, MixtureWeights
from .errors import (
    CorruptModel,
    DataError,
    EmptyBatch,
    InvalidConfig,
    LabelOutOfRange,
    ModelFormatError,
    NegativeProbability,
    NotNormalized,
    ParseError,
    RaggedEnsemble,
    RaggedTable,
    SchemaMismatch,
    ZeroFeature,
)
from .estimators import SampleSet

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


def save_model_file(model: EnsembleModel, path):
    """Write ``save_model(model)`` to ``path`` through ``output_file``."""
    with output_file(path) as fh:
        _write_model(model, fh.buffer)


@contextmanager
def model_errors(name=None):
    """Each fault of a model's bytes raised in the block as a
    ModelFormatError, naming the file ``name`` when there is one."""
    where = "" if name is None else f" (in {name})"
    try:
        yield
    except OSError as exc:
        raise CorruptModel(f"{name}: cannot read: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"unreadable model file: {exc}{where}") from None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # also a cell's error, which names the cell
        raise CorruptModel(f"model file is missing or corrupts required fields: {exc}{where}") \
            from None
    except ModelFormatError as exc:
        raise type(exc)(f"{exc}{where}") from None


def read_array(value, read) -> np.ndarray:
    """A header array, which the parser left as its (offset, shape) in the
    body, read through ``read`` without a copy. A short read (a file cut
    after its load) is a CorruptModel, never a short array."""
    offset, shape = value
    n = 8 * math.prod(shape)
    data = read(n, offset)
    if len(data) != n:
        raise CorruptModel(f"model body ends early: shape {list(shape)} at byte {offset}, "
                           f"{len(data)} of its {n} bytes read")
    return np.frombuffer(data, "<f8").reshape(shape)


def density_from_dict(obj: dict, kind: str, space: str, network_id: int, class_id: int, read):
    """The density of header cell ``obj``, its arrays read through ``read``;
    a fault is a ValueError naming the cell."""
    try:
        if kind == PARAMETRIC:
            mu = make_point(read_array(obj["mu"], read), space)
            return GaussianDensity(mu, float(obj["sigma"]), float(obj["normalizer"]))
        support = SampleSet(read_array(obj["support"], read), space, network_id, class_id)
        return KernelDensity(support, float(obj["bandwidth"]), float(obj["normalizer"]))
    except (KeyError, TypeError, ValueError, IndexError, DataError) as exc:
        raise ValueError(f"network {network_id}, class {class_id}: {exc}") from None


class LoadedGrid:
    """A loaded model's m x c density grid. Row i, network i's c cells, is
    read and checked each time it is indexed, and is not kept. A fault is a
    ModelFormatError, naming the file ``name`` once the load has set it: the
    load's own check, ``EnsembleModel`` indexing each row, is named by the
    load's caller."""

    name = None

    def __init__(self, rows: list, kind: str, space: str, read):
        self._rows, self._kind, self._space, self._read = rows, kind, space, read

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i) -> list:
        if not -len(self) <= i < len(self):
            raise IndexError(f"network {i} of a model with m={len(self)}")  # ends an iteration
        with model_errors(self.name):
            return self.read_row(i % len(self))

    def read_row(self, i: int) -> list:
        """Network i's cells, read and checked; a fault raises as the cell's ValueError."""
        return [density_from_dict(cell, self._kind, self._space, i, j, self._read)
                for j, cell in enumerate(self._rows[i])]


def read_model(fh, size: int, read, name=None) -> EnsembleModel:
    """The model in ``fh``, a binary file of ``size`` bytes read from its
    start, whose bytes ``read(nbytes, offset)`` returns, as ``os.pread``
    does; ``name`` is the file that the grid's later faults name."""
    header = fh.readline()
    end = len(header)  # where the next array starts

    def array(obj: dict):  # the parser's object_hook: an array becomes where it is
        nonlocal end
        if obj.keys() != {"shape"}:
            return obj
        shape = obj["shape"]
        if not all(type(k) is int and k >= 0 for k in shape):
            raise CorruptModel(f"array shape {shape!r} is not a list of sizes")
        n = 8 * math.prod(shape)
        if end + n > size:  # before anything is allocated or read
            raise CorruptModel(f"model body ends early: shape {shape} at byte {end} of {size}")
        end += n
        return end - n, shape

    doc = ({"schema_version": 1} if header.strip() == b"{"  # only schema 1 was indented
           else json.loads(header.decode("utf-8"), object_hook=array))
    if not isinstance(doc, dict):
        raise CorruptModel("model file is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:  # before the body, which others lack
        raise SchemaMismatch(f"model schema_version {doc.get('schema_version')!r}, "
                             f"supported: {SCHEMA_VERSION}; refit the model")
    if end != size:
        raise CorruptModel(f"model body runs past its last array: byte {end} of {size}")
    kind = doc["kind"]
    space = doc["space"]
    if kind not in (PARAMETRIC, KDE) or space not in (SPHERE, GRASSMANN):
        raise CorruptModel(f"unknown kind/space: {kind!r}/{space!r}")
    weights = MixtureWeights(read_array(doc["alpha_tilde"], read))
    grid = LoadedGrid(doc["densities"], kind, space, read)
    model = EnsembleModel(
        kind=kind, space=space, m=int(doc["m"]), c=int(doc["c"]),
        densities=grid, weights=weights, fit_meta=dict(doc["fit_meta"]),
    )
    grid.name = name  # checked: from now on the grid names its faults' file itself
    return model


def _bytes_model(data: bytes, name=None) -> EnsembleModel:
    """The model in ``data``, whose grid reads its rows from ``data``."""
    view = memoryview(data)
    return read_model(BytesIO(data), len(data), lambda n, offset: view[offset:offset + n], name)


def load_model(data: bytes) -> EnsembleModel:
    """The model in a model file's bytes. The model keeps the bytes: its
    grid reads each row from them."""
    with model_errors():
        return _bytes_model(bytes(data))


def load_model_file(path) -> EnsembleModel:
    """The model in the file at ``path``. A path that cannot be read (missing,
    a directory, no permission) is a CorruptModel, and every model-format
    error names the path. The model reads its cells from the file it
    loaded, held open, so a file replaced at ``path`` after the load is
    never read, and one cut after it is a CorruptModel naming the path. A
    pipe's bytes are read at once and kept."""
    with model_errors(path):
        fd = os.open(path, os.O_RDONLY)
        read = functools.partial(os.pread, fd)
        close = weakref.finalize(read, os.close, fd)  # the model's grid holds ``read``
        try:
            with open(fd, "rb", closefd=False) as fh:
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode):
                    return read_model(fh, st.st_size, read, path)
                data = fh.read()  # a pipe: its size is known once it is read
        except BaseException:
            close()  # now, not when a traceback lets go of ``read``
            raise
        close()
        return _bytes_model(data, path)
