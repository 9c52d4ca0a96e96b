"""Reading model files, whose format ``io`` describes and writes.

Only schema ``io.SCHEMA_VERSION`` is read; a file of any other version is a
SchemaMismatch, and one of an older version must be refit. A load checks
every array's shape and the body's length against the JSON header before it
reads any array, then reads alpha_tilde. The model's density grid, a
``LoadedGrid``, reads network i's c cells from the file, and checks them,
each time it is indexed, and keeps none: ``EnsembleModel`` indexes each row
once as the load's check, and ``ensemble.network_log_densities`` once per
scoring pass, each dropping a row before it indexes the next, so each holds
one network's cells at a time. The grid reads from the file, which the
model holds open for its life (a raw descriptor read with os.pread and
closed by a finalizer), or from the bytes of a pipe or of ``load_model``,
which it keeps.

Only a command that reads a model imports this module: ``io.load_model``
and ``io.load_model_file`` import it when called. Without a bytecode cache
every command compiles the modules it imports, and ``fit`` reads no model.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import weakref
from contextlib import contextmanager
from io import BytesIO

import numpy as np

from ._points import GRASSMANN, SPHERE, make_point
from .density import GaussianDensity, KernelDensity
from .ensemble import KDE, PARAMETRIC, EnsembleModel, MixtureWeights
from .errors import CorruptModel, DataError, ModelFormatError, SchemaMismatch
from .estimators import SampleSet
from .io import SCHEMA_VERSION


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
