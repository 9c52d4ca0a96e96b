import base64
import gc
import gzip
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from spheremix import io
from spheremix.density import GaussianDensity, KernelDensity
from spheremix.ensemble import (
    EnsembleModel, LabeledBatch, MixtureWeights, ensemble_probability_batch, fit_ensemble,
    pdf_grid, predict_batch,
)
from spheremix.errors import (
    CorruptModel,
    DimensionMismatch,
    EmptyBatch,
    InvalidConfig,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ParseError,
    RaggedEnsemble,
    RaggedTable,
    SchemaMismatch,
    ZeroFeature,
)
from spheremix.io import (
    embed_feature_rows,
    embed_probability_rows,
    iter_split,
    load_labels,
    load_model,
    load_model_file,
    load_output_table,
    load_split,
    output_file,
    save_model,
    save_model_file,
)
from spheremix.estimators import SampleSet
from spheremix.sphere import SpherePoint
from spheremix.synth import make_suite, write_suite


class TestOutputTable:
    def test_valid_probability_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.2,0.8\n0.5,0.5\n1.0,0.0\n")
        table = load_output_table(p)
        assert table.n == 3 and table.d == 2
        np.testing.assert_allclose(table.values.sum(axis=1), 1.0, atol=1e-15)

    def test_row_within_tolerance_renormalized(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.50005,0.5\n")
        table = load_output_table(p)
        assert abs(table.values.sum() - 1.0) <= 1e-15

    def test_negative_probability(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.5\n1.01,-0.01\n")
        with pytest.raises(NegativeProbability, match="line 2"):
            load_output_table(p)

    def test_badly_unnormalized(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.6,0.6\n")
        with pytest.raises(NotNormalized):
            load_output_table(p)

    @pytest.mark.parametrize("text, mode, error", [
        ("\n0.5,0.5\n0.2,0.8\n-0.5,1.5\n", "probability", NegativeProbability),
        ("\n0.5,0.5\n0.2,0.8\n0.6,0.6\n", "probability", NotNormalized),
        ("\n1.0,2.0\n\n0.0,0.0\n", "feature", ZeroFeature),
    ])
    def test_value_errors_name_the_file_line(self, tmp_path, text, mode, error):
        # blank lines hold no row, but the error still counts them
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(error, match=r"t\.csv: line 4 "):
            load_output_table(p, mode=mode)

    @pytest.mark.parametrize("mode", ["probability", "feature"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_the_file_line(self, tmp_path, mode, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"\n0.5,0.5\n0.5,{cell}\n")
        with pytest.raises(ParseError, match=rf"t\.csv: line 3: non-finite value {cell}$"):
            load_output_table(p, mode=mode)

    def test_cells_use_float_syntax(self, tmp_path):
        cells = [" 2 ", "+.5", "1_0", "1e-320"]
        p = tmp_path / "t.csv"
        p.write_text(",".join(cells) + "\n")
        table = load_output_table(p, mode="feature")
        assert table.values.tolist() == [[float(c) for c in cells]]

    @pytest.mark.parametrize("text, mode, error, message", [
        ("0.5,0.5\n0.5,oops\n0.2,0.3,0.5\n", "probability", ParseError,
         "line 2: could not convert string to float: 'oops'"),
        ("0.5,0.5\n0.2,0.3,0.5\n0.5,oops\n", "probability", RaggedTable,
         "line 2 has 3 columns, expected 2"),
        # line 3 is further off 1, and line 3 is the smaller vector
        ("0.5,0.5\n0.5,0.6\n0.5,0.9\n", "probability", NotNormalized, "line 2 sums to 1.1$"),
        ("1.0,2.0\n1e-13,0\n0,0\n", "feature", ZeroFeature, "line 2 is a zero"),
    ], ids=["parse-error-first", "ragged-first", "not-normalized-first", "zero-feature-first"])
    def test_first_bad_line_is_named(self, tmp_path, text, mode, error, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(error, match=message):
            load_output_table(p, mode)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.5\n0.2,0.3,0.5\n")
        with pytest.raises(RaggedTable, match="line 2"):
            load_output_table(p)

    def test_parse_error_with_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.5\n0.5,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_output_table(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_output_table(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(EmptyBatch):
            load_output_table(p)

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("9.999e-01,1e-04\n")
        table = load_output_table(p)
        assert table.values[0, 1] == pytest.approx(1e-4, rel=1e-10)

    def test_feature_mode_zero_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n0.0,0.0\n")
        with pytest.raises(ZeroFeature, match="line 2"):
            load_output_table(p, mode="feature")

    def test_feature_mode_accepts_any_scale(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("10.0,-3.0,4.5\n-0.01,0.02,0.0\n")
        table = load_output_table(p, mode="feature")
        assert table.n == 2

    def test_determinism(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.25,0.75\n0.5,0.5\n")
        a = load_output_table(p)
        b = load_output_table(p)
        np.testing.assert_array_equal(a.values, b.values)


# (file bytes, None when the table is accepted, else its error type and the
# message after "<path>: "), as the row-by-row parser alone gives them
TABLE_CASES = {
    "blank-lines": (b"\n0.25,0.75\n\n\n0.5,0.5\n\n", None),
    "whitespace-only-line": (b"0.25,0.75\n   \n0.5,0.5\n", None),
    "tab-only-line": (b"0.25,0.75\n\t\n0.5,0.5\n", None),
    "form-feed-line": (b"0.25,0.75\n\x0c\n0.5,0.5\n", None),
    "crlf": (b"\r\n0.25,0.75\r\n\r\n0.5,0.5\r\n", None),
    "cr-only": (b"0.25,0.75\r\r0.5,0.5\r", None),
    "tabs-around-cells": (b"\t0.25\t,\t0.75\t\n0.5,0.5\n", None),
    "spaces-around-cells": (b" 0.25 , 0.75 \n0.5,0.5\n", None),
    "nbsp": (" 0.25,0.75\xa0\n0.5,0.5\n".encode(), None),
    "underscore": (b"0.2_5,0.75\n0.5,0.5\n", None),
    "arabic-indic-digits": ("٠.٢٥,0.75\n0.5,0.5\n".encode(), None),
    "one-row": (b"0.25,0.75\n", None),
    "one-column": (b"1.0\n1.0\n1.0\n", None),
    "no-final-newline": (b"0.25,0.75\n0.5,0.5", None),
    "float-forms": (b"+.25,7.5E-1\n1e-320,0000.999999999999999999999999\n", None),
    "bom": (b"\xef\xbb\xbf0.25,0.75\n0.5,0.5\n",
            (ParseError, "line 1: could not convert string to float: '\\ufeff0.25'")),
    "hash-line": (b"0.25,0.75\n#0.5,0.5\n",
                  (ParseError, "line 2: could not convert string to float: '#0.5'")),
    "hash-after": (b"0.25,0.75 # note\n",
                   (ParseError, "line 1: could not convert string to float: '0.75 # note'")),
    "quotes": (b'"0.25","0.75"\n',
               (ParseError, "line 1: could not convert string to float: '\"0.25\"'")),
    "hex": (b"0x1p-2,0.75\n", (ParseError, "line 1: could not convert string to float: '0x1p-2'")),
    "empty-cell": (b"0.5,0.5,0.0\n0.25,,0.75\n",
                   (ParseError, "line 2: could not convert string to float: ''")),
    "comma-only": (b",\n", (ParseError, "line 1: could not convert string to float: ''")),
    "trailing-comma": (b"0.25,0.75,\n0.5,0.5,\n",
                       (ParseError, "line 1: could not convert string to float: ''")),
    "non-utf8": (b"0.25,0.75\n0.5,0.5\xff\n",
                 (ParseError, "'utf-8' codec can't decode byte 0xff in position 17: "
                              "invalid start byte")),
    "nan": (b"0.25,0.75\nnan,0.5\n", (ParseError, "line 2: non-finite value nan")),
    "inf": (b"\n0.25,0.75\n0.5,-inf\n", (ParseError, "line 3: non-finite value -inf")),
    "1e500": (b"0.25,0.75\n1e500,0.5\n", (ParseError, "line 2: non-finite value inf")),
    "infinity": (b"Infinity,0.5\n", (ParseError, "line 1: non-finite value inf")),
    "nan-payload": (b"nan(1),0.5\n",
                    (ParseError, "line 1: could not convert string to float: 'nan(1)'")),
    "nul": (b"0.5\x00,0.5\n",
            (ParseError, "line 1: could not convert string to float: '0.5\\x00'")),
    "u2028": ("0.25,0.75 0.5,0.5\n".encode(),
              (ParseError, "line 1: could not convert string to float: '0.75\\u20280.5'")),
    "ragged": (b"0.25,0.75\n0.2,0.3,0.5\n", (RaggedTable, "line 2 has 3 columns, expected 2")),
    "empty-file": (b"", (EmptyBatch, "no rows")),
    "blank-only-file": (b"\n  \r\n\t\n", (EmptyBatch, "no rows")),
}


class TestParserAgreement:
    """Every table parses as the row-by-row parser alone did: an accepted one
    is float() of each cell of each non-blank line, which ``_where`` names, and
    a rejected one raises the same error with the same message. Under the
    pytest filter, a warning that np.loadtxt let out (it warns on a file with
    no data) would fail the empty cases."""

    @pytest.mark.parametrize("data, expected", TABLE_CASES.values(), ids=TABLE_CASES.keys())
    def test_table(self, tmp_path, data, expected):
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        if expected is not None:
            error, message = expected
            with pytest.raises(error) as info:
                load_output_table(p, mode="feature")
            assert str(info.value) == f"{p}: {message}"
            return
        with p.open(encoding="utf-8") as fh:
            rows = [(i, line.split(",")) for i, line in enumerate(fh, start=1) if line.strip()]
        values = io._parse_rows(p)
        assert values.tolist() == [[float(cell) for cell in cells] for _, cells in rows]
        assert [io._where(p, k) for k in range(len(rows))] == [f"{p}: line {i}" for i, _ in rows]

    def test_compressed_sibling_is_not_read(self, tmp_path):
        # np.loadtxt given a path would open t.csv.gz for a missing t.csv
        with gzip.open(tmp_path / "t.csv.gz", "wt") as fh:
            fh.write("0.25,0.75\n")
        with pytest.raises(ParseError, match="No such file"):
            load_output_table(tmp_path / "t.csv")

    def test_desk_table_peak(self, tmp_path):
        # the row-by-row path peaks at about 15x the array: a Python string per cell
        path = write_suite(make_suite(18, 1, 10, 2000, 1, [0.7]), tmp_path)["train"][0]
        peak = traced_peak(lambda: load_output_table(path))
        assert peak <= 3 * 2000 * 10 * 8

    def test_refused_desk_table_peak(self, tmp_path):
        # a whitespace-only line sends the table to the Python pass, which
        # holds the stripped lines and one row's cells at a time, not every cell
        path = write_suite(make_suite(18, 1, 10, 2000, 1, [0.7]), tmp_path)["train"][0]
        lines = path.read_text().splitlines(keepends=True)
        refused = tmp_path / "refused.csv"
        refused.write_text("".join([*lines[:1000], "  \n", *lines[1000:]]))
        with pytest.raises(ValueError):
            with refused.open() as fh:
                np.loadtxt(fh, delimiter=",", comments=None)
        assert io._parse_rows(refused).tobytes() == io._parse_rows(path).tobytes()
        peak = traced_peak(lambda: load_output_table(refused))
        assert peak <= 6 * 2000 * 10 * 8


class TestLabels:
    def test_valid(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("0\n2\n1\n")
        np.testing.assert_array_equal(load_labels(p, 3), [0, 2, 1])

    def test_crlf(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_bytes(b"0\r\n1\r\n")
        np.testing.assert_array_equal(load_labels(p, 2), [0, 1])

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("3\n")
        with pytest.raises(LabelOutOfRange):
            load_labels(p, 3)

    def test_empty(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("")
        with pytest.raises(EmptyBatch):
            load_labels(p, 3)

    def test_not_an_integer(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("1.5\n")
        with pytest.raises(ParseError):
            load_labels(p, 3)


class TestAlignment:
    def test_ragged_ensemble(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.5,0.5\n0.5,0.5\n")
        b.write_text("0.5,0.5\n")
        with pytest.raises(RaggedEnsemble, match=f"^{b} has 1 rows, {a} has 2$"):
            load_split([a, b])

    def test_label_count_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0.5,0.5\n0.5,0.5\n")
        features, _ = load_split([a])
        with pytest.raises(DimensionMismatch, match="^1 labels for 2 samples$"):
            LabeledBatch(features, np.asarray([0]))


class TestEmbedding:
    def test_probability_rows(self):
        rows = np.asarray([[0.25, 0.75], [0.5, 0.5]])
        embedded = embed_probability_rows(rows)
        np.testing.assert_allclose(np.linalg.norm(embedded, axis=1), 1.0, atol=1e-15)

    def test_feature_rows_canonical(self):
        rows = np.asarray([[-2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        embedded = embed_feature_rows(rows)
        np.testing.assert_allclose(np.linalg.norm(embedded, axis=1), 1.0, atol=1e-15)
        assert embedded[0, 0] > 0
        assert embedded[1, 1] > 0


class TestLoadSplit:
    def test_iter_split_reads_each_table_when_asked(self, tmp_path):
        a, b, missing = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "missing.csv"
        a.write_text("0.25,0.75\n0.5,0.5\n")
        b.write_text("1.0,0.0\n")
        tables = iter_split([a, missing])
        assert next(tables).values.tobytes() == np.sqrt([[0.25, 0.75], [0.5, 0.5]]).tobytes()
        with pytest.raises(ParseError, match="missing.csv"):
            next(tables)
        tables = iter_split([a, b, missing])
        next(tables)
        with pytest.raises(RaggedEnsemble, match=f"^{b} has 1 rows, {a} has 2$"):
            next(tables)

    @pytest.mark.parametrize("space, text, embed", [
        ("sphere", "0.25,0.75\n\n0.5,0.5\n1.0,0.0\n", embed_probability_rows),
        ("grassmann", "-2.0,0.0\n0.0,3.0\n\n1.0,-1.0\n", embed_feature_rows),
    ], ids=["sphere", "grassmann"])
    def test_features_are_the_table_buffers(self, tmp_path, space, text, embed):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            p.write_text(text)
        features, tables = load_split(paths, space)
        mode = "probability" if space == "sphere" else "feature"
        for i, p in enumerate(paths):
            assert np.shares_memory(features[i], tables[i].values)
            assert (tables[i].n, tables[i].d) == (3, 2)
            expected = embed(load_output_table(p, mode).values)
            assert features[i].tobytes() == expected.tobytes()


def small_fitted_model(rng, m=2, c=3, n=60, kind="parametric", space="sphere"):
    labels = rng.integers(0, c, n)
    feats = []
    for i in range(m):
        if space == "grassmann":
            d = c + 1 + i
            centers = rng.standard_normal((c, d))
            feats.append(embed_feature_rows(centers[labels] + 0.5 * rng.standard_normal((n, d))))
            continue
        logits = np.eye(c)[labels] / 0.7 + 0.7 * rng.standard_normal((n, c))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        feats.append(np.sqrt(e / e.sum(axis=1, keepdims=True)))
    batch = LabeledBatch(feats, labels, space)
    return fit_ensemble(batch, c, kind), batch


def old_document(model, schema: int) -> bytes:
    """The model as schema 1 (indented JSON, each array a nested decimal list)
    or schema 2 (one JSON line, each array a base64 blob) wrote it."""
    def array(a):
        a = np.ascontiguousarray(a, dtype="<f8")
        return a.tolist() if schema == 1 else {
            "shape": list(a.shape), "f8": base64.b64encode(a).decode("ascii")}
    doc = dict(io._document(model), schema_version=schema)
    return (json.dumps(doc, default=array, indent=1 if schema == 1 else None) + "\n").encode()


@dataclass
class Blob:
    """A schema-3 array as the helpers below hold it: its header shape and
    its share of the body, either of which a test may damage."""
    shape: list
    body: bytes


def parse_model(data: bytes) -> dict:
    """The header document of the schema-3 model file ``data``, each array a
    Blob holding its share of the body."""
    header, _, body = data.partition(b"\n")
    end = 0

    def hook(obj):
        nonlocal end
        if "shape" not in obj:
            return obj
        n = 8 * math.prod(obj["shape"])
        end += n
        return Blob(obj["shape"], body[end - n:end])

    doc = json.loads(header, object_hook=hook)
    assert end == len(body)
    return doc


def model_file(doc) -> bytes:
    """The model file of a ``parse_model`` document: its header line, then
    each Blob's body in header order."""
    bodies = []

    def shape(b):
        bodies.append(b.body)
        return {"shape": b.shape}

    return (json.dumps(doc, default=shape) + "\n").encode("utf-8") + b"".join(bodies)


def model_header(path) -> dict:
    """The header document of the model file at ``path``: its first line."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def density_arrays(model):
    for row in model.densities:
        for d in row:
            if model.kind == "kde":
                yield d.support.points
            else:
                yield d.support.points[0]


def assert_same_model(a, b):
    assert (a.kind, a.space, a.m, a.c) == (b.kind, b.space, b.m, b.c)
    np.testing.assert_array_equal(a.weights.alpha_tilde, b.weights.alpha_tilde)
    assert a.fit_meta == b.fit_meta
    for x, y in zip(density_arrays(a), density_arrays(b)):
        np.testing.assert_array_equal(x, y)
    for row_a, row_b in zip(a.densities, b.densities):
        for da, db in zip(row_a, row_b):
            assert da.normalizer == db.normalizer


# how an array blob is damaged -> what the loader says
BLOB_DAMAGE = {
    "truncated": "model body ends early",
    "wrong shape": "model body runs past its last array",
}


def corrupt_blob(model, locate, how: str) -> bytes:
    """The model file of ``model`` with the array blob that ``locate(doc)``
    picks damaged ``how`` (a key of BLOB_DAMAGE)."""
    doc = parse_model(save_model(model))
    if how == "truncated":  # the body ends 4 bytes before the header's arrays do
        locate(doc).body = locate(doc).body[:-4]
    else:  # wrong shape: one element fewer than the body holds
        locate(doc).shape = [locate(doc).shape[0] - 1] + locate(doc).shape[1:]
    return model_file(doc)


def poison_blob(blob: Blob):
    """Set the first value of a blob's array (of a KDE support, its first row) to NaN."""
    values = np.frombuffer(blob.body, dtype="<f8").copy()
    values[0] = np.nan
    blob.body = values.tobytes()


def damage_cell(data: bytes, field: str, damage) -> bytes:
    """The schema-3 model file ``data`` with the ``field`` of cell (1, 2)
    replaced by ``damage(old Blob or value)``: a Blob, with the body it
    brings, or JSON text spliced into the header, so that a number JSON reads
    as inf (1e400) or a subnormal (1e-320) reaches the loader as such."""
    doc = parse_model(data)
    cell = doc["densities"][1][2]
    replacement = damage(cell[field])
    if isinstance(replacement, Blob):
        cell[field] = replacement
        return model_file(doc)
    cell[field] = "@damaged@"
    return model_file(doc).replace(b'"@damaged@"', replacement.encode("utf-8"), 1)


# (kind, space, field, damage): model cells that no fit writes
CELL_DAMAGE = {
    "sigma-1e400": ("parametric", "sphere", "sigma", lambda old: "1e400"),
    "sigma-1e-320": ("parametric", "sphere", "sigma", lambda old: "1e-320"),
    # the cell's rows leave the body with it, so the body still fits the header
    "empty-support": ("kde", "sphere", "support", lambda old: Blob([0, old.shape[1]], b"")),
    "zero-grassmann-mu": ("parametric", "grassmann", "mu",
                          lambda old: Blob(old.shape, bytes(len(old.body)))),
}


class TestModelRoundTrip:
    def test_descent_diagnostics_survive(self):
        model, _ = small_fitted_model(np.random.default_rng(2), m=3)
        clone = load_model(save_model(model))
        for key in ("stop_reason", "grad_norm", "uniform_loss", "effective_networks"):
            assert key in model.fit_meta
            assert clone.fit_meta[key] == model.fit_meta[key]
        assert clone.fit_meta["stop_reason"] in ("tol", "max_iters")

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_fields_bit_exact(self, kind):
        model, _ = small_fitted_model(np.random.default_rng(1), kind=kind)
        clone = load_model(save_model(model))
        assert clone.kind == model.kind and clone.space == model.space
        assert clone.m == model.m and clone.c == model.c
        np.testing.assert_array_equal(clone.weights.alpha, model.weights.alpha)
        np.testing.assert_array_equal(clone.weights.alpha_tilde, model.weights.alpha_tilde)
        assert clone.fit_meta == model.fit_meta
        for row_a, row_b in zip(model.densities, clone.densities):
            for a, b in zip(row_a, row_b):
                if kind == "parametric":
                    np.testing.assert_array_equal(a.support.points[0], b.support.points[0])
                else:
                    np.testing.assert_array_equal(a.support.points, b.support.points)
                assert a.bandwidth == b.bandwidth
                assert a.normalizer == b.normalizer

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_file_bytes_equal_save_model(self, kind, tmp_path):
        # the file is written one array at a time; save_model joins them
        path = tmp_path / "model.json"
        path.write_text("an older model")
        for space in ("sphere", "grassmann"):
            model, _ = small_fitted_model(np.random.default_rng(5), kind=kind, space=space)
            save_model_file(model, path)
            assert path.read_bytes() == save_model(model)
            assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_identical_predictions_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        model, batch = small_fitted_model(rng, n=100)
        path = tmp_path / "model.json"
        save_model_file(model, path)
        clone = load_model_file(path)
        np.testing.assert_array_equal(
            predict_batch(model, batch.features), predict_batch(clone, batch.features)
        )

    def test_large_grid_roundtrip(self):
        # m = 20 networks, c = 100 classes, direct construction
        rng = np.random.default_rng(3)
        m, c = 20, 100
        grid = [
            [GaussianDensity(mu=SpherePoint(oracles.positive_quadrant_point(rng, c)),
                             sigma=float(rng.uniform(0.05, 1.0)),
                             normalizer=float(rng.uniform(0.01, 1.0)))
             for _ in range(c)]
            for _ in range(m)
        ]
        at = np.abs(rng.standard_normal(m)) + 0.01
        model = EnsembleModel(kind="parametric", space="sphere", m=m, c=c,
                              densities=grid, weights=MixtureWeights(at / np.linalg.norm(at)),
                              fit_meta={"eta": 0.1, "iterations_run": 0,
                                        "final_loss": 0.5, "seed": 3})
        clone = load_model(save_model(model))
        for row_a, row_b in zip(model.densities, clone.densities):
            for a, b in zip(row_a, row_b):
                np.testing.assert_array_equal(a.support.points[0], b.support.points[0])
                assert a.bandwidth == b.bandwidth and a.normalizer == b.normalizer

    def test_truncated_file(self, tmp_path):
        model, _ = small_fitted_model(np.random.default_rng(4))
        blob = save_model(model)
        with pytest.raises(CorruptModel):
            load_model(blob[: len(blob) // 2])

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            load_model(b'{"schema_version": 99}')

    def test_missing_schema_version(self):
        with pytest.raises(SchemaMismatch):
            load_model(b'{"kind": "parametric"}')

    def test_not_json(self, tmp_path):
        with pytest.raises(CorruptModel):
            load_model(b"\x00\xff garbage")
        (tmp_path / "m.json").write_bytes(b"\x00\xff garbage")
        with pytest.raises(CorruptModel, match="unreadable model file"):
            load_model_file(tmp_path / "m.json")

    def test_missing_fields(self):
        with pytest.raises(CorruptModel):
            load_model(b'{"schema_version": 3, "kind": "parametric"}')

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptModel):
            load_model_file(tmp_path / "absent.json")

    def test_unreadable_path_names_it(self, tmp_path):
        with pytest.raises(CorruptModel, match=re.escape(f"{tmp_path}: cannot read: ")):
            load_model_file(tmp_path)

    def test_pipe_loads(self):
        # a pipe has no size to check the body against, and cannot tell or seek
        model, _ = small_fitted_model(np.random.default_rng(4))
        r, w = os.pipe()
        with os.fdopen(w, "wb") as fh:
            fh.write(save_model(model))  # a few KB: the pipe's buffer holds them
        try:
            assert_same_model(load_model_file(f"/dev/fd/{r}"), model)
        finally:
            os.close(r)


class TestModelFileWrite:
    def test_default_hook_rejects_non_array(self, tmp_path):
        # a numpy integer in fit_meta is an error, not a blob
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            io._shape(np.int64(3), [])
        model, _ = small_fitted_model(np.random.default_rng(5))
        model.fit_meta["iterations_run"] = np.int64(model.fit_meta["iterations_run"])
        with pytest.raises(TypeError):
            save_model(model)
        with pytest.raises(TypeError):
            save_model_file(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fail_at", [1, 2, 5])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, fail_at):
        model, _ = small_fitted_model(np.random.default_rng(5), m=3, kind="kde")
        path = tmp_path / "model.json"
        save_model_file(model, path)
        before = path.read_bytes()
        calls = []
        shape = io._shape

        def failing(a, body):
            calls.append(a)
            if len(calls) == fail_at:
                raise RuntimeError("encoder failed")
            return shape(a, body)

        monkeypatch.setattr(io, "_shape", failing)
        with pytest.raises(RuntimeError, match="encoder failed"):
            save_model_file(model, path)
        assert len(calls) == fail_at
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("target", ["a directory", "under a file"])
    def test_unwritable_path_is_invalid_config(self, tmp_path, target):
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        path = tmp_path / "d" if target == "a directory" else tmp_path / "f" / "m.json"
        with pytest.raises(InvalidConfig, match=re.escape(f"{path}: cannot write: ")):
            with output_file(path) as fh:
                fh.write("x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f"]
        assert list((tmp_path / "d").iterdir()) == []


def traced_peak(fn) -> int:
    """Peak bytes allocated through Python and numpy while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestModelFileMemory:
    """A save holds the header line and no copy of the arrays, and a load
    holds the header line and one network's arrays, which it checks and
    drops before it reads the next: the body is never held as bytes or
    text, nor whole as arrays."""

    @pytest.fixture(scope="class")
    def kde_file(self, tmp_path_factory):
        model, _ = small_fitted_model(np.random.default_rng(10), m=10, c=10, n=1000, kind="kde")
        path = tmp_path_factory.mktemp("model") / "kde.json"
        save_model_file(model, path)
        assert path.stat().st_size >= 200_000
        return model, path

    def test_save_peak(self, kde_file):
        model, path = kde_file
        peak = traced_peak(lambda: save_model_file(model, path))
        assert peak <= 0.1 * path.stat().st_size

    def test_load_peak(self, kde_file):
        model, path = kde_file
        peak = traced_peak(lambda: load_model_file(path))
        # one network's supports are a tenth of this body; a load that kept
        # every array measured 1.07x the file
        assert peak <= 0.3 * path.stat().st_size
        assert_same_model(load_model_file(path), model)


def open_fds():
    """The number of this process's open file descriptors, or None where
    the system does not list them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestHeldModelFile:
    """A loaded model keeps its file open and reads each network's cells
    from it when its grid is indexed: the load reads and checks every row
    once, and each later index reads its row again."""

    @pytest.fixture
    def kde_path(self, tmp_path):
        model, batch = small_fitted_model(np.random.default_rng(12), m=3, kind="kde")
        path = tmp_path / "model.json"
        save_model_file(model, path)
        return model, batch, path

    def test_each_row_read_at_load_and_when_indexed(self, kde_path, monkeypatch):
        model, batch, path = kde_path
        reads = []
        read_row = io.LoadedGrid.read_row
        monkeypatch.setattr(io.LoadedGrid, "read_row",
                            lambda grid, i: reads.append(i) or read_row(grid, i))
        loaded = load_model_file(path)
        assert reads == [0, 1, 2]
        assert loaded.network_dims() == [3, 3, 3] and len(loaded.densities) == 3
        assert reads == [0, 1, 2]
        pdf_grid(loaded.densities, batch.features)
        assert reads == [0, 1, 2, 0, 1, 2]
        assert loaded.densities[-1][0].bandwidth == model.densities[2][0].bandwidth
        assert reads == [0, 1, 2, 0, 1, 2, 2]
        with pytest.raises(IndexError):
            loaded.densities[3]
        assert len(list(loaded.densities)) == 3

    def test_replaced_file_is_not_read(self, kde_path):
        model, batch, path = kde_path
        loaded = load_model_file(path)
        other, _ = small_fitted_model(np.random.default_rng(13), m=3, kind="kde")
        save_model_file(other, path)  # output_file replaces the path
        assert path.read_bytes() == save_model(other)
        np.testing.assert_array_equal(ensemble_probability_batch(loaded, batch.features),
                                      ensemble_probability_batch(model, batch.features))

    def test_file_cut_after_load(self, kde_path):
        # a short read is a CorruptModel naming the file, never a short support
        model, batch, path = kde_path
        loaded = load_model_file(path)
        os.truncate(path, path.stat().st_size - 8)
        last = model.densities[2][2].support.points.nbytes  # the body's last array
        with pytest.raises(CorruptModel, match=r"^model body ends early: shape \[") as info:
            predict_batch(loaded, batch.features)
        assert str(info.value).endswith(f", {last - 8} of its {last} bytes read (in {path})")

    def test_cell_damaged_after_load(self, kde_path):
        # each row is checked again as it is read: here the last support's last value
        _, batch, path = kde_path
        loaded = load_model_file(path)
        with open(path, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(np.array([np.nan], "<f8").tobytes())
        with pytest.raises(CorruptModel) as info:
            predict_batch(loaded, batch.features)
        assert str(info.value) == (
            "model file is missing or corrupts required fields: network 2, class 2: "
            f"non-finite sample: network 2, class 2 (in {path})")

    def test_dropped_models_close_their_files(self, kde_path):
        _, batch, path = kde_path
        short = path.with_name("short.json")
        short.write_bytes(path.read_bytes()[:-8])
        gc.collect()  # what earlier tests left
        before = open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(20):
                loaded = load_model_file(path)
                if before is not None:
                    assert open_fds() == before + 1
                predict_batch(loaded, batch.features)
                del loaded
                with pytest.raises(CorruptModel) as info:
                    load_model_file(short)
                if before is not None:  # closed at once, though its error is held
                    assert open_fds() == before, info.value
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert open_fds() == before


class TestArrayStorage:
    """Array storage: the schema-3 header holds each array's shape and the
    body its bytes, and a damaged or non-finite array is a CorruptModel."""

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_arrays_are_blobs(self, kind):
        # the header line holds each array's shape, the body its bytes in header order
        model, _ = small_fitted_model(np.random.default_rng(6), kind=kind)
        header, body = save_model(model).split(b"\n", 1)
        doc = json.loads(header.decode("utf-8"))
        assert doc["schema_version"] == 3
        assert doc["alpha"] == model.weights.alpha.tolist()
        key = "support" if kind == "kde" else "mu"
        blobs = [doc["alpha_tilde"]] + [cell[key] for row in doc["densities"] for cell in row]
        arrays = [model.weights.alpha_tilde] + list(density_arrays(model))
        assert blobs == [{"shape": list(a.shape)} for a in arrays]
        assert body == b"".join(a.astype("<f8").tobytes() for a in arrays)

    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    @pytest.mark.parametrize("schema", [1, 2])
    def test_old_schema_is_refused(self, schema, kind, space, tmp_path):
        # a schema-1 header spans many lines, its first a brace alone, so it
        # is not JSON on its own; a schema-2 header is, and names its version.
        # Either must be refit
        model, _ = small_fitted_model(np.random.default_rng(7), kind=kind, space=space)
        path = tmp_path / f"v{schema}.json"
        path.write_bytes(old_document(model, schema))
        with pytest.raises(SchemaMismatch) as info:
            load_model_file(path)
        assert str(info.value).endswith(f" (in {path})")
        assert str(info.value).startswith(f"model schema_version {schema}, supported: 3; refit")

    @pytest.mark.parametrize("field", ["alpha_tilde", "mu"])
    @pytest.mark.parametrize("how", BLOB_DAMAGE)
    def test_damaged_blob_is_corrupt(self, how, field):
        model, _ = small_fitted_model(np.random.default_rng(8))
        data = corrupt_blob(model, lambda doc: doc["alpha_tilde"] if field == "alpha_tilde"
                            else doc["densities"][0][0]["mu"], how)
        with pytest.raises(CorruptModel, match=BLOB_DAMAGE[how]):
            load_model(data)

    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    @pytest.mark.parametrize("field", ["alpha_tilde", "support", "mu"])
    def test_non_finite_array_is_corrupt(self, field, space):
        # a NaN norm passed the unit-vector check, and a NaN support row loaded
        kind = "kde" if field == "support" else "parametric"
        model, _ = small_fitted_model(np.random.default_rng(9), kind=kind, space=space)
        doc = parse_model(save_model(model))
        poison_blob(doc[field] if field == "alpha_tilde" else doc["densities"][1][0][field])
        with pytest.raises(CorruptModel, match="finite"):
            load_model(model_file(doc))

    def test_desk_kde_model_round_trips_bit_exact(self, desk_suite, fitted_models):
        model = fitted_models["kde"]["model"]
        clone = load_model(save_model(model))
        assert_same_model(clone, model)
        for row_a, row_b in zip(model.densities, clone.densities):
            for a, b in zip(row_a, row_b):
                assert a.bandwidth == b.bandwidth
        features = desk_suite["test"].features
        np.testing.assert_array_equal(predict_batch(clone, features), predict_batch(model, features))


def reshaped(rows):
    """A damage that sets the header shape of cell (1, 2)'s support to
    ``rows(old rows)`` rows and leaves the body as it is."""
    def damage(data):
        doc = parse_model(data)
        blob = doc["densities"][1][2]["support"]
        blob.shape = [rows(blob.shape[0]), blob.shape[1]]
        return model_file(doc)
    return damage


# damage to a KDE model file -> what the loader says
BODY_DAMAGE = {
    "truncated body": (lambda data: data[:-8], "model body ends early: shape "),
    "one trailing byte": (lambda data: data + b"\0", "model body runs past its last array"),
    "shape too large": (reshaped(lambda n: n + 1), "model body ends early: shape "),
    "shape too small": (reshaped(lambda n: n - 1), "model body runs past its last array"),
    "negative shape": (reshaped(lambda n: -1), re.escape("array shape [-1, 3] is not a list")),
    "1e12 rows": (reshaped(lambda n: 10**12),
                  re.escape("model body ends early: shape [1000000000000, 3] at byte ")),
}


class TestModelBody:
    """A body that does not fit its header is a CorruptModel naming the file.
    Each array's shape is checked against the bytes left in the file before
    the array is allocated or read, so a header claiming 10^12 rows raises no
    MemoryError."""

    @pytest.mark.parametrize("damage, message", BODY_DAMAGE.values(), ids=BODY_DAMAGE.keys())
    def test_bad_body_names_the_file(self, tmp_path, damage, message):
        model, _ = small_fitted_model(np.random.default_rng(11), kind="kde")
        path = tmp_path / "model.json"
        path.write_bytes(damage(save_model(model)))
        with pytest.raises(CorruptModel, match=message) as info:
            load_model_file(path)
        assert str(info.value).endswith(f" (in {path})")


class TestDamagedCells:
    """Each damaged cell is a CorruptModel. Before, a width that JSON read as
    inf loaded and scored, 1e-320 loaded and divided by zero on scoring, and
    an empty support and a zero Grassmann mu raised data errors (exit 3)."""

    @pytest.mark.parametrize("damage", CELL_DAMAGE.values(), ids=CELL_DAMAGE.keys())
    def test_damaged_cell_is_corrupt(self, damage):
        kind, space, field, damage = damage
        model, _ = small_fitted_model(np.random.default_rng(10), m=2, c=3, kind=kind,
                                      space=space)
        with pytest.raises(CorruptModel, match="^model file is missing or corrupts"):
            load_model(damage_cell(save_model(model), field, damage))

    @pytest.mark.parametrize("damage, message", [
        ("sigma-1e400", "width inf must be positive, and 2 width^2 and its inverse finite"),
        ("zero-grassmann-mu", "cannot span a line with a (near-)zero vector"),
    ])
    def test_error_names_file_network_and_class(self, tmp_path, damage, message):
        kind, space, field, damage = CELL_DAMAGE[damage]
        model, _ = small_fitted_model(np.random.default_rng(10), m=2, c=3, kind=kind,
                                      space=space)
        path = tmp_path / "model.json"
        path.write_bytes(damage_cell(save_model(model), field, damage))
        with pytest.raises(CorruptModel) as info:
            load_model_file(path)
        assert str(info.value) == ("model file is missing or corrupts required fields: "
                                   f"network 1, class 2: {message} (in {path})")

    @pytest.mark.parametrize("width", [0.0, -0.1, math.inf, math.nan, 1e-320, 1e-160, 1e200])
    def test_width_must_have_a_finite_kernel(self, width):
        support = SampleSet(np.asarray([[0.6, 0.8]]))
        with pytest.raises(ValueError, match=r"^width \S+ must be positive, and 2 width\^2"):
            KernelDensity(support, width, 1.0)
        with pytest.raises(ValueError, match=r"^width \S+ must be positive, and 2 width\^2"):
            GaussianDensity(SpherePoint([0.6, 0.8]), width, 1.0)

