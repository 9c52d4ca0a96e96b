import base64
import json

import numpy as np
import pytest

import oracles
from spheremix.density import GaussianDensity
from spheremix.ensemble import EnsembleModel, LabeledBatch, MixtureWeights, fit_ensemble, predict_batch
from spheremix.errors import (
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
from spheremix.io import (
    check_alignment,
    embed_feature_rows,
    embed_probability_rows,
    load_labels,
    load_model,
    load_model_file,
    load_output_table,
    save_model,
    save_model_file,
)
from spheremix.sphere import SpherePoint


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
        ta = load_output_table(a)
        tb = load_output_table(b)
        with pytest.raises(RaggedEnsemble):
            check_alignment([ta, tb])

    def test_label_count_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0.5,0.5\n0.5,0.5\n")
        ta = load_output_table(a)
        with pytest.raises(RaggedEnsemble):
            check_alignment([ta], np.asarray([0]))


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


def v1_document(model) -> bytes:
    """The model as schema 1 wrote it: every array a nested decimal list."""
    def cell(d):
        if model.kind == "parametric":
            vec = d.mu.rep if model.space == "grassmann" else d.mu.coords
            return {"mu": vec.tolist(), "sigma": d.sigma, "normalizer": d.normalizer}
        return {"support": d.support.points.tolist(), "bandwidth": d.bandwidth,
                "normalizer": d.normalizer}
    doc = {
        "schema_version": 1, "kind": model.kind, "space": model.space,
        "m": model.m, "c": model.c,
        "alpha": model.weights.alpha.tolist(),
        "alpha_tilde": model.weights.alpha_tilde.tolist(),
        "fit_meta": model.fit_meta,
        "densities": [[cell(d) for d in row] for row in model.densities],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def density_arrays(model):
    for row in model.densities:
        for d in row:
            if model.kind == "kde":
                yield d.support.points
            else:
                yield d.mu.rep if model.space == "grassmann" else d.mu.coords


def assert_same_model(a, b):
    assert (a.kind, a.space, a.m, a.c) == (b.kind, b.space, b.m, b.c)
    np.testing.assert_array_equal(a.weights.alpha_tilde, b.weights.alpha_tilde)
    assert a.fit_meta == b.fit_meta
    for x, y in zip(density_arrays(a), density_arrays(b)):
        np.testing.assert_array_equal(x, y)
    for row_a, row_b in zip(a.densities, b.densities):
        for da, db in zip(row_a, row_b):
            assert da.normalizer == db.normalizer


def corrupt_blob(blob: dict, how: str):
    if how == "invalid base64":  # a lenient decoder would skip the stray byte and load
        blob["f8"] = "!" + blob["f8"]
    elif how == "truncated":
        blob["f8"] = blob["f8"][:-4]
    else:  # wrong shape
        blob["shape"] = [blob["shape"][0] + 1] + blob["shape"][1:]


BLOB_DAMAGE = ["invalid base64", "truncated", "wrong shape"]


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
                    np.testing.assert_array_equal(a.mu.coords, b.mu.coords)
                    assert a.sigma == b.sigma
                else:
                    np.testing.assert_array_equal(a.support.points, b.support.points)
                    assert a.bandwidth == b.bandwidth
                assert a.normalizer == b.normalizer

    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_file_bytes_equal_save_model(self, kind, tmp_path):
        model, _ = small_fitted_model(np.random.default_rng(5), kind=kind)
        path = tmp_path / "model.json"
        save_model_file(model, path)
        assert path.read_bytes() == save_model(model)

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
                np.testing.assert_array_equal(a.mu.coords, b.mu.coords)
                assert a.sigma == b.sigma and a.normalizer == b.normalizer

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

    def test_not_json(self):
        with pytest.raises(CorruptModel):
            load_model(b"\x00\xff garbage")

    def test_missing_fields(self):
        for version in (1, 2):
            with pytest.raises(CorruptModel):
                load_model(b'{"schema_version": %d, "kind": "parametric"}' % version)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptModel):
            load_model_file(tmp_path / "absent.json")


class TestSchema2:
    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_arrays_are_blobs(self, kind):
        model, _ = small_fitted_model(np.random.default_rng(6), kind=kind)
        text = save_model(model)
        assert text.count(b"\n") == 1  # one line: no indent
        doc = json.loads(text)
        assert doc["schema_version"] == 2
        assert doc["alpha"] == model.weights.alpha.tolist()
        key = "support" if kind == "kde" else "mu"
        blobs = [doc["alpha_tilde"]] + [cell[key] for row in doc["densities"] for cell in row]
        arrays = [model.weights.alpha_tilde] + list(density_arrays(model))
        for blob, array in zip(blobs, arrays):
            assert set(blob) == {"shape", "f8"} and blob["shape"] == list(array.shape)
            assert base64.b64decode(blob["f8"]) == array.astype("<f8").tobytes()

    @pytest.mark.parametrize("space", ["sphere", "grassmann"])
    @pytest.mark.parametrize("kind", ["parametric", "kde"])
    def test_v1_document_still_loads(self, kind, space):
        model, batch = small_fitted_model(np.random.default_rng(7), kind=kind, space=space)
        clone = load_model(v1_document(model))
        assert_same_model(clone, model)
        assert_same_model(clone, load_model(save_model(model)))
        np.testing.assert_array_equal(
            predict_batch(clone, batch.features), predict_batch(model, batch.features)
        )

    @pytest.mark.parametrize("field", ["alpha_tilde", "mu"])
    @pytest.mark.parametrize("how", BLOB_DAMAGE)
    def test_damaged_blob_is_corrupt(self, how, field):
        model, _ = small_fitted_model(np.random.default_rng(8))
        doc = json.loads(save_model(model))
        corrupt_blob(doc["alpha_tilde"] if field == "alpha_tilde" else doc["densities"][0][0]["mu"], how)
        with pytest.raises(CorruptModel):
            load_model(json.dumps(doc).encode("utf-8"))

    def test_desk_kde_model_round_trips_bit_exact(self, desk_suite, fitted_models):
        model = fitted_models["kde"]["model"]
        clone = load_model(save_model(model))
        assert_same_model(clone, model)
        for row_a, row_b in zip(model.densities, clone.densities):
            for a, b in zip(row_a, row_b):
                assert a.bandwidth == b.bandwidth
        features = desk_suite["test"].features
        np.testing.assert_array_equal(predict_batch(clone, features), predict_batch(model, features))
