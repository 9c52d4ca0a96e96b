import numpy as np
import pytest

from spheremix.errors import InvalidConfig
from spheremix.synth import make_suite, parse_taus, write_suite


class TestParseTaus:
    def test_single_value(self):
        np.testing.assert_array_equal(parse_taus("0.7", 3), [0.7, 0.7, 0.7])

    def test_range(self):
        np.testing.assert_allclose(parse_taus("0.6:0.8", 3), [0.6, 0.7, 0.8], atol=1e-15)

    def test_list(self):
        np.testing.assert_array_equal(parse_taus("0.5,0.6,0.7", 3), [0.5, 0.6, 0.7])

    def test_wrong_count(self):
        with pytest.raises(InvalidConfig):
            parse_taus("0.5,0.6", 3)

    def test_not_a_number(self):
        with pytest.raises(InvalidConfig):
            parse_taus("abc", 2)

    def test_non_positive(self):
        with pytest.raises(InvalidConfig):
            parse_taus("0.0", 2)

    @pytest.mark.parametrize("text", ["nan", "inf", "0.5:inf", "0.5,nan"])
    def test_non_finite(self, text):
        with pytest.raises(InvalidConfig, match="positive and finite"):
            parse_taus(text, 2)


class TestMakeSuite:
    def test_shapes_and_validity(self):
        suite = make_suite(0, 3, 4, 50, 20, [0.7, 0.8, 0.9])
        assert len(suite["train"]) == 3 and len(suite["test"]) == 3
        for table in suite["train"] + suite["test"]:
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(table > 0.0)
        assert suite["train_labels"].shape == (50,)
        assert suite["test_labels"].shape == (20,)

    def test_noiseless_limit_recovers_labels(self):
        suite = make_suite(1, 2, 5, 100, 40, [0.02, 0.02])
        for table in suite["test"]:
            np.testing.assert_array_equal(np.argmax(table, axis=1), suite["test_labels"])

    def test_chance_limit(self):
        suite = make_suite(2, 1, 5, 4000, 10, [60.0])
        acc = np.mean(np.argmax(suite["train"][0], axis=1) == suite["train_labels"])
        assert abs(acc - 0.2) < 0.05

    def test_determinism_in_memory(self):
        a = make_suite(7, 2, 3, 30, 10, [0.7, 0.8])
        b = make_suite(7, 2, 3, 30, 10, [0.7, 0.8])
        for ta, tb in zip(a["train"], b["train"]):
            np.testing.assert_array_equal(ta, tb)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            make_suite(0, 0, 3, 10, 10, [])
        with pytest.raises(InvalidConfig):
            make_suite(0, 2, 1, 10, 10, [0.7, 0.8])


class TestWriteSuite:
    def test_byte_identical_across_runs(self, tmp_path):
        taus = [0.7, 0.75]
        for d in ("one", "two"):
            write_suite(make_suite(11, 2, 3, 25, 10, taus), tmp_path / d)
        for name in ["train_net00.csv", "test_net01.csv", "train_labels.txt", "test_labels.txt"]:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_cells_are_shortest_float_reprs(self, tmp_path):
        # tau 0.1 puts the off-class probabilities far below 1e-4, in exponent form
        suite = make_suite(13, 2, 4, 30, 10, [0.1, 0.1])
        paths = write_suite(suite, tmp_path)
        for split in ("train", "test"):
            for table, path in zip(suite[split], paths[split]):
                expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
                assert "e-" in expected
                assert path.read_text() == expected

    def test_files_load_back(self, tmp_path):
        from spheremix.io import load_labels, load_output_table

        paths = write_suite(make_suite(12, 2, 3, 25, 10, [0.7, 0.75]), tmp_path)
        table = load_output_table(paths["train"][0])
        assert table.n == 25 and table.d == 3
        labels = load_labels(paths["train_labels"], 3)
        assert labels.shape == (25,)
