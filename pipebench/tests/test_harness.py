"""Smoke tests of the pipeline benchmark at a toy shape (m=3, c=3, 60/30 rows).

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), "--workload", "toy",
         "--seed", "18", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {trace: _result(_run(trace)) for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(results, trace, section):
    result = results[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC[section]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_counts_repeat_across_traced_runs(results):
    again = _result(_run(1))
    for name in COUNT_METRICS:
        assert again["metrics"][name] == results[1]["metrics"][name], name


def _toy_outputs(tmp_path: Path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(*args):
        subprocess.run([sys.executable, "-m", "spheremix.cli", *args], check=True, env=env,
                       capture_output=True, timeout=120)

    data = tmp_path / "data"
    cli("synth", "--outdir", str(data), "--seed", "3", "--m", "3", "--c", "3",
        "--n-train", "60", "--n-test", "30")
    tables = [str(data / f"{{}}_net{i:02d}.csv") for i in range(3)]
    cli("fit", *[a for t in tables for a in ("--train-table", t.format("train"))],
        "--labels", str(data / "train_labels.txt"), "--out", str(tmp_path / "model.json"))
    test_tables = [a for t in tables for a in ("--table", t.format("test"))]
    cli("evaluate", "--model-file", str(tmp_path / "model.json"), *test_tables,
        "--labels", str(data / "test_labels.txt"), "--report", str(tmp_path / "eval.txt"))
    cli("predict", "--model-file", str(tmp_path / "model.json"), *test_tables,
        "--out", str(tmp_path / "predictions.csv"))
    return tmp_path / "predictions.csv", data / "test_labels.txt", tmp_path / "eval.json"


def test_checker_counts_one_failure_for_a_corrupted_row(tmp_path):
    predictions, labels, eval_json = _toy_outputs(tmp_path)
    assert all(ok for _, ok in checks.check_outputs(predictions, labels, eval_json, 3, 30))

    rows = predictions.read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    low = min(range(1, 4), key=lambda j: float(cells[j]))
    cells[low] = repr(float(cells[low]) + 1e-6)  # row no longer sums to 1; argmax unchanged
    rows[0] = ",".join(cells)
    predictions.write_text("\n".join(rows) + "\n", encoding="utf-8")

    failed = [name for name, ok in checks.check_outputs(predictions, labels, eval_json, 3, 30)
              if not ok]
    assert failed == ["predictions.probabilities_normalized"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _entry(path: Path, backend: str = "numpy", failed: int = 0) -> str:
    """A one-workload trajectory entry in which every metric reads 1.0."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    summary = {name: {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 2, "spread": 0.0}
               for name in metrics}
    workload = {"runs": [{"seed": s, "metrics": metrics} for s in (18, 1)],
                "traced": [{"seed": 18}, {"seed": 18}], "summary": summary,
                "counts_repeat": True, "failed": failed, "attempted": 10}
    path.write_text(json.dumps({"env": {"cpu_model": "x", "nproc": 2, "kernel_backend": backend},
                                "workloads": {"toy": workload}}), encoding="utf-8")
    return str(path)


def test_compare_accepts_an_identical_entry(tmp_path):
    assert compare.main([_entry(tmp_path / "a.json"), _entry(tmp_path / "b.json")]) == 0


def test_compare_refuses_results_from_another_backend(tmp_path):
    paths = [_entry(tmp_path / "numpy.json"), _entry(tmp_path / "numba.json", backend="numba")]
    assert compare.main(paths) == 2


def test_compare_refuses_an_entry_with_a_failed_operation(tmp_path):
    paths = [_entry(tmp_path / "base.json"), _entry(tmp_path / "new.json", failed=1)]
    assert compare.main(paths) == 2
