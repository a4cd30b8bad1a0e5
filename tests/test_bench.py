"""bench/layers.py at tiny sizes: it runs, and its report has the keys a
committed BENCH_train_step.json has."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_step_bench_reports_every_configuration(tmp_path, monkeypatch):
    # the script pins one BLAS thread and puts src/ on the path as it is
    # imported; both are undone after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main([
            "--lengths", "1", "2", "--batch", "4", "--hidden", "8", "--repeats", "3", "--block", "2", "--out", str(out),
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    assert set(report) == {"bench", "environment", "shape", "repeats", "results"}
    assert report["shape"]["B"] == 4 and report["shape"]["H"] == 8
    assert [(row["processes"], row["T"]) for row in report["results"]] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    for row in report["results"]:
        assert row["steps"] == 3
        assert set(row) == {"processes", "T", "steps", "pipelined", "step_ms", "blocked_ms", "gap_ms"}
        for key in ("step_ms", "blocked_ms", "gap_ms"):
            assert set(row[key]) == {"median", "q1", "q3"}
        assert row["step_ms"]["q1"] <= row["step_ms"]["median"] <= row["step_ms"]["q3"]
