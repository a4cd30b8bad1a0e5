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


ATTRIBUTION_BENCH = BENCH.parent / "attribution.py"


def test_attribution_bench_reports_every_configuration(tmp_path, monkeypatch):
    # the exact batch on a desk model trained on 40 journeys, and the
    # paper-width input on an 8-unit model; each configuration runs in an
    # interpreter of its own
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_attribution", ATTRIBUTION_BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main([
            "--inputs", "exact", "paper", "--repeats", "2", "--paper-repeats", "1", "--warmup", "0",
            "--train-journeys", "40", "--paper-hidden", "8", "--out", str(out),
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    assert set(report) == {"bench", "environment", "desk_model", "samples", "results"}
    assert [(row["input"], row["workers"]) for row in report["results"]] == [
        ("exact", 1), ("exact", 2), ("paper", 1), ("paper", 2),
    ]
    for row in report["results"]:
        assert set(row) == {
            "input", "workers", "journeys", "H", "calls", "ms_per_call", "windows", "blocks", "node_steps",
            "rss_before_mb", "peak_rss_mb", "child_peak_rss_mb",
        }
        assert set(row["ms_per_call"]) == {"median", "q1", "q3"}
        assert row["ms_per_call"]["q1"] <= row["ms_per_call"]["median"] <= row["ms_per_call"]["q3"]
        assert row["calls"] == (2 if row["input"] == "exact" else 1)
        assert row["windows"] == 1 and row["blocks"] >= row["workers"]
        assert row["peak_rss_mb"] >= row["rss_before_mb"] > 0
        assert (row["child_peak_rss_mb"] is None) == (row["workers"] == 1)
    exact = [row for row in report["results"] if row["input"] == "exact"]
    assert [row["journeys"] for row in exact] == [52, 52]
    assert [row["node_steps"] for row in exact] == [16006, 16006]
    assert [row["H"] for row in report["results"]] == [64, 64, 8, 8]
