"""The bench scripts at tiny sizes: each runs, and its report has the keys
its committed BENCH_*.json has."""

import importlib.util
import json
import os
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
        assert set(row) == {"processes", "T", "steps", "step_ms", "blocked_ms", "gap_ms"}
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


DATA_BENCH = BENCH.parent / "data.py"


def test_data_bench_reports_every_row(tmp_path, monkeypatch):
    # gen at one and two workers, then the reader, over 50 journeys
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("MTA_THREADS", "3")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_data", DATA_BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main(["--journeys", "50", "--repeats", "2", "--warmup", "0", "--out", str(out)])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    assert set(report) == {"bench", "environment", "gen_args", "results"}
    assert [(row["stage"], row["workers"]) for row in report["results"]] == [
        ("gen", 1), ("gen", 2), ("journey_table", 1),
    ]
    for row in report["results"]:
        assert set(row) == {"stage", "workers", "journeys", "calls", "ms_per_1000"}
        assert row["journeys"] == 50 and row["calls"] == 2
        assert row["ms_per_1000"]["q1"] <= row["ms_per_1000"]["median"] <= row["ms_per_1000"]["q3"]
    # the bench restores the caller's MTA_THREADS
    assert os.environ["MTA_THREADS"] == "3"
