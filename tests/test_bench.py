"""The bench scripts at tiny sizes: each runs, and its report has the keys
its committed BENCH_*.json has."""

import importlib.util
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def run_step_bench(tmp_path, monkeypatch, *args) -> dict:
    """The step bench's report at B=4, H=8, T=1..2, 3 steps, with `args`."""
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
            *args,
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    return report


def test_step_bench_reports_every_configuration(tmp_path, monkeypatch):
    report = run_step_bench(tmp_path, monkeypatch)
    assert set(report) == {"bench", "environment", "shape", "repeats", "results"}
    assert report["shape"]["B"] == 4 and report["shape"]["H"] == 8 and report["shape"]["n_layers"] == 2
    assert [(row["processes"], row["T"]) for row in report["results"]] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    for row in report["results"]:
        assert row["steps"] == 3
        assert set(row) == {"processes", "T", "steps", "step_ms", "blocked_ms", "gap_ms"}
        for key in ("step_ms", "blocked_ms", "gap_ms"):
            assert set(row[key]) == {"median", "q1", "q3"}
        assert row["step_ms"]["q1"] <= row["step_ms"]["median"] <= row["step_ms"]["q3"]


def test_step_bench_times_one_layer_on_one_process(tmp_path, monkeypatch):
    # a one-layer model has no helper, so each length has one row
    report = run_step_bench(tmp_path, monkeypatch, "--layers", "1")
    assert report["shape"]["n_layers"] == 1
    assert [(row["processes"], row["T"], row["steps"]) for row in report["results"]] == [(1, 1, 3), (1, 2, 3)]


ATTRIBUTION_BENCH = BENCH.parent / "attribution.py"


def test_attribution_bench_reports_every_configuration(tmp_path, monkeypatch):
    # the exact batch under auto and ols on a desk model trained
    # on 40 journeys, and the paper-width input on an 8-unit model; each
    # configuration runs in an interpreter of its own
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_attribution", ATTRIBUTION_BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main([
            "--inputs", "exact", "exact-ols", "paper", "--repeats", "2", "--paper-repeats", "1", "--warmup", "0",
            "--train-journeys", "40", "--paper-hidden", "8", "--out", str(out),
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    assert set(report) == {"bench", "environment", "desk_model", "samples", "results"}
    assert [(row["input"], row["workers"]) for row in report["results"]] == [
        ("exact", 1), ("exact", 2), ("exact-ols", 1), ("exact-ols", 2), ("paper", 1), ("paper", 2),
    ]
    for row in report["results"]:
        assert set(row) == {
            "input", "workers", "journeys", "H", "calls", "ms_per_call", "windows", "blocks", "node_steps",
            "node_steps_per_s", "rss_before_mb", "peak_rss_mb", "child_peak_rss_mb", "traced_peak_mb",
            "scan_inputs_bytes_per_event",
        }
        assert set(row["ms_per_call"]) == {"median", "q1", "q3"}
        assert row["ms_per_call"]["q1"] <= row["ms_per_call"]["median"] <= row["ms_per_call"]["q3"]
        assert row["node_steps_per_s"] == round(1e3 * row["node_steps"] / row["ms_per_call"]["median"]) > 0
        assert row["calls"] == (1 if row["input"] == "paper" else 2)
        assert row["windows"] == 1 and row["blocks"] >= row["workers"]
        assert row["peak_rss_mb"] >= row["rss_before_mb"] > 0
        assert (row["child_peak_rss_mb"] is None) == (row["workers"] == 1)
    # the two methods play the same powerset games
    exact = [row for row in report["results"] if row["input"] != "paper"]
    assert [row["journeys"] for row in exact] == [52] * 4
    assert [row["node_steps"] for row in exact] == [16006] * 4
    assert [row["H"] for row in report["results"]] == [64] * 4 + [8, 8]


def test_attribution_bench_times_the_attribute_command(tmp_path, monkeypatch):
    # the holdout through `attribute` and through attribute_journeys: the
    # same journeys and counters, at one worker and at two
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_attribution", ATTRIBUTION_BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main([
            "--inputs", "holdout", "holdout-cli", "--repeats", "1", "--warmup", "0", "--train-journeys", "40",
            "--out", str(out),
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    rows = report["results"]
    assert [(row["input"], row["workers"]) for row in rows] == [
        ("holdout", 1), ("holdout", 2), ("holdout-cli", 1), ("holdout-cli", 2),
    ]
    for row in rows:
        assert row["calls"] == 1 and row["journeys"] == 1000 and row["windows"] == 1
        assert row["node_steps_per_s"] > 0
        assert (row["child_peak_rss_mb"] is None) == (row["workers"] == 1)
    assert len({(row["node_steps"], row["H"]) for row in rows}) == 1
    assert rows[2]["blocks"] == rows[0]["blocks"] and rows[3]["blocks"] == rows[1]["blocks"]


def test_attribution_bench_holdout_on_the_paper_width_model(tmp_path, monkeypatch):
    # the holdout on a seeded model of the paper preset's shape, here 8
    # units wide: its scan inputs are held in float32 only, 16 H bytes of
    # layer 0's projection and 4 H per layer of time gates per event
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_attribution", ATTRIBUTION_BENCH)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        report = bench.main([
            "--inputs", "holdout", "holdout-paper", "--repeats", "1", "--paper-repeats", "1", "--warmup", "0",
            "--train-journeys", "40", "--paper-hidden", "8", "--out", str(out),
        ])
    finally:
        del sys.modules[spec.name]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    rows = report["results"]
    assert [(row["input"], row["workers"], row["H"]) for row in rows] == [
        ("holdout", 1, 64), ("holdout", 2, 64), ("holdout-paper", 1, 8), ("holdout-paper", 2, 8),
    ]
    for row in rows:
        assert row["calls"] == 1 and row["journeys"] == 1000 and row["windows"] == 1
        assert row["scan_inputs_bytes_per_event"] == 24 * row["H"]
        assert row["traced_peak_mb"] > 0
    assert rows[2]["node_steps"] == rows[0]["node_steps"]


DATA_BENCH = BENCH.parent / "data.py"


def test_data_bench_reports_every_row(tmp_path, monkeypatch):
    # gen at one and two workers, the reader over all 50 journeys, the
    # two-process reader over the first 45, eval over the last 5 and over
    # three journeys of each length 1-20
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
        ("gen", 1), ("gen", 2), ("journey_table", 1), ("read_table", 1), ("read_table", 2), ("eval", 1), ("eval", 2),
        ("eval_lengths_1_20", 1), ("eval_lengths_1_20", 2),
    ]
    for row in report["results"]:
        assert set(row) == {"stage", "workers", "journeys", "calls", "ms_per_1000"}
        assert row["journeys"] == {"read_table": 45, "eval": 5, "eval_lengths_1_20": 60}.get(row["stage"], 50) and row["calls"] == 2
        assert row["ms_per_1000"]["q1"] <= row["ms_per_1000"]["median"] <= row["ms_per_1000"]["q3"]
    # the bench restores the caller's MTA_THREADS
    assert os.environ["MTA_THREADS"] == "3"
