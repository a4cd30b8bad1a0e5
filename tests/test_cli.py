import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import deepmta.attribution as attribution
import deepmta.cli as cli
from deepmta.cli import main
from deepmta.errors import (
    ConfigError,
    DeepMtaError,
    DimensionError,
    EvaluationError,
    NumericError,
    ParameterError,
    SequenceLengthError,
    TraceError,
    TrainingDivergedError,
    ValidationError,
    VocabularyError,
)
from deepmta.journey import load_journeys
from deepmta.report import load_report_csv


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, parse_kv(captured.out), captured.err


GEN_ARGS = [
    "gen", "--journeys", "300", "--channels", "4", "--campaigns", "2",
    "--max-len", "4", "--key-channel", "0", "--key-lift", "0.5",
    "--base-rate", "0.2", "--time-span-hours", "48", "--seed", "5",
    "--include-nonconverted",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "journeys.jsonl"
    ckpt = root / "model.json"
    roc = root / "roc.csv"
    attr = root / "attr.jsonl"
    report = root / "report.csv"
    report_json = root / "report.json"

    assert main(GEN_ARGS + ["--out", str(data)]) == 0
    vocab = data.with_suffix(".vocab.json")
    assert vocab.exists()
    assert main([
        "train", "--data", str(data), "--vocab", str(vocab), "--out", str(ckpt),
        "--preset", "desk", "--epochs", "3", "--hidden-size", "16", "--batch-size", "16", "--seed", "3",
    ]) == 0
    assert main(["eval", "--model", str(ckpt), "--data", str(data), "--roc-out", str(roc)]) == 0
    assert main([
        "attribute", "--model", str(ckpt), "--data", str(data), "--out", str(attr),
        "--method", "auto", "--seed", "1",
    ]) == 0
    assert main([
        "report", "--attr", str(attr), "--data", str(data), "--out", str(report),
        "--json", str(report_json),
    ]) == 0
    return {
        "root": root, "data": data, "vocab": vocab, "ckpt": ckpt,
        "roc": roc, "attr": attr, "report": report, "report_json": report_json,
    }


class TestGen:
    def test_writes_n_lines_and_summary(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code, kv, _ = run_cli(capsys, GEN_ARGS + ["--out", str(out)])
        assert code == 0
        assert kv["journeys"] == "300"
        assert 0.0 < float(kv["conversion_rate"]) < 1.0
        assert len(out.read_text().strip().splitlines()) == 300

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(GEN_ARGS + ["--out", str(a)]) == 0
        assert main(GEN_ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".vocab.json").read_bytes() == b.with_suffix(".vocab.json").read_bytes()

    def test_bad_base_rate_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x.jsonl"), "--base-rate", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "base_rate" in captured.err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--out", str(tmp_path / "x.jsonl"), "--frobnicate", "1"])
        assert err.value.code == 2


class TestTrain:
    def test_paper_preset_flag_plumbs_through(self, pipeline, tmp_path, capsys):
        # published-table preset, overridden down to a tiny fast run
        code, kv, _ = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
            "--out", str(tmp_path / "ckpt.json"), "--preset", "paper",
            "--epochs", "1", "--hidden-size", "8", "--seed", "1",
        ])
        assert code == 0
        assert float(kv["final_train_loss"]) > 0

    def test_every_train_flag_reaches_the_config(self, pipeline, tmp_path, capsys, monkeypatch):
        seen = {}

        def capture(journeys, vocab, cfg):
            seen["cfg"] = cfg
            raise DeepMtaError("stop before training")

        monkeypatch.setattr(cli, "train", capture)
        code, _, _ = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
            "--out", str(tmp_path / "ckpt.json"), "--seed", "4", "--epochs", "3", "--batch-size", "8",
            "--learning-rate", "0.05", "--hidden-size", "6", "--dropout", "0.25",
        ])
        assert code == 2
        cfg = seen["cfg"]
        assert (cfg.seed, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.hidden_size, cfg.dropout_p) == (
            4, 3, 8, 0.05, 6, 0.25
        )

    def test_missing_data_exits_2(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "nope.jsonl"), "--vocab", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "ckpt.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("text", ("{broken", '{"channels": ' + "1" * 5000 + "}"), ids=("broken", "long_integer"))
    def test_vocab_not_json_exits_2(self, pipeline, tmp_path, capsys, text):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(text)
        code, kv, err = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(vocab), "--out", str(tmp_path / "ckpt.json"),
        ])
        assert code == 2
        assert "not JSON" in err and "Traceback" not in err
        assert kv == {}

    def test_vocab_channels_string_exits_2(self, pipeline, tmp_path, capsys):
        # a string would otherwise split into one-character channel tokens
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"channels": "ch00ch01", "campaigns": ["cmp00", "cmp01"]}))
        code, kv, err = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(vocab), "--out", str(tmp_path / "ckpt.json"),
        ])
        assert code == 2
        assert "'channels' must be a list of strings" in err
        assert kv == {}

    def test_outputs_exist(self, pipeline):
        assert pipeline["ckpt"].exists()
        history = pipeline["ckpt"].with_suffix(".history.csv")
        assert history.exists()
        header = history.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss"


class TestEval:
    def test_auc_parseable(self, pipeline, capsys):
        code, kv, _ = run_cli(capsys, [
            "eval", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--roc-out", str(pipeline["roc"]),
        ])
        assert code == 0
        auc = float(kv["auc"])
        assert 0.0 <= auc <= 1.0
        header = pipeline["roc"].read_text().splitlines()[0]
        assert header == "threshold,fpr,tpr"

    def test_no_positives_exits_4(self, pipeline, tmp_path, capsys):
        journeys = load_journeys(pipeline["data"])
        from deepmta.journey import save_journeys

        nonconv = [j for j in journeys if not j.converted][:10]
        data = tmp_path / "neg.jsonl"
        save_journeys(data, nonconv)
        code = main(["eval", "--model", str(pipeline["ckpt"]), "--data", str(data),
                     "--roc-out", str(tmp_path / "roc.csv")])
        assert code == 4


class TestAttribute:
    def test_one_line_per_journey(self, pipeline):
        lines = pipeline["attr"].read_text().strip().splitlines()
        journeys = load_journeys(pipeline["data"])
        assert len(lines) == len(journeys)
        for line, journey in zip(lines, journeys):
            record = json.loads(line)
            assert record["user_id"] == journey.user_id
            assert len(record["weights"]) == len(journey.events)
            assert record["method"] == "shapley_exact"  # auto at n <= 12

    def test_single_event_journeys_full_weight(self, pipeline):
        journeys = load_journeys(pipeline["data"])
        for line, journey in zip(pipeline["attr"].read_text().splitlines(), journeys):
            record = json.loads(line)
            if len(journey.events) == 1 and not record["unattributed"]:
                assert record["weights"] == [1.0]

    def test_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "attr2.jsonl"
        assert main([
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--out", str(out), "--method", "auto", "--seed", "1",
        ]) == 0
        assert out.read_bytes() == pipeline["attr"].read_bytes()

    def test_thread_env_preserves_output(self, pipeline, tmp_path, monkeypatch):
        # the worker count changes how rows are cut into blocks, never the output
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("MTA_THREADS", threads)
            out = tmp_path / f"attr_mt{threads}.jsonl"
            assert main([
                "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                "--out", str(out), "--method", "auto", "--seed", "1",
            ]) == 0
            assert out.read_bytes() == pipeline["attr"].read_bytes()

    @pytest.mark.parametrize("threads", ("1", "3"))
    def test_block_counters(self, pipeline, tmp_path, monkeypatch, capsys, threads):
        # every journey has at most 4 events, so auto scores its whole
        # powerset: 2^(t+1) live nodes at steps t < n-1 and 2^(n-1) at the
        # last, 3 * 2^(n-1) - 2 node-steps in all
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        monkeypatch.setenv("MTA_THREADS", threads)
        code, kv, _ = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--out", str(tmp_path / "a.jsonl"), "--method", "auto", "--seed", "1",
        ])
        assert code == 0
        journeys = load_journeys(pipeline["data"])
        assert int(kv["node_steps"]) == sum(3 * 2 ** (len(j.events) - 1) - 2 for j in journeys)
        assert int(kv["blocks"]) >= int(threads)
        assert float(kv["seconds"]) > 0
        assert {"journeys", "unattributed", "out"} <= kv.keys()

    def test_thread_env_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for value, workers in (("100000", 3), ("2", 2), ("", 3)):
            monkeypatch.setenv("MTA_THREADS", value)
            assert cli._attribution_workers() == workers
        # without affinity masks, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setenv("MTA_THREADS", "100000")
        assert cli._attribution_workers() == 5

    def test_huge_thread_env_starts_a_small_pool(self, pipeline, tmp_path, monkeypatch):
        # the pool is recorded, and run on one thread whatever it asks for
        sizes = []

        def recorded(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers=1)

        monkeypatch.setattr(attribution, "ThreadPoolExecutor", recorded)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("MTA_THREADS", "100000")
        out = tmp_path / "a.jsonl"
        assert main([
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--out", str(out), "--method", "auto", "--seed", "1",
        ]) == 0
        assert sizes == [2]
        assert out.read_bytes() == pipeline["attr"].read_bytes()

    @pytest.mark.parametrize("value", ("abc", "1.5", "0"))
    def test_malformed_thread_env_exits_2(self, pipeline, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("MTA_THREADS", value)
        code, _, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--out", str(tmp_path / "a.jsonl"),
        ])
        assert code == 2
        assert "MTA_THREADS" in err

    def test_vocab_mismatch_exits_2(self, pipeline, tmp_path):
        # a dataset over unknown channel tokens cannot be attributed
        other = tmp_path / "other.jsonl"
        obj = {"user_id": "u", "events": [{"channel": "zz", "campaign": "qq", "ts": 1}],
               "converted": False, "gmv": 0.0}
        other.write_text(json.dumps(obj) + "\n")
        code = main(["attribute", "--model", str(pipeline["ckpt"]), "--data", str(other),
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 2


class TestReport:
    def test_conservation(self, pipeline):
        rows, totals = load_report_csv(pipeline["report"])
        journeys = load_journeys(pipeline["data"])
        records = [json.loads(line) for line in pipeline["attr"].read_text().splitlines()]
        attributed_gmv = sum(j.gmv for j, r in zip(journeys, records) if not r["unattributed"])
        assert totals["deepmta_gmv"] == pytest.approx(attributed_gmv, rel=1e-6)
        assert totals["lastclick_gmv"] == pytest.approx(attributed_gmv, rel=1e-6)

    def test_idempotent(self, pipeline, tmp_path):
        out = tmp_path / "report2.csv"
        assert main(["report", "--attr", str(pipeline["attr"]), "--data", str(pipeline["data"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["report"].read_bytes()

    def test_json_mirror_written(self, pipeline):
        obj = json.loads(pipeline["report_json"].read_text())
        assert obj["method"] == "deepmta"
        assert obj["totals"]["channel"] == "TOTAL"

    def test_mismatched_sets_exit_2(self, pipeline, tmp_path):
        truncated = tmp_path / "short.jsonl"
        lines = pipeline["attr"].read_text().splitlines()
        truncated.write_text("\n".join(lines[:5]) + "\n")
        code = main(["report", "--attr", str(truncated), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_empty_attr_and_data_zero_table(self, tmp_path, capsys):
        attr = tmp_path / "empty_attr.jsonl"
        data = tmp_path / "empty_data.jsonl"
        attr.write_text("")
        data.write_text("")
        out = tmp_path / "report.csv"
        code = main(["report", "--attr", str(attr), "--data", str(data), "--out", str(out)])
        assert code == 0
        rows, totals = load_report_csv(out)
        assert rows == []
        assert totals["deepmta_gmv"] == 0.0


def _edit_first_record(line: str, case: str) -> str:
    if case == "not_an_object":
        return "5"
    if case == "too_many_digits":
        return '{"intercept": ' + "1" * 5000 + "}"
    obj = json.loads(line)
    field, value = {
        "weights_number": ("weights", 5),
        "weights_strings": ("weights", ["x"] * len(obj["weights"])),
        "weights_nan": ("weights", [float("nan")] * len(obj["weights"])),
        "weights_huge_int": ("weights", [10 ** 400] * len(obj["weights"])),
        "raw_weights_nan": ("raw_weights", [float("nan")] * len(obj["raw_weights"])),
        "intercept_string": ("intercept", "0.5"),
        "unattributed_string": ("unattributed", "no"),
        "channels_string": ("channels", "ch00"),
        "channels_numbers": ("channels", [0] * len(obj["channels"])),
    }[case]
    obj[field] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    ("case", "message"),
    (
        ("not_an_object", "must be a JSON object"),
        ("too_many_digits", "malformed JSON"),
        ("weights_number", "'weights' must be a list of finite numbers"),
        ("weights_strings", "'weights' must be a list of finite numbers"),
        ("weights_nan", "'weights' must be a list of finite numbers"),
        ("weights_huge_int", "'weights' must be a list of finite numbers"),
        ("raw_weights_nan", "'raw_weights' must be a list of finite numbers"),
        ("intercept_string", "'intercept' must be a finite number"),
        ("unattributed_string", "'unattributed' must be true or false"),
        ("channels_string", "'channels' must be a list of strings"),
        ("channels_numbers", "'channels' must be a list of strings"),
    ),
)
def test_malformed_attribution_record_exits_2(pipeline, tmp_path, capsys, case, message):
    lines = pipeline["attr"].read_text().splitlines()
    attr = tmp_path / "attr.jsonl"
    attr.write_text("\n".join([lines[0], _edit_first_record(lines[1], case), *lines[2:]]) + "\n")
    out = tmp_path / "r.csv"
    code, kv, err = run_cli(capsys, ["report", "--attr", str(attr), "--data", str(pipeline["data"]), "--out", str(out)])
    assert code == 2
    assert "line 2" in err and message in err and "Traceback" not in err
    assert kv == {} and not out.exists()


def test_attribution_not_utf8_exits_2(pipeline, tmp_path, capsys):
    lines = pipeline["attr"].read_bytes().splitlines(keepends=True)
    attr = tmp_path / "attr.jsonl"
    attr.write_bytes(lines[0] + b"\xff\xfe garbage\n" + b"".join(lines[2:]))
    code, kv, err = run_cli(capsys, [
        "report", "--attr", str(attr), "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "line 2: not UTF-8 text" in err
    assert kv == {}


@pytest.mark.parametrize(
    ("error", "code"),
    (
        (DimensionError("masks must be (m, 3)"), 2),
        (TraceError("trace does not match"), 3),
        (DeepMtaError("some other package error"), 2),
        (ValidationError("bad record"), 2),
        (VocabularyError("unknown channel token 'Z'"), 2),
        (SequenceLengthError("journey too long"), 2),
        (ConfigError("bad setting"), 2),
        (ParameterError("bad tau"), 2),
        (OSError("disk gone"), 2),
        (NumericError("non-finite weights"), 3),
        (TrainingDivergedError(epoch=1, step=2), 3),
        (EvaluationError("one class only"), 4),
    ),
)
def test_package_errors_map_to_exit_codes(pipeline, monkeypatch, capsys, error, code):
    import deepmta.cli as cli_mod

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "attribute_journeys", failing)
    exit_code, kv, err = run_cli(capsys, [
        "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
        "--out", str(pipeline["root"] / "failed.jsonl"),
    ])
    assert exit_code == code
    assert str(error) in err and "Traceback" not in err
    assert kv == {}


@pytest.mark.parametrize("value", ("NaN", "Infinity"))
def test_non_finite_gmv_exits_2(pipeline, tmp_path, capsys, value):
    lines = pipeline["data"].read_text().splitlines()
    obj = json.loads(lines[1])
    obj["converted"], obj["gmv"] = True, float(value.replace("Infinity", "inf"))
    data = tmp_path / "journeys.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(obj)]) + "\n")
    code, kv, err = run_cli(capsys, [
        "report", "--attr", str(pipeline["attr"]), "--data", str(data), "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "line 2" in err and "gmv must be finite" in err
    assert kv == {}


def test_gmv_too_large_for_a_float_exits_2(pipeline, tmp_path, capsys):
    lines = pipeline["data"].read_text().splitlines()
    obj = json.loads(lines[1])
    obj["converted"], obj["gmv"] = True, 5.0
    data = tmp_path / "journeys.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(obj).replace("5.0", str(10 ** 400))]) + "\n")
    code, kv, err = run_cli(capsys, [
        "report", "--attr", str(pipeline["attr"]), "--data", str(data), "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "line 2" in err and "gmv must be finite" in err and "Traceback" not in err
    assert kv == {}


@pytest.mark.parametrize("samples", ("0", "-3"))
def test_samples_below_one_exits_2(pipeline, tmp_path, capsys, samples):
    # a 13-event journey is sampled, so it draws --samples permutations
    events = [{"channel": "ch01", "campaign": "cmp00", "ts": 60 * i} for i in range(13)]
    data = tmp_path / "long.jsonl"
    data.write_text(json.dumps({"user_id": "u", "events": events, "converted": True, "gmv": 5.0}) + "\n")
    out = tmp_path / "a.jsonl"
    code, kv, err = run_cli(capsys, [
        "attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out),
        "--samples", samples,
    ])
    assert code == 2
    assert ">= 1" in err and "Traceback" not in err
    assert kv == {} and not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    (
        ("train", "--learning-rate", "nan"),
        ("train", "--learning-rate", "inf"),
        ("gen", "--key-lift", "nan"),
        ("gen", "--time-span-hours", "nan"),
        ("gen", "--time-span-hours", "inf"),
        ("gen", "--max-len", "33"),
        ("attribute", "--samples", "100000000"),
        ("gen", "--seed", "-1"),
        ("train", "--seed", "-1"),
        ("attribute", "--seed", "-1"),
    ),
)
def test_bad_numeric_flag_exits_2(pipeline, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    if command == "gen":
        argv = ["gen", "--out", str(out), "--journeys", "20"]
    elif command == "train":
        argv = ["train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                "--epochs", "1", "--hidden-size", "4"]
    else:
        # a 20-event journey is sampled: --samples permutations of 20 events
        events = [{"channel": "ch01", "campaign": "cmp00", "ts": 60 * i} for i in range(20)]
        data = tmp_path / "long.jsonl"
        data.write_text(json.dumps({"user_id": "u", "events": events, "converted": True, "gmv": 5.0}) + "\n")
        argv = ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out)]
    code, kv, err = run_cli(capsys, argv + [flag, value])
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert kv == {} and not out.exists()


@pytest.mark.parametrize("command", ("gen", "train", "eval", "attribute", "report", "report --json", "report --attr"))
def test_directory_as_path_exits_2(pipeline, tmp_path, capsys, command):
    # each subcommand's output path, and report's --attr input, naming a directory
    d = str(tmp_path)
    data, ckpt = str(pipeline["data"]), str(pipeline["ckpt"])
    argv = {
        "gen": ["gen", "--out", d, "--journeys", "20"],
        "train": ["train", "--data", data, "--vocab", str(pipeline["vocab"]), "--out", d, "--epochs", "1",
                  "--hidden-size", "4"],
        "eval": ["eval", "--model", ckpt, "--data", data, "--roc-out", d],
        "attribute": ["attribute", "--model", ckpt, "--data", data, "--out", d],
        "report": ["report", "--attr", str(pipeline["attr"]), "--data", data, "--out", d],
        "report --json": ["report", "--attr", str(pipeline["attr"]), "--data", data,
                          "--out", str(tmp_path / "report.csv"), "--json", d],
        "report --attr": ["report", "--attr", d, "--data", data, "--out", str(tmp_path / "report.csv")],
    }[command]
    code, kv, err = run_cli(capsys, argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    # output paths are checked before any work: no training epoch runs and
    # no other output is written
    assert kv == {} and "epoch=" not in err
    assert not (tmp_path / "report.csv").exists()


def test_bad_output_path_leaves_existing_files_alone(pipeline, tmp_path, capsys):
    # a checkpoint path that exists and a history path in a missing directory:
    # the run stops before training and the checkpoint keeps its bytes
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text("old")
    code, kv, err = run_cli(capsys, [
        "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(ckpt),
        "--history", str(tmp_path / "missing" / "h.csv"), "--epochs", "1", "--hidden-size", "4",
    ])
    assert code == 2
    assert "does not exist" in err and "epoch=" not in err
    assert kv == {} and ckpt.read_text() == "old"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ("train", "report", "eval", "attribute"))
def test_colliding_paths_exit_2(pipeline, tmp_path, capsys, command):
    # two outputs, or an output and an input, naming one file: the run stops
    # before any work and the file keeps its bytes
    data, vocab, attr = str(pipeline["data"]), str(pipeline["vocab"]), str(pipeline["attr"])
    victim = tmp_path / "victim"
    source = {"eval": pipeline["ckpt"], "attribute": pipeline["data"]}.get(command)
    victim.write_bytes(source.read_bytes() if source else b"old")
    (tmp_path / "sub").mkdir()
    before = victim.read_bytes()
    argv = {
        "train": ["train", "--data", data, "--vocab", vocab, "--out", str(victim), "--history", str(victim),
                  "--epochs", "1", "--hidden-size", "4"],
        "report": ["report", "--attr", attr, "--data", data, "--out", str(victim), "--json", str(victim)],
        "eval": ["eval", "--model", str(victim), "--data", data, "--roc-out", str(tmp_path / "sub" / ".." / "victim")],
        "attribute": ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(victim), "--out", str(victim)],
    }[command]
    code, kv, err = run_cli(capsys, argv)
    assert code == 2
    assert "name the same file" in err and "epoch=" not in err and "Traceback" not in err
    assert kv == {} and victim.read_bytes() == before


@pytest.mark.parametrize("command", ("eval", "train", "attribute"))
def test_ts_too_large_for_a_float_exits_2(pipeline, tmp_path, capsys, command):
    lines = pipeline["data"].read_text().splitlines()
    obj = json.loads(lines[1])
    obj["events"][0]["ts"] = 10 ** 400
    data = tmp_path / "journeys.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(obj)]) + "\n")
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--model", str(pipeline["ckpt"]), "--data", str(data), "--roc-out", str(out)],
        "train": ["train", "--data", str(data), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                  "--epochs", "1", "--hidden-size", "4"],
        "attribute": ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out)],
    }[command]
    code, kv, err = run_cli(capsys, argv)
    assert code == 2
    assert "line 2" in err and "fits a float" in err and "Traceback" not in err
    assert kv == {} and not out.exists()


def test_every_stage_ends_with_seconds(tmp_path, capsys):
    data, vocab = tmp_path / "j.jsonl", tmp_path / "j.vocab.json"
    ckpt, attr = tmp_path / "m.json", tmp_path / "a.jsonl"
    stages = {
        "gen": GEN_ARGS + ["--out", str(data)],
        "train": ["train", "--data", str(data), "--vocab", str(vocab), "--out", str(ckpt), "--epochs", "2",
                  "--hidden-size", "4"],
        "eval": ["eval", "--model", str(ckpt), "--data", str(data), "--roc-out", str(tmp_path / "roc.csv")],
        "attribute": ["attribute", "--model", str(ckpt), "--data", str(data), "--out", str(attr)],
        "report": ["report", "--attr", str(attr), "--data", str(data), "--out", str(tmp_path / "r.csv")],
    }
    for stage, argv in stages.items():
        code, kv, err = run_cli(capsys, argv)
        assert code == 0, err
        assert list(kv)[-1] == "seconds", stage
        assert float(kv["seconds"]) >= 0
        if stage == "train":
            # one telemetry line per epoch on stderr, after the banner
            epochs = [line for line in err.splitlines() if line.startswith("epoch=")]
            assert [line.split()[0] for line in epochs] == ["epoch=0", "epoch=1"]
            assert all("grad_norm_max=" in line and "clipped_share=" in line for line in epochs)


def test_divergence_maps_to_exit_3(pipeline, monkeypatch):
    import deepmta.cli as cli_mod
    from deepmta.errors import TrainingDivergedError

    def exploding_train(*args, **kwargs):
        raise TrainingDivergedError(epoch=2, step=17)

    monkeypatch.setattr(cli_mod, "train", exploding_train)
    code = main([
        "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
        "--out", str(pipeline["root"] / "diverged.json"),
    ])
    assert code == 3


@pytest.mark.parametrize("command", ("eval", "attribute"))
def test_non_finite_checkpoint_exits_3(pipeline, tmp_path, capsys, command):
    obj = json.loads(pipeline["ckpt"].read_text())
    obj["tensors"]["W_out"]["data"][0] = float("nan")
    ckpt = tmp_path / "nan_model.json"
    ckpt.write_text(json.dumps(obj))
    out = tmp_path / "out"
    extra = ["--roc-out", str(out)] if command == "eval" else ["--out", str(out)]
    code, kv, err = run_cli(capsys, [command, "--model", str(ckpt), "--data", str(pipeline["data"]), *extra])
    assert code == 3
    assert "W_out" in err
    assert kv == {} and not out.exists()


def test_module_entry_point(pipeline, tmp_path):
    out = tmp_path / "data.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "deepmta", "gen", "--out", str(out), "--journeys", "20", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "journeys=20" in proc.stdout
    assert out.exists()
    # a failing run's exit code is the process's exit status
    bad = tmp_path / "bad.jsonl"
    bad.write_text(out.read_text().splitlines()[0] + "\n{broken\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deepmta", "eval", "--model", str(pipeline["ckpt"]), "--data", str(bad),
         "--roc-out", str(tmp_path / "roc.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "line 2" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
