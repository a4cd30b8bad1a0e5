import json
import os
import subprocess
import sys

import numpy as np
import pytest

import deepmta.attribution as attribution
import deepmta.cli as cli
from deepmta.attribution import attribute_journeys
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
    WorkerError,
)
from deepmta.journey import iter_journeys, load_journeys
from reference import load_report_csv
from test_attribution import assert_no_child_left
from test_model import set_tensor_entry

# the package from this checkout, for a fresh interpreter
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
# a two-layer train and an attribute_journeys, each at two workers, in a
# fresh interpreter; forks counts the processes they start
FORKING_RUN = """
import os
from deepmta import GeneratorConfig, TrainConfig, attribute_journeys, generate_synthetic, train
forks = [0]
os.register_at_fork(after_in_parent=lambda: forks.__setitem__(0, forks[0] + 1))
vocab, journeys = generate_synthetic(GeneratorConfig(n_journeys=60, max_len=4), seed=3)
result = train(journeys, vocab, TrainConfig(hidden_size=4, epochs=1, seed=1), workers=2)
list(attribute_journeys(result.params, journeys[:8], vocab, workers=2))
"""


class FullDisk:
    """A text file whose writes fail with ENOSPC once more than 200
    characters have been written to it."""

    def __init__(self, fh):
        self.fh, self.written = fh, 0

    def write(self, text):
        import errno

        self.written += len(text)
        if self.written > 200:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def full_disk(name: str):
    """An `open` that makes a FullDisk of each file opened for writing whose
    name holds `name` (the output itself, or its temporary file)."""
    import builtins

    def opener(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode and name in os.path.basename(path) else fh

    return opener


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

    def test_streamed_file_is_the_listed_journeys(self, tmp_path, capsys):
        # gen writes each journey as it is drawn: the bytes of the journeys
        # drawn into a list and then saved
        from deepmta.journey import GeneratorConfig, generate_synthetic, save_journeys

        out, listed = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code, kv, _ = run_cli(capsys, GEN_ARGS + ["--out", str(out)])
        assert code == 0
        cfg = GeneratorConfig(
            n_journeys=300, n_channels=4, n_campaigns=2, max_len=4, key_channel_index=0, key_lift=0.5,
            base_rate=0.2, time_span_hours=48.0, include_nonconverted=True,
        )
        _, journeys = generate_synthetic(cfg, seed=5)
        save_journeys(listed, journeys)
        assert out.read_bytes() == listed.read_bytes()
        assert kv["conversion_rate"] == repr(sum(j.converted for j in journeys) / len(journeys))

    @pytest.mark.parametrize("hours", ("3e15", "1e16", "1e17"))
    def test_span_past_int64_exits_2(self, tmp_path, capsys, hours):
        out = tmp_path / "x.jsonl"
        code, kv, err = run_cli(capsys, [
            "gen", "--out", str(out), "--journeys", "200", "--max-len", "32", "--include-nonconverted", "--seed", "3",
            "--time-span-hours", hours,
        ])
        assert code == 2
        assert "time_span_hours must be at most" in err and "Traceback" not in err
        assert kv == {} and not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        (
            GEN_ARGS,
            GEN_ARGS + ["--max-len", "1"],  # no jitter draws
            GEN_ARGS + ["--journeys", "1"],
            [arg for arg in GEN_ARGS if arg != "--include-nonconverted"],  # draws of skipped journeys
            ["gen"],  # GeneratorConfig's defaults
        ),
        ids=("nonconverted", "max-len-1", "one-journey", "converted-only", "defaults"),
    )
    def test_one_and_two_processes_write_the_same_bytes(self, tmp_path, capsys, monkeypatch, argv):
        # the writer process builds and writes the journeys of the caller's
        # draws: the bytes and keys of one process, and of the listed journeys
        from deepmta.journey import GeneratorConfig, generate_synthetic, save_journeys

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MTA_THREADS", threads)
            out = tmp_path / threads / "data.jsonl"
            out.parent.mkdir()
            code, kv, _ = run_cli(capsys, argv + ["--out", str(out)])
            assert code == 0
            assert kv.pop("out") == str(out) and kv.pop("vocab") == str(out.with_suffix(".vocab.json"))
            del kv["seconds"]
            runs.append((out.read_bytes(), out.with_suffix(".vocab.json").read_bytes(), kv))
            assert sorted(os.listdir(out.parent)) == ["data.jsonl", "data.vocab.json"]
        assert runs[0] == runs[1]
        args = cli.build_parser().parse_args(argv + ["--out", "unused"])
        _, journeys = generate_synthetic(GeneratorConfig(**cli._given_fields(args, GeneratorConfig)), args.seed)
        save_journeys(tmp_path / "listed.jsonl", journeys)
        assert runs[0][0] == (tmp_path / "listed.jsonl").read_bytes()
        assert runs[0][2] == {
            "journeys": str(len(journeys)),
            "conversion_rate": repr(sum(j.converted for j in journeys) / len(journeys)),
        }
        assert_no_child_left()

    def test_two_processes_fork_one_writer(self, tmp_path, capsys, monkeypatch):
        from deepmta import _fork

        entered = []
        real_enter = _fork.Worker.__enter__

        def enter(self):
            entered.append(self.role)
            return real_enter(self)

        monkeypatch.setattr(_fork.Worker, "__enter__", enter)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        for threads, roles in (("1", []), ("2", ["the journey writer process"]), ("4", ["the journey writer process"])):
            monkeypatch.setenv("MTA_THREADS", threads)
            entered.clear()
            assert main(GEN_ARGS + ["--out", str(tmp_path / f"{threads}.jsonl")]) == 0
            assert entered == roles
        capsys.readouterr()
        assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()
        assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "4.jsonl").read_bytes()
        assert_no_child_left()

    def test_no_fork_runs_one_process(self, tmp_path, capsys, monkeypatch):
        from deepmta import _fork

        assert main(GEN_ARGS + ["--out", str(tmp_path / "forked.jsonl")]) == 0
        monkeypatch.setattr(_fork.Worker, "__enter__", lambda self: pytest.fail("gen forked"))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        monkeypatch.delattr(os, "fork")
        assert main(GEN_ARGS + ["--out", str(tmp_path / "one.jsonl")]) == 0
        capsys.readouterr()
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "forked.jsonl").read_bytes()

    @pytest.mark.parametrize("value", ("abc", "1.5", "0"))
    def test_malformed_thread_env_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("MTA_THREADS", value)
        out = tmp_path / "data.jsonl"
        code, kv, err = run_cli(capsys, GEN_ARGS + ["--out", str(out)])
        assert code == 2
        assert "MTA_THREADS" in err and "Traceback" not in err
        assert kv == {} and os.listdir(tmp_path) == []

    def test_killed_writer_exits_4_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the writer killed mid-run (SIGKILL, as the OOM killer sends) while
        # the caller still sends: exit 4 naming its exit status, not the
        # closed-stdout exit 141, no partial file, no process left
        import signal

        caller = os.getpid()
        build = cli._synthetic_journey
        built = []

        def dying(*args):
            built.append(1)
            if os.getpid() != caller and len(built) == 100:
                os.kill(os.getpid(), signal.SIGKILL)
            return build(*args)

        monkeypatch.setattr(cli, "_synthetic_journey", dying)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        out = tmp_path / "data.jsonl"
        argv = GEN_ARGS + ["--out", str(out), "--journeys", "20000"]
        code, kv, err = run_cli(capsys, argv)
        assert code == 4 != cli.CLOSED_STDOUT_EXIT
        assert f"exit status {-signal.SIGKILL}" in err and "journey writer" in err
        assert "Traceback" not in err
        assert kv == {} and os.listdir(tmp_path) == []
        assert_no_child_left()

    @pytest.mark.parametrize("threads", ("1", "2"))
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, threads):
        # a write that fails partway (here a full disk, on the 150th line, in
        # the writer process at two) exits 2 naming the error. No partial
        # file or vocabulary is left, and a file already at --out stays
        import errno

        import deepmta.journey as journey

        to_dict, written = journey.journey_to_dict, []

        def failing(j):
            written.append(1)
            if len(written) == 150:
                raise OSError(errno.ENOSPC, "No space left on device")
            return to_dict(j)

        monkeypatch.setattr(journey, "journey_to_dict", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", threads)
        out = tmp_path / "data.jsonl"
        argv = GEN_ARGS + ["--out", str(out), "--journeys", "3000"]
        code, kv, err = run_cli(capsys, argv)
        assert code == 2
        assert "No space left on device" in err and "Traceback" not in err
        assert kv == {} and os.listdir(tmp_path) == []
        out.write_text("kept\n")
        written.clear()
        assert run_cli(capsys, argv)[0] == 2
        assert os.listdir(tmp_path) == ["data.jsonl"] and out.read_text() == "kept\n"
        assert_no_child_left()


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

        def capture(journeys, vocab, cfg, workers=1, on_start=None):
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

    def test_stderr_names_the_table(self, pipeline, tmp_path, capsys):
        code, _, err = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
            "--out", str(tmp_path / "ckpt.json"), "--epochs", "1", "--hidden-size", "4",
        ])
        assert code == 0
        journeys = load_journeys(pipeline["data"])
        events = sum(len(j) for j in journeys)
        line = err.splitlines()[0]
        assert line.startswith(f"training on {len(journeys)} journeys ({events} events, ")
        assert " MB table; preset desk, H=4, 1 epochs)" in line

    def test_one_and_two_workers_write_the_same_bytes(self, pipeline, tmp_path, capsys, monkeypatch):
        # the wavefront on two processes gives the one-process checkpoint and
        # history; the stderr line names the process count
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        outputs = []
        for threads, processes in (("1", "1 process"), ("2", "2 processes")):
            monkeypatch.setenv("MTA_THREADS", threads)
            out = tmp_path / f"model-{threads}.json"
            code, _, err = run_cli(capsys, [
                "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                "--epochs", "2", "--hidden-size", "16", "--batch-size", "16", "--seed", "3",
            ])
            assert code == 0
            assert err.splitlines()[0].endswith(f"2 epochs) on {processes}")
            outputs.append((out.read_bytes(), out.with_suffix(".history.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert_no_child_left()

    def test_malformed_thread_env_exits_2(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MTA_THREADS", "two")
        out = tmp_path / "ckpt.json"
        code, kv, err = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(out),
        ])
        assert code == 2
        assert "MTA_THREADS" in err and "training on" not in err
        assert kv == {} and not out.exists()

    @pytest.mark.parametrize("death", ("killed", "raised"))
    def test_dead_helper_exits_4(self, pipeline, tmp_path, capsys, monkeypatch, death):
        # the helper killed mid-epoch (SIGKILL, as the OOM killer sends), or
        # ended by an error it raised, ends train with exit 4 naming its exit
        # status, writes nothing, and leaves no process behind
        import signal

        import deepmta.trainer as trainer

        caller = os.getpid()
        top_step = trainer._top_step
        calls = []

        def dying(*args):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 3:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("no room for the top layer's cache")
            return top_step(*args)

        monkeypatch.setattr(trainer, "_top_step", dying)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        out = tmp_path / "ckpt.json"
        code, kv, err = run_cli(capsys, [
            "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(out),
            "--epochs", "1", "--hidden-size", "8",
        ])
        assert code == 4
        assert f"exit status {-signal.SIGKILL if death == 'killed' else 1}" in err
        assert "Traceback" not in err
        assert kv == {} and not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("unknown_first", (False, True))
    @pytest.mark.parametrize("command", ("train", "eval"))
    def test_malformed_last_line_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys, command, unknown_first):
        # the file is read as a stream, but a record's fault still comes
        # before an earlier journey's unknown token, as when it was read whole
        lines = pipeline["data"].read_text().splitlines()
        if unknown_first:
            obj = json.loads(lines[0])
            obj["events"][0]["channel"] = "zz"
            lines[0] = json.dumps(obj)
        data = tmp_path / "journeys.jsonl"
        data.write_text("\n".join(lines + ["{broken"]) + "\n")
        out = tmp_path / "out.json"
        argv = {
            "train": ["train", "--data", str(data), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                      "--epochs", "1", "--hidden-size", "4"],
            "eval": ["eval", "--model", str(pipeline["ckpt"]), "--data", str(data), "--roc-out", str(out)],
        }[command]
        code, kv, err = run_cli(capsys, argv)
        assert code == 2
        assert f"line {len(lines) + 1}: malformed JSON" in err and "Traceback" not in err
        assert kv == {} and not out.exists() and not out.with_suffix(".history.csv").exists()

    def test_vocabulary_is_read_before_the_data(self, tmp_path, capsys):
        data, vocab = tmp_path / "journeys.jsonl", tmp_path / "vocab.json"
        data.write_text("{broken\n")
        vocab.write_text("{broken")
        code, kv, err = run_cli(capsys, ["train", "--data", str(data), "--vocab", str(vocab),
                                         "--out", str(tmp_path / "ckpt.json")])
        assert code == 2
        assert f"vocabulary {vocab} is not JSON" in err and "malformed JSON" not in err
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

    def test_method_choices_are_the_hyphenated_methods(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["attribute", "--help"])
        assert err.value.code == 0
        choices = sorted(method.replace("_", "-") for method in attribution.METHODS)
        assert choices == ["auto", "ols", "shapley-exact", "shapley-sampled"]
        assert "--method {" + ",".join(choices) + "}" in capsys.readouterr().out

    def test_kernel_method_exits_2(self, pipeline, tmp_path, capsys):
        # --method kernel, whose regression is gone, is argparse's invalid
        # choice: nothing is attributed or written
        out = tmp_path / "attr.jsonl"
        with pytest.raises(SystemExit) as err:
            main([
                "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                "--out", str(out), "--method", "kernel",
            ])
        assert err.value.code == 2
        assert "invalid choice: 'kernel'" in capsys.readouterr().err
        assert not out.exists()

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
        # rechecked, the nodes scored again in float64, follows node_steps
        keys = list(kv)
        assert keys[keys.index("node_steps") + 1] == "rechecked" and int(kv["rechecked"]) >= 0

    @pytest.mark.parametrize("threads", ("1", "2"))
    def test_window_counter(self, pipeline, tmp_path, monkeypatch, capsys, threads):
        # journeys of up to 12 events: a window closes once its powersets
        # reach four 12-event games per worker; windows= comes before blocks=
        from deepmta.attribution import _WINDOW_ROWS

        data = tmp_path / "long.jsonl"
        gen = [arg for arg in GEN_ARGS if arg != "--include-nonconverted"]
        gen[gen.index("--max-len") + 1] = "12"
        gen[gen.index("--journeys") + 1] = "120"
        assert main(gen + ["--out", str(data)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", threads)
        code, kv, _ = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(data),
            "--out", str(tmp_path / "a.jsonl"), "--method", "auto", "--seed", "1",
        ])
        assert code == 0
        windows, rows, count = 0, 0, 0
        for journey in load_journeys(data):
            rows += 2 ** len(journey.events)
            count += 1
            if rows >= int(threads) * _WINDOW_ROWS and count >= int(threads):
                windows, rows, count = windows + 1, 0, 0
        windows += count > 0
        assert int(kv["windows"]) == windows >= 2
        keys = list(kv)
        assert keys[keys.index("windows") + 1] == "blocks"
        assert int(kv["blocks"]) >= windows * int(threads)

    def test_thread_env_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for value, workers in (("100000", 3), ("2", 2), ("", 3)):
            monkeypatch.setenv("MTA_THREADS", value)
            assert cli._workers() == workers
        # without affinity masks, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setenv("MTA_THREADS", "100000")
        assert cli._workers() == 5

    def test_huge_thread_env_starts_a_small_pool(self, pipeline, tmp_path, monkeypatch):
        # the processes started per window are counted: the calling process
        # and two children, whatever MTA_THREADS asks for
        from deepmta import _fork

        started = []
        real_enter, real_sharded = _fork.Worker.__enter__, attribution.sharded

        def enter(self):
            started[-1] += 1
            return real_enter(self)

        def sharded(*args, **kwargs):
            started.append(0)
            return real_sharded(*args, **kwargs)

        monkeypatch.setattr(_fork.Worker, "__enter__", enter)
        monkeypatch.setattr(attribution, "sharded", sharded)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("MTA_THREADS", "100000")
        out = tmp_path / "a.jsonl"
        assert main([
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
            "--out", str(out), "--method", "auto", "--seed", "1",
        ]) == 0
        assert started == [2]
        assert out.read_bytes() == pipeline["attr"].read_bytes()
        assert_no_child_left()

    def test_no_fork_means_one_worker(self, monkeypatch):
        # where the platform cannot fork, every MTA_THREADS value runs the
        # serial path; a malformed one still fails
        from deepmta import _fork

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork", raising=False)
        for value in ("", "3", "100000"):
            monkeypatch.setenv("MTA_THREADS", value)
            assert _fork.processes(cli._workers()) == 1
        monkeypatch.setenv("MTA_THREADS", "0")
        with pytest.raises(ConfigError, match="MTA_THREADS"):
            cli._workers()

    def test_worker_numeric_error_exits_3(self, pipeline, tmp_path, monkeypatch, capsys):
        # an error raised in a worker process ends the run like one raised
        # in the caller: its exit code, no output file, no process left
        caller = os.getpid()
        scan = attribution._scan_block

        def failing(*args):
            if os.getpid() != caller:
                raise NumericError("non-finite logits in a worker")
            return scan(*args)

        monkeypatch.setattr(attribution, "_scan_block", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        out = tmp_path / "a.jsonl"
        code, _, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]), "--out", str(out),
        ])
        assert code == 3
        assert "non-finite logits in a worker" in err
        assert not out.exists()
        assert_no_child_left()

    def test_caller_shard_error_ends_the_workers(self, pipeline, tmp_path, monkeypatch, capsys):
        # an error in the caller's own shard, while its children still
        # work, ends the run with its exit code; the children are killed
        # and reaped, and no output file is written
        import time

        caller = os.getpid()
        scan = attribution._scan_block

        def failing(*args):
            if os.getpid() == caller:
                raise NumericError("non-finite logits in the caller")
            time.sleep(30)  # a child still at work when the caller fails
            return scan(*args)

        monkeypatch.setattr(attribution, "_scan_block", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("MTA_THREADS", "3")
        out = tmp_path / "a.jsonl"
        start = time.perf_counter()
        code, _, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]), "--out", str(out),
        ])
        assert code == 3
        assert time.perf_counter() - start < 20
        assert "non-finite logits in the caller" in err
        assert not out.exists()
        assert_no_child_left()

    def test_dead_worker_exits_4(self, pipeline, tmp_path, monkeypatch, capsys):
        # a worker killed before it sends its results (SIGKILL, as the OOM
        # killer sends) is an evaluation error naming its exit status
        import signal

        caller = os.getpid()
        scan = attribution._scan_block

        def dying(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return scan(*args)

        monkeypatch.setattr(attribution, "_scan_block", dying)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        out = tmp_path / "a.jsonl"
        code, _, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]), "--out", str(out),
        ])
        assert code == 4
        assert f"exit status {-signal.SIGKILL}" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert_no_child_left()

    def test_first_worker_death_seen_while_another_works(self, pipeline, tmp_path, monkeypatch, capsys):
        # at three workers the first child is killed while the second still
        # works: no later child holds the first one's pipe, so the caller
        # sees the death at once, then kills and reaps the second
        import signal
        import time

        caller = os.getpid()
        firsts = []
        real_sharded, real_shard = attribution.sharded, attribution._attribute_shard

        def sharded(role, work, parts):
            parts = list(parts)
            firsts.append(parts[1])
            return real_sharded(role, work, parts)

        def shard(params, vocab, plans, render, items):
            if os.getpid() != caller:
                if items is firsts[-1]:
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(30)
            return real_shard(params, vocab, plans, render, items)

        monkeypatch.setattr(attribution, "sharded", sharded)
        monkeypatch.setattr(attribution, "_attribute_shard", shard)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("MTA_THREADS", "3")
        out = tmp_path / "a.jsonl"
        start = time.perf_counter()
        code, _, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]), "--out", str(out),
        ])
        assert code == 4
        assert time.perf_counter() - start < 20
        assert f"exit status {-signal.SIGKILL}" in err
        assert not out.exists()
        assert_no_child_left()

    def test_import_loads_no_process_pool(self):
        # multiprocessing costs a cold import ~4 ms; neither the import nor
        # a run on two workers loads it
        code = "import sys, deepmta.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, check=True)
        assert proc.stdout.strip() == "[]"
        code = f"import sys\n{FORKING_RUN}\nprint('multiprocessing' in sys.modules, forks)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, check=True)
        assert proc.stdout.strip() == "False [2]"

    def test_child_never_writes_the_callers_buffered_stdout(self):
        # stdout is a pipe, so block-buffered: the marker printed before the
        # forks is still in the buffer each child copies, and is written once
        env = {key: value for key, value in SRC_ENV.items() if key != "PYTHONUNBUFFERED"}
        code = f"print('marker')\n{FORKING_RUN}\nimport sys\nprint(forks, file=sys.stderr)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == "marker\n"
        assert proc.stderr.splitlines()[-1] == "[2]"

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


class TestAttributeShardedFile:
    """`attribute` reads and decodes the file in the calling process, and
    each shard process builds, checks and attributes its own journeys and
    renders their lines: the bytes of the library's results saved, and a
    fault's precedence as if the whole file were read first."""

    ATTRIBUTE = ["--seed", "1", "--samples", "16"]

    def attribute(self, capsys, pipeline, data, out, method="auto"):
        return run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out), *self.ATTRIBUTE,
            "--method", method,
        ])

    @pytest.mark.parametrize("shape", ("desk", "mixed"))
    def test_lines_equal_the_saved_results(self, pipeline, tmp_path, capsys, monkeypatch, shape):
        # desk: 300 journeys of 1-4 events, converted or not; mixed: journeys
        # of up to 16 events, exact games up to 12 and sampled ones above
        from deepmta.attribution import save_attributions
        from deepmta.model import load_checkpoint

        data = pipeline["data"]
        if shape == "mixed":
            data = tmp_path / "mixed.jsonl"
            gen = [arg for arg in GEN_ARGS if arg != "--include-nonconverted"]
            gen[gen.index("--max-len") + 1] = "16"
            gen[gen.index("--journeys") + 1] = "60"
            assert main(gen + ["--out", str(data)]) == 0
        params, vocab, _ = load_checkpoint(pipeline["ckpt"])
        journeys = load_journeys(data)
        results = list(attribute_journeys(params, journeys, vocab, n_samples=16, seed=1))
        assert shape == "desk" or {r.method for r in results} == {"shapley_exact", "shapley_sampled"}
        expected = tmp_path / "expected.jsonl"
        save_attributions(expected, journeys, results)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MTA_THREADS", threads)
            out = tmp_path / f"attr-{threads}.jsonl"
            code, kv, _ = self.attribute(capsys, pipeline, data, out)
            assert code == 0
            assert out.read_bytes() == expected.read_bytes()
            assert kv["journeys"] == str(len(journeys))
            assert kv["unattributed"] == str(sum(r.unattributed for r in results))
        assert_no_child_left()

    def faulty(self, pipeline, tmp_path, monkeypatch, small_windows, edit):
        """The pipeline's journey file with `edit` applied to its lines, run
        at two workers. With small windows, each holds a few journeys, so
        that the faults fall in different windows."""
        lines = pipeline["data"].read_text().splitlines()
        edit(lines)
        data = tmp_path / "journeys.jsonl"
        data.write_text("\n".join(lines) + "\n")
        if small_windows:
            monkeypatch.setattr(attribution, "_WINDOW_ROWS", 64)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        return data, len(lines)

    def set_event(self, lines, idx, key, value):
        obj = json.loads(lines[idx])
        obj["events"][0][key] = value
        lines[idx] = json.dumps(obj)
        return obj["user_id"]

    def assert_failed(self, pipeline, code, kv, err, out, message, method="auto"):
        """The command exited 2 naming `message` and left nothing, and the
        library, given the file's journeys (`iter_journeys`), raises the
        same fault."""
        from deepmta.model import load_checkpoint

        assert code == 2
        assert message in err and "Traceback" not in err
        assert kv == {} and not out.exists() and os.listdir(out.parent) == ["journeys.jsonl"]
        assert_no_child_left()
        params, vocab, _ = load_checkpoint(pipeline["ckpt"])
        journeys = iter_journeys(out.parent / "journeys.jsonl")
        with pytest.raises(DeepMtaError) as raised:
            list(attribute_journeys(params, journeys, vocab, method=method.replace("-", "_"), n_samples=16, seed=1))
        assert message in str(raised.value)

    @pytest.mark.parametrize("method", ("auto", "shapley-exact"))
    @pytest.mark.parametrize("small_windows", (False, True))
    def test_record_fault_on_the_last_line_wins_over_an_unknown_token(
        self, pipeline, tmp_path, capsys, monkeypatch, small_windows, method,
    ):
        # auto: line 1 has an unknown channel and the last line a negative
        # ts; shapley-exact: line 2 has 13 events, a plan error, and the
        # last line is not JSON
        def edit(lines):
            if method == "auto":
                self.set_event(lines, 0, "channel", "zz")
                self.set_event(lines, len(lines) - 1, "ts", -5)
                return
            obj = json.loads(lines[1])
            obj["events"] = obj["events"][:1] * 13
            lines[1] = json.dumps(obj)
            lines[-1] = "{broken"

        data, n_lines = self.faulty(pipeline, tmp_path, monkeypatch, small_windows, edit)
        out = tmp_path / "a.jsonl"
        code, kv, err = self.attribute(capsys, pipeline, data, out, method)
        fault = "timestamp must be an integer >= 0" if method == "auto" else "malformed JSON"
        self.assert_failed(pipeline, code, kv, err, out, f"line {n_lines}: {fault}", method)
        assert "unknown channel" not in err and "at most 12 events" not in err

    @pytest.mark.parametrize("small_windows", (False, True))
    def test_shape_fault_before_a_malformed_line_is_named(self, pipeline, tmp_path, capsys, monkeypatch, small_windows):
        # line 5's event has no campaign; line 250 is not JSON
        def edit(lines):
            obj = json.loads(lines[4])
            del obj["events"][0]["campaign"]
            lines[4] = json.dumps(obj)
            lines[249] = "{broken"

        data, _ = self.faulty(pipeline, tmp_path, monkeypatch, small_windows, edit)
        out = tmp_path / "a.jsonl"
        code, kv, err = self.attribute(capsys, pipeline, data, out)
        self.assert_failed(pipeline, code, kv, err, out, "line 5: event 0 is missing field 'campaign'")
        assert "malformed JSON" not in err

    def test_first_unknown_token_in_file_order_is_named(self, pipeline, tmp_path, capsys, monkeypatch):
        # the first unknown token falls in the child's shard, a later one in
        # the caller's: the child's, first in the file, is named
        from deepmta._fork import shares

        lengths = [len(json.loads(line)["events"]) for line in pipeline["data"].read_text().splitlines()]
        caller_shard, child_shard = shares([2 ** n for n in lengths], 2)
        first = child_shard[0]
        later = next(idx for idx in caller_shard if idx > first)
        names = []
        data, _ = self.faulty(pipeline, tmp_path, monkeypatch, False, lambda lines: names.extend(
            self.set_event(lines, idx, "channel", token) for idx, token in ((first, "zz"), (later, "yy"))))
        out = tmp_path / "a.jsonl"
        code, kv, err = self.attribute(capsys, pipeline, data, out)
        self.assert_failed(pipeline, code, kv, err, out, f"journey {names[0]!r}, event 0: unknown channel token 'zz'")
        assert "'yy'" not in err

    def test_failed_write_keeps_the_old_file(self, pipeline, tmp_path, capsys, monkeypatch):
        # a full disk after 200 characters of the output: exit 2 naming the
        # error, the old file's bytes kept and no temporary file left
        monkeypatch.setattr(cli, "open", full_disk("attr.jsonl"), raising=False)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MTA_THREADS", "2")
        out = tmp_path / "attr.jsonl"
        out.write_text("old\n")
        code, kv, err = self.attribute(capsys, pipeline, pipeline["data"], out)
        assert code == 2
        assert "No space left on device" in err and "Traceback" not in err
        assert kv == {} and out.read_text() == "old\n" and os.listdir(tmp_path) == ["attr.jsonl"]
        assert_no_child_left()

    def test_fifo_and_symlink_written_in_place(self, pipeline, tmp_path, capsys, monkeypatch):
        # a rename would replace the FIFO or the link with a regular file
        import stat
        import threading

        monkeypatch.setenv("MTA_THREADS", "1")
        expected = pipeline["attr"].read_bytes()
        fifo = tmp_path / "attr.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                "--method", "auto", "--seed", "1", "--out"]
        code, kv, _ = run_cli(capsys, argv + [str(fifo)])
        reader.join(30)
        assert code == 0 and kv["out"] == str(fifo)
        assert got == [expected] and stat.S_ISFIFO(os.stat(fifo).st_mode)
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run_cli(capsys, argv + [str(link)])[0] == 0
        assert link.is_symlink() and target.read_bytes() == expected
        assert sorted(os.listdir(tmp_path)) == ["attr.fifo", "link.jsonl", "target.jsonl"]


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
        "channels_rewritten": ("channels", ["zz"] * len(obj["channels"])),
        "user_id_other": ("user_id", obj["user_id"] + "x"),
        "weights_short": ("weights", obj["weights"][:-1]),
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
        ("channels_rewritten", "attribution channels ['zz'"),
        ("user_id_other", "attribution user_id"),
        ("weights_short", "weight vector length does not match the journey"),
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


@pytest.mark.parametrize("case", ("doubled", "negative", "unattributed_nonzero"))
def test_attribution_weights_off_the_simplex_exit_2(pipeline, tmp_path, capsys, case):
    # clip-and-normalize writes weights >= 0 that sum to 1, or all 0 where
    # unattributed; report sums what it reads, so other weights would make
    # its TOTAL row differ from the attributed GMV
    lines = pipeline["attr"].read_text().splitlines()
    records = [json.loads(line) for line in lines]
    idx = next(i for i, r in enumerate(records) if not r["unattributed"] and len(r["weights"]) > 1)
    record = records[idx]
    n = len(record["weights"])
    if case == "doubled":
        record["weights"] = [2 * w for w in record["weights"]]
    elif case == "negative":
        record["weights"] = [1.5, -0.5] + [0.0] * (n - 2)
    else:
        record["unattributed"] = True
    lines[idx] = json.dumps(record)
    attr = tmp_path / "attr.jsonl"
    attr.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.csv"
    code, kv, err = run_cli(capsys, ["report", "--attr", str(attr), "--data", str(pipeline["data"]), "--out", str(out)])
    assert code == 2
    assert f"line {idx + 1}: weights must be >= 0 summing to 1" in err and "Traceback" not in err
    assert kv == {} and not out.exists()


@pytest.mark.parametrize("command", ("train", "attribute", "eval"))
def test_unpinned_blas_threads_noted_when_forking(pipeline, tmp_path, capsys, monkeypatch, command):
    # two processes, no BLAS thread count set and no BLAS setter found to
    # pin one thread in-process: each BLAS may start a thread per CPU, so a
    # stderr note says so; with a setter found, a count set, or on one
    # process, there is none
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = {
        "train": ["train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
                  "--out", str(tmp_path / "m.json"), "--epochs", "1", "--hidden-size", "4"],
        "attribute": ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                      "--out", str(tmp_path / "a.jsonl"), "--seed", "1"],
        "eval": ["eval", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                 "--roc-out", str(tmp_path / "roc.csv")],
    }[command]
    setter = (lambda threads: None, lambda: 1)
    for threads, blas_var, found, noted in (
        ("2", None, None, True), ("2", None, setter, False),
        ("2", "OMP_NUM_THREADS", None, False), ("1", None, None, False),
    ):
        monkeypatch.setenv("MTA_THREADS", threads)
        for name in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if blas_var:
            monkeypatch.setenv(blas_var, "1")
        monkeypatch.setattr(cli, "blas_threads", lambda: found)
        code, _, err = run_cli(capsys, argv)
        assert code == 0
        assert ("note: 2 processes and no OPENBLAS_NUM_THREADS/OMP_NUM_THREADS/MKL_NUM_THREADS set" in err) == noted
    assert_no_child_left()


def test_forks_pin_one_blas_thread_and_restore_the_callers(pipeline, tmp_path, capsys, monkeypatch):
    # with no BLAS thread count set, a stage on two processes sets one BLAS
    # thread in the caller before its first fork: the training helper, an
    # attribution child and eval's scorer each run one, as does the caller
    # while they live, and the caller has its own count back once the stage
    # returns
    import deepmta.trainer as trainer
    from deepmta import _fork

    if _fork.blas_threads() is None:
        pytest.skip("no BLAS thread-count setter found")
    set_threads, get_threads = _fork.blas_threads()
    caller, log = os.getpid(), tmp_path / "threads.log"

    def spy(module, name):
        work = getattr(module, name)

        def counted(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{'caller' if os.getpid() == caller else 'child'} {name} {get_threads()}\n")
            return work(*args)

        monkeypatch.setattr(module, name, counted)

    spy(trainer, "_top_step")
    spy(attribution, "_attribute_shard")
    spy(trainer, "_block_scores")
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("MTA_THREADS", "2")
    before = get_threads()
    set_threads(2)
    try:
        for argv in (
            ["train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
             "--out", str(tmp_path / "m.json"), "--epochs", "1", "--hidden-size", "4"],
            ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
             "--out", str(tmp_path / "a.jsonl"), "--seed", "1"],
            ["eval", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
             "--roc-out", str(tmp_path / "roc.csv")],
        ):
            code, _, _ = run_cli(capsys, argv)
            assert code == 0
            assert get_threads() == 2, argv[0]
    finally:
        set_threads(before)
    seen = set(log.read_text(encoding="utf-8").splitlines())
    assert {"child _top_step 1", "child _attribute_shard 1", "child _block_scores 1"} <= seen
    assert {line.split()[-1] for line in seen} == {"1"}, seen
    assert_no_child_left()


@pytest.mark.parametrize(("command", "role"), (("train", "reader"), ("eval", "reader"), ("eval", "scorer")))
def test_killed_reader_or_scorer_exits_4_and_writes_nothing(pipeline, tmp_path, capsys, monkeypatch, command, role):
    # the journey reader process (every file splits here) or eval's scorer
    # killed (SIGKILL, as the OOM killer sends) before it replies: exit 4
    # naming it and its exit status, no output, no process left
    import signal

    import deepmta.journey as journey
    import deepmta.trainer as trainer

    caller = os.getpid()
    module, name = (journey, "_journey_columns") if role == "reader" else (trainer, "_block_scores")
    work = getattr(module, name)

    def dying(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return work(*args)

    monkeypatch.setattr(module, name, dying)
    monkeypatch.setattr(journey, "READ_SPLIT_BYTES", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("MTA_THREADS", "2")
    out = tmp_path / "out.json"
    argv = {
        "train": ["train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                  "--epochs", "1", "--hidden-size", "4"],
        "eval": ["eval", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]), "--roc-out", str(out)],
    }[command]
    code, kv, err = run_cli(capsys, argv)
    assert code == 4
    assert f"the {'journey reader' if role == 'reader' else 'eval scorer'} process ended with exit status " \
        f"{-signal.SIGKILL}" in err and "Traceback" not in err
    assert kv == {} and os.listdir(tmp_path) == []
    assert_no_child_left()


def test_train_and_eval_bytes_at_one_and_two_workers(pipeline, tmp_path, capsys, monkeypatch):
    # LF, CRLF and lone-CR copies of one file (every file of two lines or
    # more splits here, but lone CRs leave no \n to split at): the same
    # checkpoint, history, ROC CSV and stdout keys at one and two workers
    import deepmta.journey as journey

    monkeypatch.setattr(journey, "READ_SPLIT_BYTES", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    outputs = set()
    for end in (b"\n", b"\r\n", b"\r"):
        data = tmp_path / "journeys.jsonl"
        data.write_bytes(pipeline["data"].read_bytes().replace(b"\n", end))
        for threads in ("1", "2"):
            monkeypatch.setenv("MTA_THREADS", threads)
            ckpt, roc = tmp_path / "model.json", tmp_path / "roc.csv"
            _, trained, _ = run_cli(capsys, ["train", "--data", str(data), "--vocab", str(pipeline["vocab"]),
                                             "--out", str(ckpt), "--epochs", "1", "--hidden-size", "4"])
            _, evaluated, _ = run_cli(capsys, ["eval", "--model", str(ckpt), "--data", str(data),
                                               "--roc-out", str(roc)])
            keys = tuple((k, v) for kv in (trained, evaluated) for k, v in kv.items() if k != "seconds")
            outputs.add((ckpt.read_bytes(), ckpt.with_suffix(".history.csv").read_bytes(), roc.read_bytes(), keys))
    assert len(outputs) == 1


@pytest.mark.parametrize("what", ("data", "vocab"))
def test_json_nested_too_deep_exits_2(pipeline, tmp_path, capsys, what):
    # the decoder's recursion limit is a malformed file, named, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "\n")
    data, vocab = (deep, pipeline["vocab"]) if what == "data" else (pipeline["data"], deep)
    out = tmp_path / "m.json"
    code, kv, err = run_cli(capsys, ["train", "--data", str(data), "--vocab", str(vocab), "--out", str(out)])
    assert code == 2 and "Traceback" not in err
    assert ("line 1: malformed JSON" if what == "data" else f"vocabulary {deep} is not JSON") in err
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
def test_samples_below_one_exits_2(pipeline, tmp_path, capsys, monkeypatch, samples):
    # a 13-event journey is sampled, so it draws --samples permutations.
    # Short journeys are exact and draw none, yet the flag is checked before
    # any journey is attributed, also where 1200 short ones fill the first
    # windows (at one worker) ahead of a long one
    events = [{"channel": "ch01", "campaign": "cmp00", "ts": 60 * i} for i in range(13)]
    long = json.dumps({"user_id": "u", "events": events, "converted": True, "gmv": 5.0}) + "\n"
    short = pipeline["data"].read_text() * 4
    monkeypatch.setenv("MTA_THREADS", "1")
    data, out = tmp_path / "journeys.jsonl", tmp_path / "a.jsonl"
    for journeys in (long, short, short + long):
        data.write_text(journeys)
        code, kv, err = run_cli(capsys, [
            "attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out),
            "--samples", samples,
        ])
        assert code == 2
        assert ">= 1" in err and "Traceback" not in err and "attributed" not in err
        assert kv == {} and not out.exists()


@pytest.mark.parametrize("unbuffered", ("1", ""))
def test_closed_stdout_exits_141_without_a_traceback(pipeline, tmp_path, unbuffered):
    # the reader is gone before the first key is written, so every write
    # fails: at the first print when stdout is unbuffered, else at the flush.
    # (Reading a line first would race the child's remaining writes.) One
    # BLAS thread, so that the two-process eval prints no note on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "deepmta", "eval", "--model", str(pipeline["ckpt"]),
             "--data", str(pipeline["data"]), "--roc-out", str(tmp_path / "roc.csv")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.CLOSED_STDOUT_EXIT == 141
    assert proc.stderr == ""
    assert (tmp_path / "roc.csv").exists()


def command_outputs(pipeline, root):
    """command -> (argv writing under `root` at one worker, {output file
    name: the module whose `open` writes it})."""
    import deepmta.journey as journey
    import deepmta.model as model
    import deepmta.report as report
    import deepmta.trainer as trainer

    ckpt, data = str(pipeline["ckpt"]), str(pipeline["data"])
    return {
        # 40 channels make a vocabulary of more than 200 characters
        "gen": (GEN_ARGS + ["--channels", "40", "--out", str(root / "data.jsonl")],
                {"data.jsonl": journey, "data.vocab.json": journey}),
        # six epochs make a history of more than 200 characters
        "train": (["train", "--data", data, "--vocab", str(pipeline["vocab"]), "--out", str(root / "model.json"),
                   "--epochs", "6", "--hidden-size", "4", "--seed", "3"],
                  {"model.json": model, "model.history.csv": trainer}),
        "eval": (["eval", "--model", ckpt, "--data", data, "--roc-out", str(root / "roc.csv")], {"roc.csv": trainer}),
        "attribute": (["attribute", "--model", ckpt, "--data", data, "--out", str(root / "attr.jsonl")],
                      {"attr.jsonl": cli}),
        "report": (["report", "--attr", str(pipeline["attr"]), "--data", data, "--out", str(root / "report.csv"),
                    "--json", str(root / "report.json")],
                   {"report.csv": report, "report.json": report}),
    }


@pytest.mark.parametrize(
    "command, name",
    (
        ("gen", "data.jsonl"), ("gen", "data.vocab.json"), ("train", "model.json"), ("train", "model.history.csv"),
        ("eval", "roc.csv"), ("attribute", "attr.jsonl"), ("report", "report.csv"), ("report", "report.json"),
    ),
)
def test_failed_write_leaves_every_output_as_it_was(pipeline, tmp_path, capsys, monkeypatch, command, name):
    # a full disk after 200 characters of one output, an old file of which
    # is there: exit 2 naming the error, its bytes kept, and neither the
    # command's other outputs nor a temporary file left, also where the
    # failed output is written after another
    argv, outputs = command_outputs(pipeline, tmp_path)[command]
    monkeypatch.setattr(outputs[name], "open", full_disk(name), raising=False)
    monkeypatch.setenv("MTA_THREADS", "1")
    (tmp_path / name).write_text("old\n")
    code, kv, err = run_cli(capsys, argv)
    assert code == 2
    assert "No space left on device" in err and "Traceback" not in err
    assert kv == {} and os.listdir(tmp_path) == [name] and (tmp_path / name).read_text() == "old\n"


def test_interrupt_exits_130_without_a_traceback(pipeline, tmp_path):
    # Ctrl-C reaches every process of the terminal's process group: here a
    # two-process train in a session of its own. It exits 130 with one
    # stderr line, its helper process reaped and no file written
    import signal
    import time

    env = dict(SRC_ENV, MTA_THREADS="2", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "deepmta", "train", "--data", str(pipeline["data"]), "--vocab", str(pipeline["vocab"]),
         "--out", str(tmp_path / "model.json"), "--epochs", "1000", "--hidden-size", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        first = proc.stderr.readline()
        assert first.startswith("training on") and "2 processes" in first
        os.killpg(proc.pid, signal.SIGINT)
        stdout, rest = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == cli.INTERRUPTED_EXIT == 130
    assert stdout == "" and "Traceback" not in rest and rest.strip() == "interrupted"
    # no process of the group is left: the helper, once reaped, is gone
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the interrupted train is left"
        time.sleep(0.05)
    assert os.listdir(tmp_path) == []


def test_stop_at_a_fork_reaches_the_child_inside_its_own_handling(monkeypatch, capfd):
    # a Ctrl-C that reaches a child before it is out of os.fork (in Python's
    # at-fork hooks) is held back until the child's own handling, which ends
    # it with status 1 and prints nothing; the caller's mask is restored
    import signal

    from deepmta import _fork

    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            try:
                os.kill(os.getpid(), signal.SIGINT)
                signal.pthread_sigmask(signal.SIG_BLOCK, [])  # a call, where a pending interrupt is raised
            except KeyboardInterrupt:  # taken in the fork: not held back
                os._exit(99)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(WorkerError, match="exit status 1 "):
        with _fork.Worker.computing("a test worker", lambda: 1) as worker:
            worker.result()
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert capfd.readouterr().err == ""
    assert_no_child_left()


@pytest.mark.parametrize("target", ("process", "group"))
def test_sigterm_exits_143_and_leaves_no_temporary_file(tmp_path, target):
    # `kill PID` reaches the command alone, a service manager's stop every
    # process of its group: here a two-process gen in a session of its own,
    # stopped once its writer has begun the temporary file. Either way it
    # exits 143 with one stderr line, its writer reaped, the temporary file
    # removed and the old output's bytes kept
    import signal
    import time

    out = tmp_path / "journeys.jsonl"
    out.write_text("old\n")
    env = dict(SRC_ENV, MTA_THREADS="2", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "deepmta", "gen", "--out", str(out), "--journeys", "300000", "--seed", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    tmp = tmp_path / f".{out.name}.{proc.pid}.tmp"
    try:
        deadline = time.monotonic() + 60
        while not tmp.exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "gen wrote no temporary file"
            time.sleep(0.01)
        if target == "group":
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            os.kill(proc.pid, signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == cli.TERMINATED_EXIT == 143
    assert stdout == "" and "Traceback" not in stderr and stderr.strip() == "terminated"
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the terminated gen is left"
        time.sleep(0.05)
    assert sorted(os.listdir(tmp_path)) == [out.name]
    assert out.read_text() == "old\n"


def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    # perfbench and library callers run main in their own process
    import signal

    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["gen", "--out", str(tmp_path / "j.jsonl"), "--journeys", "20"]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


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


@pytest.mark.parametrize("command", ("eval", "train", "attribute"))
def test_unknown_channel_names_the_journey(pipeline, tmp_path, capsys, command):
    lines = pipeline["data"].read_text().splitlines()[:8]
    obj = json.loads(lines[5])
    obj["events"][-1]["channel"] = "zz"
    lines[5] = json.dumps(obj)
    data = tmp_path / "journeys.jsonl"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--model", str(pipeline["ckpt"]), "--data", str(data), "--roc-out", str(out)],
        "train": ["train", "--data", str(data), "--vocab", str(pipeline["vocab"]), "--out", str(out),
                  "--epochs", "1", "--hidden-size", "4"],
        "attribute": ["attribute", "--model", str(pipeline["ckpt"]), "--data", str(data), "--out", str(out)],
    }[command]
    code, kv, err = run_cli(capsys, argv)
    assert code == 2
    event = len(obj["events"]) - 1
    assert f"journey {obj['user_id']!r}, event {event}: unknown channel token 'zz'" in err
    assert "Traceback" not in err
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


@pytest.mark.parametrize("command", [pytest.param(command, id=f"{command}-v2") for command in ("eval", "attribute")])
def test_non_finite_checkpoint_exits_3(pipeline, tmp_path, capsys, command):
    obj = json.loads(pipeline["ckpt"].read_text())
    set_tensor_entry(obj, "W_out", 0, float("nan"))
    ckpt = tmp_path / "nan_model.json"
    ckpt.write_text(json.dumps(obj))
    out = tmp_path / "out"
    extra = ["--roc-out", str(out)] if command == "eval" else ["--out", str(out)]
    code, kv, err = run_cli(capsys, [command, "--model", str(ckpt), "--data", str(pipeline["data"]), *extra])
    assert code == 3
    assert "W_out" in err
    assert kv == {} and not out.exists()


@pytest.mark.parametrize("field", ("dropout_p", "alpha"))
@pytest.mark.parametrize("command", ("eval", "attribute"))
def test_hyperparam_too_large_for_a_float_exits_2(pipeline, tmp_path, capsys, command, field):
    obj = json.loads(pipeline["ckpt"].read_text())
    obj["hyperparams"][field] = 10 ** 400
    ckpt = tmp_path / "huge_model.json"
    ckpt.write_text(json.dumps(obj))
    out = tmp_path / "out"
    extra = ["--roc-out", str(out)] if command == "eval" else ["--out", str(out)]
    code, kv, err = run_cli(capsys, [command, "--model", str(ckpt), "--data", str(pipeline["data"]), *extra])
    assert code == 2
    assert f"hyperparam {field!r} must be a finite number" in err and "Traceback" not in err
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


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
def test_train_peak_memory_grows_less_than_1kb_per_journey(tmp_path):
    # train reads its file into a columnar table: its peak grows by the
    # table's bytes per event, not by a journey's objects
    data = tmp_path / "journeys.jsonl"
    assert main(["gen", "--out", str(data), "--journeys", "20000", "--max-len", "4", "--include-nonconverted",
                 "--seed", "9"]) == 0
    small = tmp_path / "small.jsonl"
    small.write_text("".join(data.read_text().splitlines(keepends=True)[:2000]))
    child = (
        "import resource, sys\n"
        "from deepmta.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(f'peak_kb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}')\n"
        "sys.exit(code)\n"
    )
    peaks = {}
    for n, path in ((2000, small), (20000, data)):
        proc = subprocess.run(
            [sys.executable, "-c", child, "train", "--data", str(path), "--vocab", str(data.with_suffix(".vocab.json")),
             "--out", str(tmp_path / f"model-{n}.json"), "--preset", "desk", "--hidden-size", "8", "--epochs", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        peaks[n] = int(parse_kv(proc.stdout)["peak_kb"])
    assert peaks[20000] - peaks[2000] < 18000, peaks


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
def test_attribute_peak_memory_grows_less_than_100_bytes_per_journey(tmp_path):
    # attribute holds one window's records, results and lines, never the
    # file's: with every window full, its peak and its workers' do not grow
    # with the number of windows. About 9 bytes per journey on a 2-vCPU x86
    # host at 10k -> 30k journeys
    data = tmp_path / "journeys.jsonl"
    assert main(["gen", "--out", str(data), "--journeys", "30000", "--max-len", "4", "--include-nonconverted",
                 "--seed", "9"]) == 0
    small = tmp_path / "small.jsonl"
    small.write_text("".join(data.read_text().splitlines(keepends=True)[:10000]))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(small), "--vocab", str(data.with_suffix(".vocab.json")), "--out", str(model),
                 "--preset", "desk", "--hidden-size", "8", "--epochs", "1"]) == 0
    child = (
        "import resource, sys\n"
        "from deepmta.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))\n"
        "print(f'peak_kb={peak}')\n"
        "sys.exit(code)\n"
    )
    env = dict(SRC_ENV, MTA_THREADS="2", OPENBLAS_NUM_THREADS="1")
    peaks = {}
    for n, path in ((10000, small), (30000, data)):
        proc = subprocess.run(
            [sys.executable, "-c", child, "attribute", "--model", str(model), "--data", str(path),
             "--out", str(tmp_path / f"attr-{n}.jsonl"), "--seed", "1"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        kv = parse_kv(proc.stdout)
        assert int(kv["journeys"]) == n and int(kv["windows"]) >= 3
        peaks[n] = int(kv["peak_kb"])
    assert (peaks[30000] - peaks[10000]) * 1024 < 100 * 20000, peaks
