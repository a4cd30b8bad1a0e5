"""Pipeline driver: gen, train, eval, attribute, and report subcommands.

stdout carries machine-parseable key=value lines, ending with the
subcommand's `seconds=`; progress and prose go to stderr. Exit codes: 0 ok,
else the `exit_code` of the package error that ended the run (2
usage/config/data/shape, 3 numeric failure or trace mismatch, 4 evaluation
impossible), 2 for an unusable path, 130 when interrupted (Ctrl-C), 143
when terminated (SIGTERM), and 141 when the reader of stdout closed it
before every key was written. A failed, interrupted or terminated command
leaves no partial output: each is written to a temporary file and renamed
once all of the command's outputs are written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

# attribute_journey and save_attributions are not called here, but
# perfbench's tracer wraps them by these names, so they must stay importable
from .attribution import (  # noqa: F401
    METHODS,
    PERMUTATION_SAMPLES,
    AttributionResult,
    GameStats,
    attribute_journey,
    attribute_journeys,
    load_attributions,
    save_attributions,
)
from ._fork import BLAS_THREAD_VARS, Worker, blas_threads, processes, reply
from .errors import ConfigError, DeepMtaError, ValidationError
# generate_synthetic is not called here either; the tracer wraps it by this name
from .journey import (  # noqa: F401
    DRAW_CONVERTED,
    GeneratorConfig,
    JourneyRecords,
    _synthetic_journey,
    generate_synthetic,
    load_journeys,
    load_vocabulary,
    read_table,
    save_journeys,
    save_vocabulary,
    synthetic_draws,
)
from .model import load_checkpoint, save_checkpoint
from .report import ChannelReport, aggregate_channels, emit_report, last_click_report
from .trainer import (
    TrainConfig,
    evaluate_roc,
    save_loss_history,
    save_roc_csv,
    train,
)

import numpy as np

# 128 + SIGPIPE: the status a shell reports for a command that a closed pipe stopped
CLOSED_STDOUT_EXIT = 141
# 128 + SIGINT: the status a shell reports for a command that Ctrl-C stopped
INTERRUPTED_EXIT = 130
# 128 + SIGTERM: the status a shell reports for a command that `kill` stopped
TERMINATED_EXIT = 143
# how far from 1 an attributed record's weights may sum (by math.fsum)
WEIGHT_SUM_TOL = 1e-9
# draw records per pickle that `gen` sends its writer process. On a 2-vCPU
# x86 host, 10k acceptance journeys took 122-124 ms at 16-256 records,
# 135 ms at 1024 and 167 ms at 4096: the writer waits for the first chunk,
# and the caller for the writer to finish the last
GEN_CHUNK = 64


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _note_blas_threads(processes: int) -> None:
    """A stderr note when processes > 1, no BLAS thread count is set and the
    BLAS's setter is not found, so that the forks cannot pin one thread
    (`_fork.blas_threads`): each process's BLAS may then start a thread per
    CPU, and they contend."""
    if processes > 1 and not any(os.environ.get(name) for name in BLAS_THREAD_VARS) and blas_threads() is None:
        _info(f"note: {processes} processes and no {'/'.join(BLAS_THREAD_VARS)} set; each BLAS may start a thread "
              "per CPU, which can make the run several times slower (set OPENBLAS_NUM_THREADS=1)")


def _check_outputs(*paths, inputs=()) -> None:
    """Fail before any work when an output path cannot be written (it names
    a directory, its directory is missing, or it is not writable) or when
    two of the command's paths, outputs or `inputs`, name the same file.
    Creates and truncates nothing; None (an output not asked for) is
    skipped."""
    outputs = [Path(p) for p in paths if p]
    for path in outputs:
        if path.is_dir():
            raise ConfigError(f"output path {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"output path {path}: directory {path.parent} does not exist")
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise ConfigError(f"output path {path} is not writable")
    seen = {}
    for path in [*outputs, *map(Path, inputs)]:
        other = seen.setdefault(path.resolve(), path)
        if other is not path:
            raise ConfigError(f"paths {other} and {path} name the same file")


def _given_fields(args, config) -> dict:
    """field -> value of each flag whose dest names a field of the dataclass
    `config`. A flag not given is None and left out: its field keeps its default."""
    names = {f.name for f in fields(config)}
    return {key: value for key, value in vars(args).items() if key in names and value is not None}


@contextlib.contextmanager
def _replacing(path: str | Path | None):
    """A temporary path next to `path`, renamed to `path` when the block
    succeeds and removed when it fails, so that a failed command leaves no
    partial file at `path` and an existing one as it was. A command with two
    outputs enters both in one `with`, so that neither is renamed before
    both are written. A symlink, or a path that names something other than
    a regular file (a device such as /dev/stdout, a FIFO), is yielded itself
    and written in place: a rename would replace that node, not write
    through it. None (an output not asked for) is yielded as None."""
    path = None if path is None else Path(path)
    if path is None or path.is_symlink() or path.exists() and not path.is_file():
        yield path
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_received(path: Path, cfg: GeneratorConfig, vocab, reads: int, writes: int) -> None:
    """`gen`'s writer process: builds the journeys of the draw records
    read from the caller, chunk by chunk, and writes them with
    `save_journeys`; then its `_fork.reply` to the caller, None or the
    error that stopped it. After an error it still reads to the end, so
    that the caller's sends fail only when this process dies."""

    def journeys(pipe):
        while True:
            try:
                chunk = pickle.load(pipe)
            except EOFError:
                return
            for draw in chunk:
                yield _synthetic_journey(cfg, vocab, draw)

    def write() -> None:
        with open(reads, "rb") as pipe:
            try:
                save_journeys(path, journeys(pipe))
            except Exception:
                while pipe.read(1 << 16):
                    pass
                raise

    reply(writes, write)


def _cmd_gen(args) -> None:
    cfg = GeneratorConfig(**_given_fields(args, GeneratorConfig))
    out = Path(args.out)
    vocab_path = out.with_suffix(".vocab.json")
    _check_outputs(out, vocab_path)
    workers = processes(_workers(), 2)
    vocab, draws = synthetic_draws(cfg, seed=args.seed)
    converted = 0

    def counted():
        # each journey is drawn, counted and sent on in turn; none is kept
        nonlocal converted
        for draw in draws:
            converted += draw[DRAW_CONVERTED]
            yield draw

    with _replacing(out) as tmp, _replacing(vocab_path) as vocab_tmp:
        if workers == 1:
            save_journeys(tmp, (_synthetic_journey(cfg, vocab, draw) for draw in counted()))
        else:
            # the draws are sequential, so one writer process builds, checks
            # and writes the journeys while this one draws the next
            records = counted()
            with Worker("the journey writer process", functools.partial(_write_received, tmp, cfg, vocab)) as writer:
                with writer.sending() as pipe:
                    for chunk in iter(lambda: list(itertools.islice(records, GEN_CHUNK)), []):
                        pickle.dump(chunk, pipe, pickle.HIGHEST_PROTOCOL)
                writer.result()
        save_vocabulary(vocab_tmp, vocab)
    _emit("journeys", cfg.n_journeys)
    _emit("conversion_rate", repr(converted / cfg.n_journeys))
    _emit("out", out)
    _emit("vocab", vocab_path)


def _cmd_train(args) -> None:
    history_path = args.history or str(Path(args.out).with_suffix(".history.csv"))
    _check_outputs(args.out, history_path, inputs=(args.data, args.vocab))
    vocab = load_vocabulary(args.vocab)
    cfg = TrainConfig.preset(args.preset, **_given_fields(args, TrainConfig))
    workers = _workers()
    # the file is read line by line into the table; no journey outlives its line
    table = read_table(args.data, vocab, workers)

    def announce(processes: int) -> None:
        _info(f"training on {len(table)} journeys ({len(table.times)} events, {table.nbytes / 2**20:.1f} MB table; "
              f"preset {args.preset}, H={cfg.hidden_size}, {cfg.epochs} epochs) "
              f"on {processes} process{'es' if processes > 1 else ''}")
        _note_blas_threads(processes)

    result = train(table, vocab, cfg, workers=workers, on_start=announce)
    with _replacing(args.out) as ckpt, _replacing(history_path) as history:
        save_checkpoint(ckpt, result.params, result.vocab, seed=cfg.seed)
        save_loss_history(history, result.train_losses, result.val_losses)
    _emit("final_train_loss", repr(result.train_losses[-1]))
    _emit("final_val_loss", repr(result.val_losses[-1]))
    _emit("checkpoint", args.out)
    _emit("history", history_path)


def _cmd_eval(args) -> None:
    _check_outputs(args.roc_out, inputs=(args.model, args.data))
    params, vocab, _ = load_checkpoint(args.model)
    workers = _workers()
    table = read_table(args.data, vocab, workers)
    result = evaluate_roc(params, vocab, table, workers=workers, on_start=_note_blas_threads)
    with _replacing(args.roc_out) as roc:
        save_roc_csv(roc, result)
    _emit("auc", repr(result.auc))
    _emit("per_step_accuracy", repr(result.per_step_accuracy))
    _emit("roc_out", args.roc_out)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers() -> int:
    """MTA_THREADS, capped at the CPUs this process may run on (their count
    by default); each stage runs as many processes as `_fork.processes`
    allows it. More workers than CPUs add no speed, only processes."""
    env = os.environ.get("MTA_THREADS", "").strip()
    workers = _usable_cpus()
    if env:
        try:
            asked = int(env)
        except ValueError:
            raise ConfigError(f"MTA_THREADS must be an integer, got {env!r}") from None
        if asked < 1:
            raise ConfigError("MTA_THREADS must be >= 1")
        workers = min(asked, workers)
    return workers


def _cmd_attribute(args) -> None:
    _check_outputs(args.out, inputs=(args.model, args.data))
    params, vocab, _ = load_checkpoint(args.model)
    stats = GameStats()
    workers = _workers()
    _note_blas_threads(processes(workers))
    # this process decodes the file's lines; the shard processes build,
    # check and attribute the journeys and render their lines
    lines = attribute_journeys(
        params, JourneyRecords(args.data), vocab, method=args.method.replace("-", "_"), n_samples=args.samples,
        seed=args.seed, workers=workers, stats=stats,
    )
    count = 0
    with _replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(line)
            if count % 200 == 0:
                _info(f"attributed {count} journeys")
    _emit("journeys", count)
    _emit("unattributed", stats.unattributed)
    _emit("out", args.out)
    _emit("windows", stats.windows)
    _emit("blocks", stats.blocks)
    _emit("node_steps", stats.node_steps)
    _emit("rechecked", stats.rechecked)


def _cmd_report(args) -> None:
    _check_outputs(args.out, args.json, inputs=(args.attr, args.data))
    journeys = load_journeys(args.data)
    records = load_attributions(args.attr)
    if len(records) != len(journeys):
        raise ValidationError(
            f"mismatched journey sets: {len(journeys)} data journeys vs {len(records)} attribution lines"
        )
    pairs = []
    for idx, (journey, record) in enumerate(zip(journeys, records), start=1):
        if record["user_id"] != journey.user_id:
            raise ValidationError(f"line {idx}: attribution user_id {record['user_id']!r} does not match data")
        if len(record["weights"]) != len(journey.events):
            raise ValidationError(f"line {idx}: weight vector length does not match the journey")
        if record["channels"] != journey.channels:
            raise ValidationError(f"line {idx}: attribution channels {record['channels']!r} do not match data")
        # clip-and-normalize's weights: >= 0 and summing to 1, or all 0 where unattributed
        weights, total = record["weights"], math.fsum(record["weights"])
        if any(weights) if record["unattributed"] else min(weights, default=0) < 0 or abs(total - 1) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"line {idx}: weights must be >= 0 summing to 1, or all 0 if unattributed; they sum to {total!r}"
            )
        result = AttributionResult(
            raw_weights=np.asarray(record["raw_weights"], dtype=np.float64),
            intercept=float(record["intercept"]),
            weights=np.asarray(record["weights"], dtype=np.float64),
            method=record["method"],
            unattributed=bool(record["unattributed"]),
        )
        pairs.append((journey, result))
    if pairs:
        report = aggregate_channels(pairs, method="deepmta")
        baseline = last_click_report(pairs)
    else:
        report = ChannelReport(method="deepmta")
        baseline = ChannelReport(method="last_click")
    with _replacing(args.out) as out, _replacing(args.json) as mirror:
        emit_report(report, baseline, out, fmt="csv")
        if mirror:
            emit_report(report, baseline, mirror, fmt="json")
    _emit("channels", len(set(report.channels) | set(baseline.channels)))
    _emit("attributed", report.attributed_journeys)
    _emit("unattributed", report.unattributed_journeys)
    _emit("total_deepmta_gmv", repr(report.total_gmv))
    _emit("total_lastclick_gmv", repr(baseline.total_gmv))
    _emit("out", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deepmta", description="Attribution pipeline driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded synthetic journey dataset")
    gen.add_argument("--out", required=True, help="output JSONL path (vocab written alongside)")
    # each GeneratorConfig flag's dest is the field it sets; a flag not given keeps the field's default
    gen.add_argument("--journeys", type=int, dest="n_journeys", metavar="JOURNEYS")
    gen.add_argument("--channels", type=int, dest="n_channels", metavar="CHANNELS")
    gen.add_argument("--campaigns", type=int, dest="n_campaigns", metavar="CAMPAIGNS")
    gen.add_argument("--max-len", type=int)
    gen.add_argument("--key-channel", type=int, dest="key_channel_index", metavar="KEY_CHANNEL")
    gen.add_argument("--key-lift", type=float)
    gen.add_argument("--base-rate", type=float)
    gen.add_argument("--time-span-hours", type=float)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--include-nonconverted", action="store_true", default=None)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train a conversion model")
    tr.add_argument("--data", required=True)
    tr.add_argument("--vocab", required=True)
    tr.add_argument("--out", required=True, help="checkpoint JSON path")
    # each TrainConfig flag's dest is the field it sets; a flag not given keeps the preset's value
    tr.add_argument("--preset", choices=("desk", "paper"), default="desk")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--learning-rate", type=float)
    tr.add_argument("--hidden-size", type=int)
    tr.add_argument("--dropout", type=float, dest="dropout_p", metavar="DROPOUT")
    tr.add_argument("--history", help="loss-history CSV path (default: alongside the checkpoint)")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="step-level ROC/AUC of a checkpoint")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--roc-out", required=True)
    ev.set_defaults(func=_cmd_eval)

    at = sub.add_parser("attribute", help="per-event attribution for every journey")
    at.add_argument("--model", required=True)
    at.add_argument("--data", required=True)
    at.add_argument("--out", required=True, help="attribution JSONL path")
    at.add_argument("--method", choices=sorted(method.replace("_", "-") for method in METHODS), default="auto")
    at.add_argument("--samples", type=int, default=PERMUTATION_SAMPLES)
    at.add_argument("--seed", type=int, default=0)
    at.set_defaults(func=_cmd_attribute)

    rp = sub.add_parser("report", help="channel GMV comparison against last-click")
    rp.add_argument("--attr", required=True)
    rp.add_argument("--data", required=True)
    rp.add_argument("--out", required=True, help="comparison CSV path")
    rp.add_argument("--json", help="optional JSON mirror path")
    rp.set_defaults(func=_cmd_report)
    return parser


class _Terminated(BaseException):
    """A SIGTERM, raised in the main thread so that it unwinds as Ctrl-C
    does: through every `_replacing` and every `_fork.Worker` on the way
    out. Forked children inherit the handler and, as for Ctrl-C, leave
    silently."""


def _terminate(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """SIGTERM raises _Terminated inside the block; the previous handler
    is restored after it, for callers that run `main` in their own process.
    Nothing changes where SIGTERM is ignored (as Python leaves an ignored
    SIGINT ignored), outside the main thread, where no handler can be set,
    or where the handler was not set from Python, so could not be restored."""
    previous = signal.getsignal(signal.SIGTERM)
    if previous in (None, signal.SIG_IGN) or threading.current_thread() is not threading.main_thread():
        yield
        return
    signal.signal(signal.SIGTERM, _terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        with _sigterm_unwinds():
            args.func(args)
            _emit("seconds", f"{time.perf_counter() - start:.3f}")
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so that the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT_EXIT
    except (OSError, DeepMtaError) as exc:  # OSError: a path that is missing, a directory, or not writable
        _info(f"error: {exc}")
        return getattr(exc, "exit_code", 2)
    except KeyboardInterrupt:
        # every forked child has been reaped and every temporary file removed
        # on the way out
        _info("interrupted")
        return INTERRUPTED_EXIT
    except _Terminated:
        _info("terminated")
        return TERMINATED_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
