"""Pipeline driver: gen, train, eval, attribute, and report subcommands.

stdout carries machine-parseable key=value lines, ending with the
subcommand's `seconds=`; progress and prose go to stderr. Exit codes: 0 ok,
else the `exit_code` of the package error that ended the run (2
usage/config/data/shape, 3 numeric failure or trace mismatch, 4 evaluation
impossible), and 2 for an unusable path.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

# attribute_journey is not called here, but perfbench's tracer wraps
# deepmta.cli.attribute_journey, so the name must stay importable
from .attribution import (  # noqa: F401
    AttributionResult,
    GameStats,
    attribute_journey,
    attribute_journeys,
    load_attributions,
    save_attributions,
)
from .errors import ConfigError, DeepMtaError, ValidationError
from .journey import (
    GeneratorConfig,
    generate_synthetic,
    load_journeys,
    load_vocabulary,
    save_journeys,
    save_vocabulary,
)
from .model import load_checkpoint, save_checkpoint
from .report import ChannelReport, aggregate_channels, emit_report, last_click_report
from .trainer import TrainConfig, evaluate_roc, save_loss_history, save_roc_csv, train

import numpy as np

_METHOD_FLAGS = {
    "ols": "ols",
    "kernel": "kernel_ols",
    "shapley-exact": "shapley_exact",
    "shapley-sampled": "shapley_sampled",
    "auto": "auto",
}


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


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


def _cmd_gen(args) -> None:
    cfg = GeneratorConfig(
        n_journeys=args.journeys,
        n_channels=args.channels,
        n_campaigns=args.campaigns,
        max_len=args.max_len,
        key_channel_index=args.key_channel,
        key_lift=args.key_lift,
        base_rate=args.base_rate,
        time_span_hours=args.time_span_hours,
        include_nonconverted=args.include_nonconverted,
    )
    out = Path(args.out)
    vocab_path = out.with_suffix(".vocab.json")
    _check_outputs(out, vocab_path)
    vocab, journeys = generate_synthetic(cfg, seed=args.seed)
    save_journeys(out, journeys)
    save_vocabulary(vocab_path, vocab)
    converted = sum(1 for j in journeys if j.converted)
    _emit("journeys", len(journeys))
    _emit("conversion_rate", repr(converted / len(journeys)))
    _emit("out", out)
    _emit("vocab", vocab_path)


def _cmd_train(args) -> None:
    history_path = args.history or str(Path(args.out).with_suffix(".history.csv"))
    _check_outputs(args.out, history_path, inputs=(args.data, args.vocab))
    journeys = load_journeys(args.data)
    vocab = load_vocabulary(args.vocab)
    # each TrainConfig flag's dest is the field it sets; a flag not given keeps the preset's value
    names = {f.name for f in fields(TrainConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in names and value is not None}
    cfg = TrainConfig.preset(args.preset, **overrides)
    _info(f"training on {len(journeys)} journeys (preset {args.preset}, H={cfg.hidden_size}, {cfg.epochs} epochs)")
    result = train(journeys, vocab, cfg)
    save_checkpoint(args.out, result.params, result.vocab, seed=cfg.seed)
    save_loss_history(history_path, result.train_losses, result.val_losses)
    _emit("final_train_loss", repr(result.train_losses[-1]))
    _emit("final_val_loss", repr(result.val_losses[-1]))
    _emit("checkpoint", args.out)
    _emit("history", history_path)


def _cmd_eval(args) -> None:
    _check_outputs(args.roc_out, inputs=(args.model, args.data))
    params, vocab, _ = load_checkpoint(args.model)
    journeys = load_journeys(args.data)
    result = evaluate_roc(params, vocab, journeys)
    save_roc_csv(args.roc_out, result)
    _emit("auc", repr(result.auc))
    _emit("per_step_accuracy", repr(result.per_step_accuracy))
    _emit("roc_out", args.roc_out)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _attribution_workers() -> int:
    """MTA_THREADS, capped at the CPUs this process may run on (their count
    by default). Each worker is a thread that scans blocks; more workers
    than CPUs add no speed, only smaller blocks and more threads."""
    env = os.environ.get("MTA_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"MTA_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError("MTA_THREADS must be >= 1")
        return min(workers, _usable_cpus())
    return _usable_cpus()


def _cmd_attribute(args) -> None:
    _check_outputs(args.out, inputs=(args.model, args.data))
    params, vocab, _ = load_checkpoint(args.model)
    journeys = load_journeys(args.data)
    stats = GameStats()
    results = []
    batches = attribute_journeys(
        params, journeys, vocab, method=_METHOD_FLAGS[args.method], n_samples=args.samples, seed=args.seed,
        workers=_attribution_workers(), stats=stats,
    )
    for idx, result in enumerate(batches, start=1):
        results.append(result)
        if idx % 200 == 0:
            _info(f"attributed {idx}/{len(journeys)} journeys")
    save_attributions(args.out, journeys, results)
    _emit("journeys", len(journeys))
    _emit("unattributed", sum(1 for r in results if r.unattributed))
    _emit("out", args.out)
    _emit("blocks", stats.blocks)
    _emit("node_steps", stats.node_steps)


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
    emit_report(report, baseline, args.out, fmt="csv")
    if args.json:
        emit_report(report, baseline, args.json, fmt="json")
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
    gen.add_argument("--journeys", type=int, default=1000)
    gen.add_argument("--channels", type=int, default=5)
    gen.add_argument("--campaigns", type=int, default=3)
    gen.add_argument("--max-len", type=int, default=8)
    gen.add_argument("--key-channel", type=int, default=0)
    gen.add_argument("--key-lift", type=float, default=0.3)
    gen.add_argument("--base-rate", type=float, default=0.2)
    gen.add_argument("--time-span-hours", type=float, default=240.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--include-nonconverted", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train a conversion model")
    tr.add_argument("--data", required=True)
    tr.add_argument("--vocab", required=True)
    tr.add_argument("--out", required=True, help="checkpoint JSON path")
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
    at.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="auto")
    at.add_argument("--samples", type=int, default=2048)
    at.add_argument("--seed", type=int, default=0)
    at.set_defaults(func=_cmd_attribute)

    rp = sub.add_parser("report", help="channel GMV comparison against last-click")
    rp.add_argument("--attr", required=True)
    rp.add_argument("--data", required=True)
    rp.add_argument("--out", required=True, help="comparison CSV path")
    rp.add_argument("--json", help="optional JSON mirror path")
    rp.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        args.func(args)
    except (OSError, DeepMtaError) as exc:  # OSError: a path that is missing, a directory, or not writable
        _info(f"error: {exc}")
        return getattr(exc, "exit_code", 2)
    _emit("seconds", f"{time.perf_counter() - start:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
