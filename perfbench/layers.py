"""Per-layer metrics of one traced run, computed from its spans.

Layers are the package modules: journey, model, trainer, attribution,
report and cli. Counts are totals over the traced passes, so they repeat
exactly for the same (workload, seed, seconds); ``*_s`` and ``*_ms`` times
are per traced pass.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

METHODS = ("shapley_exact", "shapley_sampled")
STAGES = ("gen", "train", "eval", "attribute", "report")
TAIL_SAMPLES = 10


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of p50/p90/p99/p99.9 that leaves
    at least ten samples beyond it; p50 when there are fewer than twenty."""
    pct = 50.0
    for candidate in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - candidate / 100.0) >= TAIL_SAMPLES:
            pct = candidate
    return pct, float(np.percentile(values, pct)) if values else 0.0


def layer_metrics(spans, n_passes: int, workers: int) -> dict[str, tuple[float, str]]:
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def self_share(parents: list, excluded: tuple[str, ...]) -> float:
        busy = sum(s.seconds for s in parents)
        inner = sum(c.seconds for s in parents for c in children[s.id] if c.name in excluded)
        return _ratio(busy - inner, busy)

    m: dict[str, tuple[float, str]] = {}

    # model: the training forward, the inference forward (eval, validation
    # loss and every attribution call) and the backward pass
    forwards = by_name["model.forward"]
    for label, group in (
        ("forward_train", [s for s in forwards if s.attrs["training"]]),
        ("forward_infer", [s for s in forwards if not s.attrs["training"]]),
    ):
        rows = sum(s.attrs["rows"] for s in group)
        row_steps = sum(s.attrs["rows"] * s.attrs["steps"] for s in group)
        m[f"model.{label}.calls"] = (len(group), "count")
        m[f"model.{label}.row_steps"] = (row_steps, "count")
        m[f"model.{label}.us_per_row_step"] = (_ratio(sum(s.seconds for s in group) * 1e6, row_steps), "us")
        if label == "forward_infer":
            m[f"model.{label}.mean_rows_per_call"] = (_ratio(rows, len(group)), "rows")
    backward = by_name["model.backward"]
    m["model.backward.calls"] = (len(backward), "count")
    m["model.backward.us_per_row_step"] = (
        _ratio(total("model.backward") * 1e6, sum(s.attrs["rows"] * s.attrs["steps"] for s in backward)), "us",
    )
    for op in ("save", "load"):
        calls = by_name[f"model.{op}_checkpoint"]
        m[f"model.checkpoint_{op}_ms"] = (_ratio(total(f"model.{op}_checkpoint") * 1e3, len(calls)), "ms")

    # trainer
    trains = by_name["trainer.train"]
    m["trainer.train_s"] = (total("trainer.train") / n_passes, "s")
    m["trainer.steps"] = (sum(1 for s in trains for c in children[s.id] if c.name == "model.backward"), "count")
    m["trainer.self_share"] = (self_share(trains, ("model.forward", "model.backward")), "share")
    m["trainer.eval_s"] = (total("trainer.evaluate_roc") / n_passes, "s")

    # attribution
    journeys = by_name["attribution.journey"]
    for method in METHODS:
        ms = [s.seconds * 1e3 for s in journeys if s.attrs["method"] == method]
        pct, tail = tail_percentile(ms)
        m[f"attribution.{method}.journey_ms.p50"] = (float(np.median(ms)) if ms else 0.0, "ms")
        m[f"attribution.{method}.journey_ms.ptail"] = (tail, "ms")
        m[f"attribution.{method}.journey_ms.ptail_pct"] = (pct, "pct")
        m[f"attribution.{method}.journey_ms.n"] = (len(ms), "count")
        m[f"attribution.method.{method}"] = (len(ms), "count")
    m["attribution.unattributed"] = (sum(1 for s in journeys if s.attrs["unattributed"]), "count")
    masked = by_name["attribution.masked_accuracy"]
    mask_rows = sum(s.attrs["rows"] for s in masked)
    row_steps = sum(s.attrs["rows"] * s.attrs["steps"] for s in masked)
    distinct = sum(s.attrs["distinct_prefix_steps"] for s in journeys)
    m["attribution.masked_accuracy.calls"] = (len(masked), "count")
    m["attribution.masked_accuracy.mask_rows"] = (mask_rows, "count")
    m["attribution.masked_accuracy.row_steps"] = (row_steps, "count")
    m["attribution.masked_accuracy.us_per_row_step"] = (
        _ratio(total("attribution.masked_accuracy") * 1e6, row_steps), "us",
    )
    m["attribution.distinct_prefix_steps"] = (distinct, "count")
    m["attribution.distinct_prefix_share"] = (_ratio(distinct, row_steps), "share")
    m["attribution.game_self_share"] = (self_share(journeys, ("attribution.masked_accuracy",)), "share")

    # cli stages, timed by the benchmark around each cli.main call
    for stage in STAGES:
        m[f"cli.{stage}_s"] = (total(f"stage.{stage}") / n_passes, "s")
    m["cli.attribute.busy_share"] = (
        _ratio(sum(s.seconds for s in journeys), total("stage.attribute") * workers), "share",
    )

    # journey and report
    encodes = by_name["journey.encode"]
    m["journey.load_ms"] = (total("journey.load_journeys") * 1e3 / n_passes, "ms")
    m["journey.encode_us_per_journey"] = (_ratio(total("journey.encode") * 1e6, len(encodes)), "us")
    m["report.aggregate_ms"] = (
        (total("report.aggregate_channels") + total("report.last_click_report")) * 1e3 / n_passes, "ms",
    )
    m["report.emit_ms"] = (total("report.emit_report") * 1e3 / n_passes, "ms")
    return m
