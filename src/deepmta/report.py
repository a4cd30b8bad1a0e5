"""Channel aggregation of attributed GMV and of the last-click baseline,
and side-by-side CSV/JSON report emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attribution import AttributionResult
from .errors import DimensionError, ValidationError
from .journey import CustomerJourney

TOTAL_ROW_LABEL = "TOTAL"
REPORT_FIELDS = ("channel", "deepmta_gmv", "lastclick_gmv", "avg_attribution", "journey_count")


@dataclass
class ChannelStats:
    avg_attribution: float = 0.0
    total_gmv: float = 0.0
    journey_count: int = 0


@dataclass
class ChannelReport:
    """Per-channel aggregates over the attributed journey set."""

    method: str
    channels: dict[str, ChannelStats] = field(default_factory=dict)
    total_gmv: float = 0.0
    attributed_journeys: int = 0
    unattributed_journeys: int = 0


def channel_weights(journey: CustomerJourney, weights: np.ndarray) -> dict[str, float]:
    """The journey's per-event weights summed per channel, in first-seen
    channel order."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(journey.events),):
        raise DimensionError(
            f"weights length {weights.shape} does not match journey length {len(journey.events)}"
        )
    sums: dict[str, float] = {}
    for event, w in zip(journey.events, weights):
        sums[event.channel_id] = sums.get(event.channel_id, 0.0) + float(w)
    return sums


def last_click_weights(journey: CustomerJourney) -> np.ndarray:
    w = np.zeros(len(journey.events))
    w[-1] = 1.0
    return w


def _aggregate(pairs, weight_fn, method: str) -> ChannelReport:
    report = ChannelReport(method=method)
    for journey, result in pairs:
        if result.unattributed:
            report.unattributed_journeys += 1
            continue
        report.attributed_journeys += 1
        for channel, w in channel_weights(journey, weight_fn(journey, result)).items():
            stats = report.channels.setdefault(channel, ChannelStats())
            stats.journey_count += 1
            stats.total_gmv += w * journey.gmv
            stats.avg_attribution += w  # a sum until the division below
        report.total_gmv += journey.gmv
    for stats in report.channels.values():
        stats.avg_attribution /= stats.journey_count
    return report


def aggregate_channels(pairs: list[tuple[CustomerJourney, AttributionResult]], method: str | None = None) -> ChannelReport:
    """Channel-level aggregation of attribution results.

    A journey's weight for channel c is the sum of its event weights on c;
    avg_attribution is the mean of that over attributed journeys containing
    c, and total_gmv the sum of the per-journey GMV allocations.
    """
    if not pairs:
        raise ValidationError("aggregate_channels requires a non-empty result list")
    tag = method or pairs[0][1].method
    return _aggregate(pairs, lambda journey, result: result.weights, tag)


def last_click_report(pairs: list[tuple[CustomerJourney, AttributionResult]]) -> ChannelReport:
    """Last-click aggregation over the same attributed journey set, so the
    two methods in the comparison table allocate from identical journeys."""
    if not pairs:
        raise ValidationError("last_click_report requires a non-empty result list")
    return _aggregate(pairs, lambda journey, result: last_click_weights(journey), "last_click")


def _comparison_rows(report: ChannelReport, baseline: ChannelReport):
    channels = set(report.channels) | set(baseline.channels)
    rows = []
    for channel in channels:
        main = report.channels.get(channel, ChannelStats())
        base = baseline.channels.get(channel, ChannelStats())
        rows.append(
            {
                "channel": channel,
                "deepmta_gmv": main.total_gmv,
                "lastclick_gmv": base.total_gmv,
                "avg_attribution": main.avg_attribution,
                "journey_count": main.journey_count,
            }
        )
    rows.sort(key=lambda r: (-r["deepmta_gmv"], r["channel"]))
    totals = {"channel": TOTAL_ROW_LABEL, **{key: sum(r[key] for r in rows) for key in REPORT_FIELDS[1:]}}
    return rows, totals


def emit_report(report: ChannelReport, baseline: ChannelReport, path: str | Path, fmt: str = "csv") -> None:
    """Write the side-by-side comparison table.

    Channels are ordered by descending deepmta_gmv with lexicographic
    tie-breaks; a TOTAL row carries the column sums.
    """
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown report format {fmt!r}")
    rows, totals = _comparison_rows(report, baseline)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
            writer.writeheader()
            for row in rows + [totals]:
                writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    else:
        obj = {
            "method": report.method,
            "baseline_method": baseline.method,
            "channels": rows,
            "totals": totals,
            "attributed_journeys": report.attributed_journeys,
            "unattributed_journeys": report.unattributed_journeys,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
