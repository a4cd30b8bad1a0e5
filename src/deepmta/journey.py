"""Customer journey data model, stream splitting, one-hot encoding, synthetic
generation with a planted conversion signal, and JSONL persistence."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SequenceLengthError, ValidationError, VocabularyError

MAX_SEQ_LEN = 32
SECONDS_PER_HOUR = 3600.0
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ClickEvent:
    """One marketing touch: channel token, campaign token, epoch timestamp."""

    channel_id: str
    campaign_id: str
    timestamp: int

    def __post_init__(self):
        if not (isinstance(self.channel_id, str) and self.channel_id):
            raise ValidationError("channel_id must be a non-empty string")
        if not (isinstance(self.campaign_id, str) and self.campaign_id):
            raise ValidationError("campaign_id must be a non-empty string")
        ts = self.timestamp
        # encode_journey divides timestamps as floats
        if isinstance(ts, bool) or not isinstance(ts, int) or not 0 <= ts <= _FLOAT_MAX:
            raise ValidationError("timestamp must be an integer >= 0 that fits a float")


def _expected_labels(n_events: int, converted: bool) -> list[int]:
    if converted:
        return [0] * (n_events - 1) + [1]
    return [0] * n_events


@dataclass
class CustomerJourney:
    """Ordered click events for one user ending (or not) in a conversion.

    Labels are per-event binary targets: a converted journey carries a single
    1 at its final position, a non-converted journey is all zeros.
    """

    user_id: str
    events: list[ClickEvent]
    converted: bool
    gmv: float
    labels: list[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (isinstance(self.user_id, str) and self.user_id):
            raise ValidationError("user_id must be a non-empty string")
        if len(self.events) < 1:
            raise ValidationError("a journey must contain at least one event")
        for prev, cur in zip(self.events, self.events[1:]):
            if cur.timestamp < prev.timestamp:
                raise ValidationError("events must be sorted by non-decreasing timestamp")
        if not isinstance(self.converted, bool):
            raise ValidationError("converted must be true or false")
        if isinstance(self.gmv, bool) or not isinstance(self.gmv, (int, float)):
            raise ValidationError("gmv must be a number")
        # NaN fails both comparisons; an int too large for a float fails one
        if not -_FLOAT_MAX <= self.gmv <= _FLOAT_MAX:
            raise ValidationError("gmv must be finite")
        self.gmv = float(self.gmv)
        if self.gmv < 0:
            raise ValidationError("gmv must be non-negative")
        if self.gmv > 0 and not self.converted:
            raise ValidationError("gmv > 0 requires converted = true")
        expected = _expected_labels(len(self.events), self.converted)
        if self.labels is None:
            self.labels = expected
        elif list(self.labels) != expected:
            raise ValidationError("labels must be all zeros, or a single 1 at the final position when converted")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def channels(self) -> list[str]:
        return [e.channel_id for e in self.events]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered channel and campaign token lists with bijective index maps."""

    channels: tuple[str, ...]
    campaigns: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.channels)) != len(self.channels):
            raise ValidationError("channel tokens must be unique")
        if len(set(self.campaigns)) != len(self.campaigns):
            raise ValidationError("campaign tokens must be unique")
        if not self.channels or not self.campaigns:
            raise ValidationError("vocabulary must contain at least one channel and one campaign")
        object.__setattr__(self, "_channel_index", {c: i for i, c in enumerate(self.channels)})
        object.__setattr__(self, "_campaign_index", {c: i for i, c in enumerate(self.campaigns)})

    @property
    def encoding_dim(self) -> int:
        return len(self.channels) + len(self.campaigns) + 1

    def channel_index(self, token: str) -> int:
        try:
            return self._channel_index[token]
        except KeyError:
            raise VocabularyError(f"unknown channel token {token!r}") from None

    def campaign_index(self, token: str) -> int:
        try:
            return self._campaign_index[token]
        except KeyError:
            raise VocabularyError(f"unknown campaign token {token!r}") from None


@dataclass
class EncodedJourney:
    """Feature matrix view of one journey.

    Row i is [one-hot channel, one-hot campaign, dt_i] where dt_i is hours
    since the journey's first event. `times` carries the same dt values for
    the recurrent time gate.
    """

    features: np.ndarray  # (seq_len, d) float64
    times: np.ndarray  # (seq_len,) hours, float64
    labels: np.ndarray  # (seq_len,) int64


def encode_journey(journey: CustomerJourney, vocab: Vocabulary) -> EncodedJourney:
    """Encode a journey into one-hot channel/campaign rows plus hour offsets.

    Raises VocabularyError for unknown tokens and SequenceLengthError for
    journeys longer than MAX_SEQ_LEN (never truncates silently).
    """
    n = len(journey.events)
    if n > MAX_SEQ_LEN:
        raise SequenceLengthError(
            f"journey {journey.user_id!r} has {n} events, exceeding the limit of {MAX_SEQ_LEN}; refusing to truncate"
        )
    n_ch = len(vocab.channels)
    n_ck = len(vocab.campaigns)
    features = np.zeros((n, vocab.encoding_dim), dtype=np.float64)
    times = np.zeros(n, dtype=np.float64)
    t0 = journey.events[0].timestamp
    for i, ev in enumerate(journey.events):
        features[i, vocab.channel_index(ev.channel_id)] = 1.0
        features[i, n_ch + vocab.campaign_index(ev.campaign_id)] = 1.0
        dt = (ev.timestamp - t0) / SECONDS_PER_HOUR
        features[i, n_ch + n_ck] = dt
        times[i] = dt
    labels = np.asarray(journey.labels, dtype=np.int64)
    return EncodedJourney(features=features, times=times, labels=labels)


def split_stream(
    events: list[ClickEvent],
    conversions: list[tuple[int, float]],
    user_id: str = "user",
) -> list[CustomerJourney]:
    """Split one user's time-sorted click stream into journeys.

    Each conversion (timestamp, gmv) closes a journey holding every event
    since the previous conversion up to and including the last event at or
    before the conversion timestamp. Trailing events after the final
    conversion form one non-converted journey. A conversion that closes zero
    events is skipped.
    """
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValidationError("split_stream requires events sorted by timestamp")
    journeys: list[CustomerJourney] = []
    start = 0
    for ts, gmv in sorted(conversions, key=lambda c: c[0]):
        if gmv < 0:
            raise ValidationError("conversion gmv must be non-negative")
        end = start
        while end < len(events) and events[end].timestamp <= ts:
            end += 1
        if end == start:
            continue
        journeys.append(
            CustomerJourney(
                user_id=user_id,
                events=list(events[start:end]),
                converted=True,
                gmv=float(gmv),
            )
        )
        start = end
    if start < len(events):
        journeys.append(
            CustomerJourney(
                user_id=user_id,
                events=list(events[start:]),
                converted=False,
                gmv=0.0,
            )
        )
    return journeys


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic journey generator.

    The planted signal: a journey converts with probability
    base_rate + key_lift when the key channel appears among its final three
    events, and base_rate otherwise.
    """

    n_journeys: int = 1000
    n_channels: int = 5
    n_campaigns: int = 3
    max_len: int = 8
    key_channel_index: int = 0
    key_lift: float = 0.3
    base_rate: float = 0.2
    time_span_hours: float = 240.0
    include_nonconverted: bool = False

    def __post_init__(self):
        if self.n_journeys < 1:
            raise ConfigError("n_journeys must be >= 1")
        if self.n_channels < 2:
            raise ConfigError("n_channels must be >= 2")
        if self.n_campaigns < 1:
            raise ConfigError("n_campaigns must be >= 1")
        if not 1 <= self.max_len <= MAX_SEQ_LEN:
            raise ConfigError(f"max_len must lie in [1, {MAX_SEQ_LEN}], got {self.max_len}")
        if not 0 < self.base_rate < 1:
            raise ConfigError(f"base_rate must lie in (0, 1), got {self.base_rate}")
        if not (math.isfinite(self.key_lift) and 0 <= self.base_rate + self.key_lift <= 1):
            raise ConfigError(f"base_rate + key_lift must lie in [0, 1], got {self.base_rate + self.key_lift}")
        if not 0 <= self.key_channel_index < self.n_channels:
            raise ConfigError("key_channel_index out of range")
        if not (math.isfinite(self.time_span_hours) and self.time_span_hours > 0):
            raise ConfigError(f"time_span_hours must be a finite value > 0, got {self.time_span_hours}")


GMV_MEDIAN = 50.0
GMV_SIGMA = 0.8
GAP_JITTER_LOW = 0.9
GAP_JITTER_HIGH = 1.1


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> tuple[Vocabulary, list[CustomerJourney]]:
    """Generate a seeded synthetic dataset with the planted key-channel lift.

    Deterministic for a fixed (cfg, seed): all randomness flows from one
    generator in a fixed draw order. GMV of converted journeys is log-normal
    with median 50 currency units (a documented synthetic stand-in).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(
        channels=tuple(f"ch{i:02d}" for i in range(cfg.n_channels)),
        campaigns=tuple(f"cmp{i:02d}" for i in range(cfg.n_campaigns)),
    )
    span_seconds = cfg.time_span_hours * SECONDS_PER_HOUR

    journeys: list[CustomerJourney] = []
    while len(journeys) < cfg.n_journeys:
        n_events = int(rng.integers(1, cfg.max_len + 1))
        channel_ids = rng.integers(0, cfg.n_channels, size=n_events)
        campaign_ids = rng.integers(0, cfg.n_campaigns, size=n_events)
        start_ts = int(rng.integers(0, 10_000_000))
        if n_events > 1:
            # journeys stretch over roughly the traced window: gap sizes scale
            # with span/(n-1) plus jitter, so event timing carries structure
            unit_gap = span_seconds / (n_events - 1)
            jitter = rng.uniform(GAP_JITTER_LOW, GAP_JITTER_HIGH, size=n_events - 1)
            gaps = np.maximum(1, (unit_gap * jitter).astype(int))
        else:
            gaps = np.empty(0, dtype=int)
        timestamps = start_ts + np.concatenate([[0], np.cumsum(gaps)]).astype(int)

        key_recent = bool(np.any(channel_ids[-3:] == cfg.key_channel_index))
        p_convert = cfg.base_rate + (cfg.key_lift if key_recent else 0.0)
        converted = bool(rng.random() < p_convert)
        gmv = float(rng.lognormal(math.log(GMV_MEDIAN), GMV_SIGMA)) if converted else 0.0

        if not converted and not cfg.include_nonconverted:
            continue
        journeys.append(
            CustomerJourney(
                user_id=f"u{len(journeys):06d}",
                events=[
                    ClickEvent(
                        channel_id=vocab.channels[channel_ids[i]],
                        campaign_id=vocab.campaigns[campaign_ids[i]],
                        timestamp=int(timestamps[i]),
                    )
                    for i in range(n_events)
                ],
                converted=converted,
                gmv=gmv,
            )
        )
    return vocab, journeys


def journey_to_dict(journey: CustomerJourney) -> dict:
    return {
        "user_id": journey.user_id,
        "events": [
            {"channel": e.channel_id, "campaign": e.campaign_id, "ts": e.timestamp} for e in journey.events
        ],
        "converted": journey.converted,
        "gmv": journey.gmv,
    }


def _require_object(obj, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{what} is missing field {key!r}")


def _journey_from_dict(obj, line_no: int) -> CustomerJourney:
    """The journey of one JSONL record. Only the record's shape is checked
    here; ClickEvent and CustomerJourney check its values. Every
    ValidationError names the line."""
    try:
        _require_object(obj, ("user_id", "events", "converted", "gmv"), "journey record")
        if not isinstance(obj["events"], list):
            raise ValidationError("field 'events' must be a list")
        events = []
        for j, ev in enumerate(obj["events"]):
            _require_object(ev, ("channel", "campaign", "ts"), f"event {j}")
            events.append(ClickEvent(channel_id=ev["channel"], campaign_id=ev["campaign"], timestamp=ev["ts"]))
        return CustomerJourney(user_id=obj["user_id"], events=events, converted=obj["converted"], gmv=obj["gmv"])
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def save_journeys(path: str | Path, journeys: list[CustomerJourney]) -> None:
    """Write journeys as JSONL, one object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in journeys:
            fh.write(json.dumps(journey_to_dict(j)) + "\n")


def read_jsonl(path: str | Path):
    """Yield (1-based line number, parsed value) for each non-blank line of a
    JSONL file; a malformed line is a line-numbered ValidationError."""
    # bytes that are not UTF-8 are escaped to lone surrogates, which the
    # encode below rejects, so the error names their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError:
                raise ValidationError(f"line {line_no}: not UTF-8 text") from None
            except ValueError as exc:  # also an integer of more than 4300 digits
                raise ValidationError(f"line {line_no}: malformed JSON ({getattr(exc, 'msg', exc)})") from None
            yield line_no, obj


def load_journeys(path: str | Path) -> list[CustomerJourney]:
    """Read a JSONL journey file; errors carry 1-based line numbers."""
    return [_journey_from_dict(obj, line_no) for line_no, obj in read_jsonl(path)]


def vocabulary_from_dict(obj, source: str) -> Vocabulary:
    """The Vocabulary of a {"channels": [...], "campaigns": [...]} object, as
    a vocabulary file or a checkpoint holds it; a ValidationError naming
    `source` unless both are lists of distinct strings."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{source} must be an object with 'channels' and 'campaigns' lists")
    for key in ("channels", "campaigns"):
        tokens = obj.get(key)
        if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
            raise ValidationError(f"{source} {key!r} must be a list of strings")
    return Vocabulary(channels=tuple(obj["channels"]), campaigns=tuple(obj["campaigns"]))


def save_vocabulary(path: str | Path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"channels": list(vocab.channels), "campaigns": list(vocab.campaigns)}, fh)
        fh.write("\n")


def read_json(path: str | Path, what: str):
    """The parsed value of a whole-file JSON document; a file that is not
    JSON is a ValidationError naming `what` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also not UTF-8, or an integer of more than 4300 digits
            raise ValidationError(f"{what} {path} is not JSON ({exc})") from None


def load_vocabulary(path: str | Path) -> Vocabulary:
    return vocabulary_from_dict(read_json(path, "vocabulary"), f"vocabulary {path}")
