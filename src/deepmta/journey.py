"""Customer journey data model, one-hot encoding, synthetic
generation with a planted conversion signal, and JSONL persistence."""

from __future__ import annotations

import functools
import io
import json
import math
import os
import sys
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ._fork import Worker, processes
from .errors import ConfigError, DimensionError, LineError, SequenceLengthError, ValidationError, VocabularyError

MAX_SEQ_LEN = 32
SECONDS_PER_HOUR = 3600.0
_FLOAT_MAX = sys.float_info.max


def finite_number(value) -> bool:
    """Whether a JSON value is a finite float: an int or float, not a bool, with
    -max <= value <= max, which NaN and an int too large for a float both fail."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -_FLOAT_MAX <= value <= _FLOAT_MAX


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
        if not (isinstance(ts, int) and finite_number(ts) and ts >= 0):
            raise ValidationError("timestamp must be an integer >= 0 that fits a float")


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
        if not finite_number(self.gmv):
            raise ValidationError("gmv must be finite")
        self.gmv = float(self.gmv)
        if self.gmv < 0:
            raise ValidationError("gmv must be non-negative")
        if self.gmv > 0 and not self.converted:
            raise ValidationError("gmv > 0 requires converted = true")
        expected = [0] * (len(self.events) - 1) + [int(self.converted)]
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
class JourneyTable:
    """Encoded journeys in flat columns: every event's feature row, time
    and label, in journey order, and each journey's length. A journey's
    row i is [one-hot channel, one-hot campaign, dt_i], dt_i hours since its
    first event; `times` holds the same dt values for the time gate.
    Journey i's rows are starts[i] .. starts[i] + lengths[i] - 1.

    Raises DimensionError unless `features` is 2-D, every length is at
    least 1 and every column has one row per event, lengths.sum() rows.
    """

    features: np.ndarray  # (n_events, d) float64
    times: np.ndarray  # (n_events,) hours, float64
    labels: np.ndarray  # (n_events,) int64
    lengths: np.ndarray  # (n_journeys,) int64

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {self.features.shape}")
        # checked as Python ints, which costs a one-journey table well under a microsecond
        lengths = self.lengths.tolist()
        if min(lengths, default=1) < 1:
            raise DimensionError("every journey length must be >= 1")
        n_events = sum(lengths)
        for name, column in (("features", self.features), ("times", self.times), ("labels", self.labels)):
            if len(column) != n_events:
                raise DimensionError(f"{name} has {len(column)} rows, but the lengths sum to {n_events}")

    @cached_property
    def starts(self) -> np.ndarray:
        """Each journey's first row, derived from the lengths."""
        return np.cumsum(self.lengths) - self.lengths

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.features, self.times, self.labels, self.starts, self.lengths))


def encode_journey(journey: CustomerJourney, vocab: Vocabulary) -> JourneyTable:
    """Encode a journey as a one-journey JourneyTable (`journey_table` of
    it alone): one-hot channel/campaign rows plus hour offsets.

    Raises VocabularyError for unknown tokens, naming the journey's user_id
    and the event's index, and SequenceLengthError for journeys longer than
    MAX_SEQ_LEN (never truncates silently).
    """
    return journey_table([journey], vocab)


def journey_table(journeys: Iterable[CustomerJourney] | JourneyTable, vocab: Vocabulary) -> JourneyTable:
    """The journeys as one JourneyTable, filled in one pass over any iterable
    (a list, a generator, a file read line by line), holding no journey
    after it is read. A table is returned as it is. Two steps make it:
    `_journey_columns` appends each event's channel index, campaign index,
    hour offset and label, and each journey's length, to array columns, and
    `_table_of` sets the one-hot rows of those columns with one scatter.
    `read_table` runs the first step on each half of a file, in two
    processes, and the second once on the joined columns.

    An encoding error (an unknown token, too many events; as
    `encode_journey` names them) is raised after the last journey is read,
    so that a fault in a later record of a file, found as it is read, is
    reported first, as when the whole file is read before any journey is
    encoded.
    """
    if isinstance(journeys, JourneyTable):
        return journeys
    columns, failed = _journey_columns(journeys, vocab)
    if failed is not None:
        raise failed
    return _table_of(columns, vocab)


def _journey_columns(
    journeys: Iterable[CustomerJourney], vocab: Vocabulary
) -> tuple[tuple[array, ...], Exception | None]:
    """The columns of `journey_table` (channel and campaign indices, hour
    offsets and labels per event, lengths per journey), and the first
    encoding error, or None. After an encoding error the journeys are still
    read, for a later record's fault, but no longer encoded."""
    channels, campaigns, hours, labels, lengths = array("q"), array("q"), array("d"), array("q"), array("q")
    failed = None
    for journey in journeys:
        if failed is not None:
            continue
        events = journey.events
        if len(events) > MAX_SEQ_LEN:
            failed = SequenceLengthError(
                f"journey {journey.user_id!r} has {len(events)} events, exceeding the limit of {MAX_SEQ_LEN}; "
                "refusing to truncate"
            )
            continue
        t0 = events[0].timestamp
        try:
            for i, ev in enumerate(events):
                channels.append(vocab.channel_index(ev.channel_id))
                campaigns.append(vocab.campaign_index(ev.campaign_id))
                hours.append((ev.timestamp - t0) / SECONDS_PER_HOUR)
        except VocabularyError as exc:
            failed = VocabularyError(f"journey {journey.user_id!r}, event {i}: {exc}")
            continue
        labels.extend(journey.labels)
        lengths.append(len(events))
    return (channels, campaigns, hours, labels, lengths), failed


def _table_of(columns: Iterable[array], vocab: Vocabulary) -> JourneyTable:
    """The JourneyTable of `_journey_columns`' columns: its one-hot rows set
    with one scatter."""
    channels, campaigns, hours, labels, lengths = columns
    times = np.frombuffer(hours, dtype=np.float64)
    features = np.zeros((len(times), vocab.encoding_dim))
    rows = np.arange(len(times))
    features[rows, np.frombuffer(channels, dtype=np.int64)] = 1.0
    features[rows, len(vocab.channels) + np.frombuffer(campaigns, dtype=np.int64)] = 1.0
    features[:, -1] = times
    return JourneyTable(
        features=features, times=times, labels=np.frombuffer(labels, dtype=np.int64),
        lengths=np.frombuffer(lengths, dtype=np.int64),
    )


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
        if self.time_span_hours > MAX_SPAN_HOURS:
            raise ConfigError(
                f"time_span_hours must be at most {MAX_SPAN_HOURS:.6g}, so that every timestamp fits a 64-bit "
                f"integer, got {self.time_span_hours}"
            )


GMV_MEDIAN = 50.0
GMV_SIGMA = 0.8
GAP_JITTER_LOW = 0.9
GAP_JITTER_HIGH = 1.1
START_TS_LIMIT = 10_000_000
# a journey's last timestamp is a start below START_TS_LIMIT seconds plus gaps
# that sum to at most span * GAP_JITTER_HIGH seconds. Spans up to this many
# hours keep it below 2**63, with a relative margin of 1e-9 for the rounding
# of each gap's product
MAX_SPAN_HOURS = (2.0**63 * (1 - 1e-9) - START_TS_LIMIT) / (SECONDS_PER_HOUR * GAP_JITTER_HIGH)


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> tuple[Vocabulary, list[CustomerJourney]]:
    """Generate a seeded synthetic dataset with the planted key-channel lift:
    its vocabulary and its journeys, each built from its draw record.

    Deterministic for a fixed (cfg, seed): all randomness flows from one
    generator in a fixed draw order. GMV of converted journeys is log-normal
    with median 50 currency units (a documented synthetic stand-in). The
    seed is checked at the call.
    """
    vocab, draws = synthetic_draws(cfg, seed)
    return vocab, [_synthetic_journey(cfg, vocab, draw) for draw in draws]


def synthetic_draws(cfg: GeneratorConfig, seed: int) -> tuple[Vocabulary, Iterator[tuple]]:
    """`generate_synthetic`'s vocabulary and a generator of its journeys'
    draw records (`_synthetic_draws`), each drawn as it is read; the seed
    is checked at the call."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    vocab = Vocabulary(
        channels=tuple(f"ch{i:02d}" for i in range(cfg.n_channels)),
        campaigns=tuple(f"cmp{i:02d}" for i in range(cfg.n_campaigns)),
    )
    return vocab, _synthetic_draws(cfg, np.random.default_rng(seed))


# the index of a draw record's `converted` flag
DRAW_CONVERTED = 5


def _synthetic_draws(cfg: GeneratorConfig, rng: np.random.Generator) -> Iterator[tuple]:
    """Every `rng` call of the dataset, in its fixed order, and nothing
    else: one plain-Python record per kept journey, (index, channel
    indices, campaign indices, start timestamp, gap jitters, converted,
    gmv), the jitters empty for a one-event journey."""
    n_kept = 0
    while n_kept < cfg.n_journeys:
        n_events = int(rng.integers(1, cfg.max_len + 1))
        channels = rng.integers(0, cfg.n_channels, size=n_events).tolist()
        campaigns = rng.integers(0, cfg.n_campaigns, size=n_events).tolist()
        start_ts = int(rng.integers(0, START_TS_LIMIT))
        # journeys stretch over roughly the traced window: gap sizes scale
        # with span/(n-1) plus jitter, so event timing carries structure
        jitter = rng.uniform(GAP_JITTER_LOW, GAP_JITTER_HIGH, size=n_events - 1).tolist() if n_events > 1 else []
        key_recent = cfg.key_channel_index in channels[-3:]
        converted = bool(rng.random() < cfg.base_rate + (cfg.key_lift if key_recent else 0.0))
        gmv = float(rng.lognormal(math.log(GMV_MEDIAN), GMV_SIGMA)) if converted else 0.0
        if converted or cfg.include_nonconverted:
            yield n_kept, channels, campaigns, start_ts, jitter, converted, gmv
            n_kept += 1


def _synthetic_journey(cfg: GeneratorConfig, vocab: Vocabulary, draw: tuple) -> CustomerJourney:
    """The journey of one `_synthetic_draws` record: plain Python on its
    values, which needs no draw that comes after it."""
    index, channels, campaigns, start_ts, jitter, converted, gmv = draw
    timestamps = [start_ts]
    if jitter:
        unit_gap = cfg.time_span_hours * SECONDS_PER_HOUR / len(jitter)
        for j in jitter:
            timestamps.append(timestamps[-1] + max(1, int(unit_gap * j)))
    return CustomerJourney(
        user_id=f"u{index:06d}",
        events=[
            ClickEvent(channel_id=vocab.channels[ch], campaign_id=vocab.campaigns[cmp], timestamp=ts)
            for ch, cmp, ts in zip(channels, campaigns, timestamps)
        ],
        converted=converted,
        gmv=gmv,
    )


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


def _journey_from_dict(obj) -> CustomerJourney:
    """The journey of one JSONL record. Only the record's shape is checked
    here; ClickEvent and CustomerJourney check its values."""
    _require_object(obj, ("user_id", "events", "converted", "gmv"), "journey record")
    if not isinstance(obj["events"], list):
        raise ValidationError("field 'events' must be a list")
    events = []
    for j, ev in enumerate(obj["events"]):
        _require_object(ev, ("channel", "campaign", "ts"), f"event {j}")
        events.append(ClickEvent(channel_id=ev["channel"], campaign_id=ev["campaign"], timestamp=ev["ts"]))
    return CustomerJourney(user_id=obj["user_id"], events=events, converted=obj["converted"], gmv=obj["gmv"])


def save_journeys(path: str | Path, journeys: Iterable[CustomerJourney]) -> None:
    """Write journeys as JSONL, one object per line, each as it is read
    from `journeys` (a list or a generator)."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in journeys:
            fh.write(json.dumps(journey_to_dict(j)) + "\n")


def _text(binary) -> io.TextIOWrapper:
    """The text of a binary file as every JSONL file is read: UTF-8, with
    universal newlines (a line ends at \\n, \\r\\n or a lone \\r). Bytes
    that are not UTF-8 are escaped to lone surrogates, which `_parsed`
    rejects, so the error names their line."""
    return io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape")


def _parsed(line: str):
    """The JSON value of one stripped, non-blank line; a ValidationError
    naming its fault."""
    try:
        line.encode("utf-8")
        return json.loads(line)
    except UnicodeEncodeError:
        raise ValidationError("not UTF-8 text") from None
    # ValueError is also an integer of more than 4300 digits, RecursionError
    # arrays or objects nested too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON ({getattr(exc, 'msg', exc)})") from None


def _numbered(fh, parse, lines: list[int] | None = None) -> Iterator[tuple[int, object]]:
    """(1-based line number, parse(line)) for each non-blank line of a text
    file, stripped; a ValidationError of parse is a LineError naming the
    line. Once every line is read, their number, blank ones among them, is
    appended to `lines` if it is given."""
    line_no = 0
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = parse(line)
        except ValidationError as exc:
            raise LineError(line_no, str(exc)) from None
        yield line_no, value
    if lines is not None:
        lines.append(line_no)


def _journeys(fh, lines: list[int] | None = None) -> Iterator[CustomerJourney]:
    """The journeys of a text journey file, one line at a time (`_numbered`)."""
    for _, journey in _numbered(fh, lambda line: _journey_from_dict(_parsed(line)), lines):
        yield journey


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield (1-based line number, parsed value) for each non-blank line of a
    JSONL file; a malformed line is a LineError."""
    with _text(open(path, "rb")) as fh:
        yield from _numbered(fh, _parsed)


def iter_journeys(path: str | Path) -> Iterator[CustomerJourney]:
    """Yield the journeys of a JSONL journey file one line at a time;
    errors carry 1-based line numbers."""
    with _text(open(path, "rb")) as fh:
        yield from _journeys(fh)


def load_journeys(path: str | Path) -> list[CustomerJourney]:
    """Read a whole JSONL journey file; errors carry 1-based line numbers."""
    return list(iter_journeys(path))


def _decoded(line: str):
    """`_parsed` of a line, or its ValidationError in place of the value."""
    try:
        return _parsed(line)
    except ValidationError as exc:
        return exc


class JourneyRecords:
    """A JSONL journey file whose lines are decoded but not yet built into
    journeys. Iterating it reads the file line by line and yields a record,
    (1-based line number, JSON value), for each non-blank line; a line that
    is not UTF-8 or not JSON has its ValidationError in place of the value.
    `record_events` counts a record's events, and `record_journey` builds
    and checks its journey, so that the caller that reads a file need not
    be the process that builds its journeys. A CustomerJourney is its own
    record."""

    def __init__(self, path: str | Path):
        self.path = path

    def __iter__(self) -> Iterator[tuple[int, object]]:
        with _text(open(self.path, "rb")) as fh:
            yield from _numbered(fh, _decoded)


def record_journey(record: tuple[int, object] | CustomerJourney) -> CustomerJourney:
    """The journey of a `JourneyRecords` record, or a journey as it is; a
    record's fault, the line's decoding or a check of `_journey_from_dict`,
    is a LineError naming the line."""
    if isinstance(record, CustomerJourney):
        return record
    line_no, value = record
    if isinstance(value, ValidationError):
        raise LineError(line_no, str(value))
    try:
        return _journey_from_dict(value)
    except ValidationError as exc:
        raise LineError(line_no, str(exc)) from None


def record_events(record: tuple[int, object] | CustomerJourney) -> int:
    """The number of events of a journey or of a `JourneyRecords` record,
    read from its value without building its journey. A record that has no
    list of events raises its fault (`record_journey`)."""
    if isinstance(record, CustomerJourney):
        return len(record.events)
    value = record[1]
    if isinstance(value, dict) and isinstance(value.get("events"), list):
        return len(value["events"])
    return len(record_journey(record).events)  # raises: no such record is a journey


# journey files of at least this many bytes are read on two processes by
# read_table(workers >= 2). On a 2-vCPU x86 host the fork and the columns'
# pickle back cost about 1.5 ms, and the first lines of the desk train file
# read in 3.5 ms on one process and 3.6 on two at 83 KB, 4.4 and 4.1 ms at
# 104 KB
READ_SPLIT_BYTES = 96 * 1024


class _Head(io.RawIOBase):
    """The first `size` bytes of a binary file, read from where it is."""

    def __init__(self, raw, size: int):
        self.raw, self.left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(memoryview(buffer)[: self.left])
        self.left -= n
        return n


def _split_point(raw) -> int | None:
    """The offset just past the first \\n at or after the middle of a
    binary file of at least READ_SPLIT_BYTES bytes, read in blocks; None
    for a smaller file, or where that \\n is missing or ends the file. The
    file is left at its start."""
    size = os.fstat(raw.fileno()).st_size
    if size < READ_SPLIT_BYTES:
        return None
    offset = raw.seek(size // 2)
    split = None
    while split is None and (block := raw.read(1 << 16)):
        at = block.find(b"\n")
        split = offset + at + 1 if at >= 0 else None
        offset += len(block)
    raw.seek(0)
    return split if split is not None and split < size else None


def _tail_columns(path: str | Path, start: int, vocab: Vocabulary) -> tuple[tuple[array, ...], Exception | None]:
    """`_journey_columns` of the lines of a journey file from byte `start`
    on, which starts a line; a LineError numbers the lines from there."""
    with open(path, "rb") as raw:
        raw.seek(start)
        with _text(raw) as fh:
            return _journey_columns(_journeys(fh), vocab)


def read_table(path: str | Path, vocab: Vocabulary, workers: int = 1) -> JourneyTable:
    """`journey_table(iter_journeys(path), vocab)`: the same table, or the
    same error, each process holding at most one line of the file's text.

    Where `workers` allows two processes (`_fork.processes`) and the file
    has at least READ_SPLIT_BYTES bytes, the file is split just past the
    first \\n at or after its middle. A forked reader process
    (`_fork.Worker`) opens the file, reads the lines past the split into
    columns (`_journey_columns`) and sends them back while this process
    reads the lines before it; the joined columns make one table
    (`_table_of`). The first faulty record of either half wins over any
    encoding error, its line counted from the file's start, then the first
    encoding error.
    """
    split_in_two = processes(workers, 2) == 2
    with open(path, "rb", buffering=0) as raw:
        split = _split_point(raw) if split_in_two else None
        if split is None:
            return journey_table(_journeys(_text(io.BufferedReader(raw))), vocab)
        tail = functools.partial(_tail_columns, path, split, vocab)
        with Worker.computing("the journey reader process", tail) as reader:
            lines = []
            columns, failed = _journey_columns(_journeys(_text(io.BufferedReader(_Head(raw, split))), lines), vocab)
            try:
                tail_columns, tail_failed = reader.result()
            except LineError as exc:
                raise LineError(lines[0] + exc.line_no, exc.detail) from None
    failed = failed or tail_failed
    if failed is not None:
        raise failed
    for column, rest in zip(columns, tail_columns):
        column.extend(rest)
    return _table_of(columns, vocab)


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
        # ValueError is also not UTF-8, or an integer of more than 4300
        # digits, RecursionError nesting too deep for the decoder
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{what} {path} is not JSON ({exc})") from None


def load_vocabulary(path: str | Path) -> Vocabulary:
    return vocabulary_from_dict(read_json(path, "vocabulary"), f"vocabulary {path}")
