import itertools
import json
import os
import random

import numpy as np
import pytest

from deepmta import _fork
from deepmta.errors import ConfigError, LineError, SequenceLengthError, ValidationError, VocabularyError
import deepmta.journey as journey_mod
from deepmta.journey import (
    MAX_SEQ_LEN,
    ClickEvent,
    CustomerJourney,
    GeneratorConfig,
    JourneyRecords,
    JourneyTable,
    Vocabulary,
    encode_journey,
    generate_synthetic,
    iter_journeys,
    journey_table,
    load_journeys,
    load_vocabulary,
    read_table,
    record_events,
    record_journey,
    save_journeys,
    save_vocabulary,
)
from reference import split_stream, synthetic_journeys
from test_attribution import assert_no_child_left


def ev(channel, ts, campaign="c1"):
    return ClickEvent(channel_id=channel, campaign_id=campaign, timestamp=ts)


class TestJourneyInvariants:
    def test_labels_derived_for_converted(self):
        j = CustomerJourney("u1", [ev("A", 1), ev("B", 2), ev("A", 3)], True, 10.0)
        assert j.labels == [0, 0, 1]

    def test_labels_derived_for_nonconverted(self):
        j = CustomerJourney("u1", [ev("A", 1), ev("B", 2)], False, 0.0)
        assert j.labels == [0, 0]

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValidationError):
            CustomerJourney("u1", [ev("A", 5), ev("B", 2)], False, 0.0)

    def test_gmv_requires_conversion(self):
        with pytest.raises(ValidationError):
            CustomerJourney("u1", [ev("A", 1)], False, 3.0)

    def test_wrong_labels_rejected(self):
        with pytest.raises(ValidationError):
            CustomerJourney("u1", [ev("A", 1), ev("B", 2)], True, 1.0, labels=[1, 0])

    @pytest.mark.parametrize("ts", (True, -1, pytest.param(10 ** 400, id="int-too-large"), 1.0))
    def test_bad_timestamp_rejected(self, ts):
        with pytest.raises(ValidationError, match="timestamp"):
            ClickEvent("a", "b", ts)

    @pytest.mark.parametrize("converted", (1, "yes", None))
    def test_non_bool_converted_rejected(self, converted):
        with pytest.raises(ValidationError, match="converted"):
            CustomerJourney("u1", [ev("A", 1)], converted, 0.0)

    def test_integer_gmv_stored_as_float(self):
        j = CustomerJourney("u1", [ev("A", 1)], True, 5)
        assert type(j.gmv) is float and j.gmv == 5.0


class TestSplitStream:
    def test_single_conversion(self):
        events = [ev("A", 1), ev("B", 2), ev("A", 3)]
        journeys = split_stream(events, [(3, 10.0)])
        assert len(journeys) == 1
        assert journeys[0].converted and journeys[0].gmv == 10.0
        assert journeys[0].labels == [0, 0, 1]

    def test_two_conversions_partition(self):
        events = [ev("A", t) for t in (1, 2, 3, 4, 5)]
        journeys = split_stream(events, [(2, 1.0), (5, 2.0)])
        assert [len(j) for j in journeys] == [2, 3]
        assert all(j.converted for j in journeys)

    def test_no_conversion(self):
        journeys = split_stream([ev("A", 1), ev("B", 2)], [])
        assert len(journeys) == 1
        assert not journeys[0].converted
        assert journeys[0].labels == [0, 0]

    def test_empty_events(self):
        assert split_stream([], [(5, 1.0)]) == []

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            split_stream([ev("A", 3), ev("B", 1)], [])

    def test_conversion_with_no_events_skipped(self):
        events = [ev("A", 1), ev("B", 2)]
        journeys = split_stream(events, [(2, 1.0), (2, 2.0)])
        assert len(journeys) == 1
        assert len(journeys[0]) == 2

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ts = np.cumsum(rng.integers(0, 5, size=n)).tolist()
            events = [ev(f"c{int(rng.integers(3))}", int(t)) for t in ts]
            conv_times = sorted(rng.choice(ts, size=min(n, int(rng.integers(0, 4))), replace=False).tolist())
            journeys = split_stream(events, [(int(t), 1.0) for t in conv_times])
            flattened = [e for j in journeys for e in j.events]
            assert flattened == events


class TestEncodeJourney:
    vocab = Vocabulary(channels=("A", "B"), campaigns=("c1",))

    def test_row_content(self):
        j = CustomerJourney("u1", [ev("A", 100), ev("B", 100 + 3600)], False, 0.0)
        enc = encode_journey(j, self.vocab)
        np.testing.assert_allclose(enc.features[1], [0.0, 1.0, 1.0, 1.0])
        assert enc.times[0] == 0.0

    def test_first_event_dt_zero(self):
        j = CustomerJourney("u1", [ev("B", 999_999)], False, 0.0)
        enc = encode_journey(j, self.vocab)
        assert enc.features[0, -1] == 0.0

    def test_case_journey_channel_onehots(self):
        # paid search / natural search alternation over five events
        chans = ["A", "B", "A", "A", "B"]
        j = CustomerJourney("u1", [ev(c, 10 * i) for i, c in enumerate(chans)], True, 5.0)
        enc = encode_journey(j, self.vocab)
        expected_a = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(enc.features[:, 0], expected_a)
        np.testing.assert_array_equal(enc.features[:, 1], 1.0 - expected_a)
        np.testing.assert_array_equal(enc.labels, [0, 0, 0, 0, 1])
        # a one-journey table
        assert isinstance(enc, JourneyTable) and len(enc) == 1
        assert (enc.features.shape, enc.times.shape, enc.labels.shape) == ((5, 4), (5,), (5,))
        assert (enc.features.dtype, enc.times.dtype, enc.labels.dtype) == (np.float64, np.float64, np.int64)
        assert (enc.starts.tolist(), enc.lengths.tolist()) == ([0], [5])

    def test_unknown_token_named(self):
        j = CustomerJourney("u1", [ev("Z", 1)], False, 0.0)
        with pytest.raises(VocabularyError, match="'Z'"):
            encode_journey(j, self.vocab)

    def test_unknown_token_names_journey_and_event(self):
        j = CustomerJourney("u7", [ev("A", 1), ev("B", 2), ev("A", 3, campaign="zz")], False, 0.0)
        with pytest.raises(VocabularyError, match="journey 'u7', event 2: unknown campaign token 'zz'"):
            encode_journey(j, self.vocab)

    def test_overlong_rejected(self):
        j = CustomerJourney("u1", [ev("A", t) for t in range(40)], False, 0.0)
        with pytest.raises(SequenceLengthError):
            encode_journey(j, self.vocab)

    def test_row_sum_invariant(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(channels=("A", "B", "C"), campaigns=("x", "y"))
        for _ in range(20):
            n = int(rng.integers(1, 10))
            ts = np.cumsum(rng.integers(0, 10_000, size=n)).tolist()
            events = [
                ClickEvent(
                    channel_id=vocab.channels[int(rng.integers(3))],
                    campaign_id=vocab.campaigns[int(rng.integers(2))],
                    timestamp=int(t),
                )
                for t in ts
            ]
            enc = encode_journey(CustomerJourney("u", events, False, 0.0), vocab)
            np.testing.assert_allclose(enc.features.sum(axis=1), 2.0 + enc.times)


class TestGenerator:
    def test_deterministic(self, tmp_path):
        cfg = GeneratorConfig(n_journeys=200, include_nonconverted=True)
        v1, j1 = generate_synthetic(cfg, seed=5)
        v2, j2 = generate_synthetic(cfg, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_journeys(p1, j1)
        save_journeys(p2, j2)
        assert p1.read_bytes() == p2.read_bytes()
        assert v1 == v2

    def test_seed_changes_output(self):
        cfg = GeneratorConfig(n_journeys=50, include_nonconverted=True)
        _, j1 = generate_synthetic(cfg, seed=1)
        _, j2 = generate_synthetic(cfg, seed=2)
        assert [j.gmv for j in j1] != [j.gmv for j in j2]

    def test_zero_lift_matches_base_rate(self):
        # binomial oracle: empirical rate within 3 sigma of base_rate
        n = 5000
        cfg = GeneratorConfig(n_journeys=n, key_lift=0.0, base_rate=0.3, include_nonconverted=True)
        _, journeys = generate_synthetic(cfg, seed=11)
        rate = sum(j.converted for j in journeys) / n
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(rate - 0.3) < 3 * sigma

    def test_planted_signal_monotonicity(self):
        # two-proportion one-sided z-test at alpha = 0.01 (z > 2.326)
        cfg = GeneratorConfig(n_journeys=10_000, key_lift=0.3, base_rate=0.2, include_nonconverted=True)
        vocab, journeys = generate_synthetic(cfg, seed=13)
        key = vocab.channels[cfg.key_channel_index]
        with_key = [j for j in journeys if key in [e.channel_id for e in j.events[-3:]]]
        without = [j for j in journeys if key not in [e.channel_id for e in j.events[-3:]]]
        p1 = sum(j.converted for j in with_key) / len(with_key)
        p2 = sum(j.converted for j in without) / len(without)
        pooled = (sum(j.converted for j in with_key) + sum(j.converted for j in without)) / len(journeys)
        z = (p1 - p2) / np.sqrt(pooled * (1 - pooled) * (1 / len(with_key) + 1 / len(without)))
        assert z > 2.326

    def test_conversion_only_default(self):
        cfg = GeneratorConfig(n_journeys=100)
        _, journeys = generate_synthetic(cfg, seed=3)
        assert len(journeys) == 100
        assert all(j.converted for j in journeys)

    def test_gmv_median_scale(self):
        cfg = GeneratorConfig(n_journeys=3000)
        _, journeys = generate_synthetic(cfg, seed=21)
        med = float(np.median([j.gmv for j in journeys]))
        assert 35.0 < med < 70.0

    def test_lengths_within_bounds(self):
        cfg = GeneratorConfig(n_journeys=500, max_len=5, include_nonconverted=True)
        _, journeys = generate_synthetic(cfg, seed=9)
        lengths = {len(j) for j in journeys}
        assert lengths <= set(range(1, 6))
        assert len(lengths) > 1

    def test_paper_scale_config_accepted(self):
        cfg = GeneratorConfig(n_journeys=100_000)
        assert cfg.n_journeys == 100_000

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(base_rate=1.5)
        with pytest.raises(ConfigError):
            GeneratorConfig(base_rate=0.6, key_lift=0.6)
        with pytest.raises(ConfigError):
            GeneratorConfig(n_channels=1)
        with pytest.raises(ConfigError):
            GeneratorConfig(key_channel_index=9, n_channels=5)


class TestGeneratorLimits:
    """The time span's largest value: a journey's last timestamp, a start
    below START_TS_LIMIT seconds plus gaps summing to at most span *
    GAP_JITTER_HIGH seconds, must fit a 64-bit integer."""

    def test_span_above_the_limit_rejected(self):
        for hours in (journey_mod.MAX_SPAN_HOURS * 1.000001, 3e15, 1e16, 1e17):
            with pytest.raises(ConfigError, match="time_span_hours"):
                GeneratorConfig(time_span_hours=hours)

    def test_span_below_the_limit_fits_int64(self):
        # 32-event journeys spread the span over the most gaps; the limit
        # itself is the bound of the jitter at its top
        hours = journey_mod.MAX_SPAN_HOURS * 0.999999
        cfg = GeneratorConfig(n_journeys=200, max_len=32, time_span_hours=hours, include_nonconverted=True)
        _, journeys = generate_synthetic(cfg, seed=3)
        last = [j.events[-1].timestamp for j in journeys]
        assert max(last) < 2**63
        # the gaps are the span's, not a 1-second floor from a wrapped cast
        assert min(j.events[-1].timestamp - j.events[0].timestamp for j in journeys if len(j) > 1) > hours * 3600 * 0.8

    @pytest.mark.parametrize("seed", (0, 7, 31))
    @pytest.mark.parametrize(
        "shape",
        [
            {},
            {"max_len": 1},
            {"max_len": 32, "include_nonconverted": True},
            {"max_len": 12, "n_channels": 8, "n_campaigns": 3, "key_channel_index": 5},
            {"max_len": 4, "time_span_hours": 100000.0, "include_nonconverted": True},
            {"max_len": 6, "base_rate": 0.05, "key_lift": 0.9, "time_span_hours": 0.001},
        ],
    )
    def test_journeys_equal_the_numpy_oracle(self, shape, seed, tmp_path):
        # the draws are the oracle's, and the arithmetic after them gives
        # the bytes of its numpy arithmetic
        cfg = GeneratorConfig(n_journeys=300, **shape)
        vocab, journeys = generate_synthetic(cfg, seed)
        save_journeys(tmp_path / "fast.jsonl", journeys)
        save_journeys(tmp_path / "oracle.jsonl", synthetic_journeys(cfg, vocab, np.random.default_rng(seed)))
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


class TestJsonlRoundTrip:
    def test_round_trip_lossless(self, tmp_path):
        cfg = GeneratorConfig(n_journeys=1000, include_nonconverted=True)
        _, journeys = generate_synthetic(cfg, seed=17)
        path = tmp_path / "journeys.jsonl"
        save_journeys(path, journeys)
        loaded = load_journeys(path)
        assert len(loaded) == len(journeys)
        for a, b in zip(journeys, loaded):
            assert a.user_id == b.user_id
            assert a.converted == b.converted
            assert a.gmv == b.gmv
            assert a.labels == b.labels
            assert a.events == b.events

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_journeys(path) == []

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {"user_id": "u", "events": [{"channel": "A", "campaign": "c", "ts": 1}], "converted": False, "gmv": 0.0}
        )
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_journeys(path)

    def test_out_of_order_events_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {
            "user_id": "u",
            "events": [{"channel": "A", "campaign": "c", "ts": 9}, {"channel": "A", "campaign": "c", "ts": 1}],
            "converted": False,
            "gmv": 0.0,
        }
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_journeys(path)

    @pytest.mark.parametrize("value", ("NaN", "Infinity", pytest.param(str(10 ** 400), id="int-too-large")))
    def test_non_finite_gmv_line_number(self, tmp_path, value):
        # json.loads accepts NaN, Infinity and 10**400 written out (which
        # float() cannot convert); a journey must not
        path = tmp_path / "bad.jsonl"
        good = {"user_id": "u", "events": [{"channel": "A", "campaign": "c", "ts": 1}], "converted": True, "gmv": 5.0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(good).replace("5.0", value) + "\n")
        with pytest.raises(ValidationError, match="line 2: gmv must be finite"):
            load_journeys(path)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        (
            ("channel", "", "channel_id"),
            ("campaign", "", "campaign_id"),
            ("ts", -1, "timestamp"),
            ("ts", True, "timestamp"),
            pytest.param("ts", 10 ** 400, "fits a float", id="ts-int-too-large"),
            ("event", 7, "event 0 must be a JSON object"),
            ("event", {"channel": "A", "campaign": "c"}, "event 0 is missing field 'ts'"),
            ("user_id", 7, "user_id"),
            ("converted", "yes", "converted"),
            ("gmv", "5", "gmv must be a number"),
            ("gmv", True, "gmv must be a number"),
        ),
    )
    def test_bad_value_names_its_line(self, tmp_path, field, value, message):
        # the types check every value; the reader adds the line to their errors
        good = {"user_id": "u", "events": [{"channel": "A", "campaign": "c", "ts": 1}], "converted": True, "gmv": 5.0}
        bad = json.loads(json.dumps(good))
        if field in ("channel", "campaign", "ts"):
            bad["events"][0][field] = value
        elif field == "event":
            bad["events"][0] = value
        else:
            bad[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError, match=f"line 2: .*{message}"):
            load_journeys(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"user_id": "u", "events": [], "converted": False}) + "\n")
        with pytest.raises(ValidationError, match="gmv"):
            load_journeys(path)

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
        path = tmp_path / "vocab.json"
        save_vocabulary(path, vocab)
        assert load_vocabulary(path) == vocab
        assert vocab.encoding_dim == 5


READ_VOCAB = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
READER = "the journey reader process"


def record(user: str, channels, converted: bool = False) -> bytes:
    events = [{"channel": c, "campaign": "c1", "ts": 60 * i} for i, c in enumerate(channels)]
    gmv = 5.0 if converted else 0.0
    return json.dumps({"user_id": user, "events": events, "converted": converted, "gmv": gmv}).encode()


# a record of each fault, in place of a good line: two faulty records, then
# the two encoding errors, which the types do not see
FAULTS = {
    "record": b"{broken",
    "utf8": record("u\xff", ["A"]).replace(b"u\\u00ff", b"u\xff\xfe"),
    "unknown": record("zed", ["A", "Z"]),
    "long": record("long", ["A"] * (MAX_SEQ_LEN + 1)),
}


def outcome(read):
    """The bytes of the table's columns, or the class and message of the
    error that stopped the read."""
    try:
        table = read()
    except ValidationError as exc:
        return type(exc), str(exc)
    return tuple(getattr(table, name).tobytes() for name in ("features", "times", "labels", "lengths"))


def one_process(path):
    return outcome(lambda: journey_table(iter_journeys(path), READ_VOCAB))


@pytest.fixture
def forks(monkeypatch):
    """The roles of the workers read_table forks, with every file of at
    least 64 bytes split."""
    roles = []

    class Counted(_fork.Worker):
        def __enter__(self):
            roles.append(self.role)
            return super().__enter__()

    monkeypatch.setattr(journey_mod, "Worker", Counted)
    monkeypatch.setattr(journey_mod, "READ_SPLIT_BYTES", 64)
    return roles


class TestJourneyRecords:
    """A file's records, decoded but not built: each builds the journey and
    names the fault that `load_journeys` does."""

    LINES = [
        json.dumps({"user_id": "u1", "events": [{"channel": "A", "campaign": "c", "ts": 1}] * 3, "converted": False,
                    "gmv": 0.0}),
        "",
        json.dumps({"user_id": "u2", "events": [{"channel": "A", "campaign": "c", "ts": -1}], "converted": False,
                    "gmv": 0.0}),
        "{broken",
        json.dumps({"user_id": "u3", "events": "AB", "converted": False, "gmv": 0.0}),
        json.dumps(["not", "a", "record"]),
    ]

    def test_each_record_is_its_line(self, tmp_path):
        raw = [line.encode() for line in self.LINES] + [b"\xff"]
        path = tmp_path / "journeys.jsonl"
        path.write_bytes(b"\n".join(raw) + b"\n")
        records = list(JourneyRecords(path))
        assert [line_no for line_no, _ in records] == [1, 3, 4, 5, 6, 7]
        assert record_journey(records[0]).events == [ClickEvent("A", "c", 1)] * 3
        assert record_events(records[0]) == 3 and record_events(records[1]) == 1
        # a journey is its own record
        journey = record_journey(records[0])
        assert record_journey(journey) is journey and record_events(journey) == 3
        for record, message in zip(records[1:], (
            "line 3: timestamp must be", "line 4: malformed JSON", "line 5: field 'events' must be a list",
            "line 6: journey record must be a JSON object", "line 7: not UTF-8 text",
        )):
            with pytest.raises(LineError, match=message):
                record_journey(record)
            if record[0] != 3:  # a record with no list of events cannot be counted either
                with pytest.raises(LineError, match=message):
                    record_events(record)
            # the fault that reading the line alone, at its place, names
            line_no = record[0]
            path.write_bytes(b"\n" * (line_no - 1) + raw[line_no - 1] + b"\n")
            with pytest.raises(LineError, match=message):
                load_journeys(path)


class TestReadTable:
    """read_table against journey_table(iter_journeys(path)): the same table
    or the same error, on one process or two."""

    @pytest.mark.parametrize("end", (b"\n", b"\r\n"))
    def test_two_processes_read_the_table_of_one(self, tmp_path, forks, end):
        cfg = GeneratorConfig(n_journeys=200, max_len=6, include_nonconverted=True)
        vocab, journeys = generate_synthetic(cfg, seed=3)
        path = tmp_path / "journeys.jsonl"
        save_journeys(path, journeys)
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        expected = outcome(lambda: journey_table(iter_journeys(path), vocab))
        assert outcome(lambda: read_table(path, vocab)) == expected and forks == []
        assert outcome(lambda: read_table(path, vocab, workers=2)) == expected and forks == [READER]
        assert_no_child_left()

    def test_no_fork_reads_on_one_process(self, tmp_path, forks, monkeypatch):
        # where the platform cannot fork, two workers read the table of one
        # and start no process
        vocab, journeys = generate_synthetic(GeneratorConfig(n_journeys=200, max_len=6), seed=3)
        path = tmp_path / "journeys.jsonl"
        save_journeys(path, journeys)
        expected = outcome(lambda: read_table(path, vocab))
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(_fork.Worker, "__enter__", lambda self: pytest.fail(f"{self.role} was forked"))
        assert outcome(lambda: read_table(path, vocab, workers=2)) == expected

    @pytest.mark.parametrize("workers", (0, -3))
    def test_fewer_than_one_worker_rejected(self, tmp_path, workers):
        # as in train, evaluate_roc and attribute_journeys
        vocab, journeys = generate_synthetic(GeneratorConfig(n_journeys=5), seed=3)
        path = tmp_path / "journeys.jsonl"
        save_journeys(path, journeys)
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            read_table(path, vocab, workers=workers)

    @pytest.mark.parametrize("layout", ("lone-cr", "cr-after-the-middle", "last-byte"))
    def test_no_newline_after_the_middle_reads_on_one_process(self, tmp_path, forks, layout):
        # the split needs a \n after the middle that does not end the file
        lines = [record(f"u{i}", ["A", "B"], i % 3 == 0) for i in range(40)]
        data = {
            "lone-cr": b"\r".join(lines),
            "cr-after-the-middle": b"\n".join(lines[:10]) + b"\n" + b"\r".join(lines[10:]),
            "last-byte": b"\r".join(lines) + b"\n",
        }[layout]
        path = tmp_path / "journeys.jsonl"
        path.write_bytes(data)
        assert outcome(lambda: read_table(path, READ_VOCAB, workers=2)) == one_process(path)
        assert forks == []

    def test_tail_lines_count_from_the_head_by_text_rules(self, tmp_path, forks):
        # the head ends lines with \n, \r\n and lone \r, and has blank lines;
        # a fault past the split names its line counted from the file's start
        good = record("u", ["A", "B"])
        ends = itertools.cycle((b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r\n", b" \t\n"))
        head = b"".join(good + next(ends) for _ in range(30))
        data = head + (good + b"\n") * 60 + b"{broken\n" + good + b"\n"
        path = tmp_path / "journeys.jsonl"
        path.write_bytes(data)
        line_no = len(data.decode().splitlines()) - 1
        with pytest.raises(LineError) as err:
            read_table(path, READ_VOCAB, workers=2)
        assert err.value.line_no == line_no and str(err.value).startswith(f"line {line_no}: malformed JSON")
        assert one_process(path) == (LineError, str(err.value)) and forks == [READER]
        assert_no_child_left()

    @pytest.mark.parametrize(("first", "second"), itertools.product(FAULTS, FAULTS))
    def test_record_faults_come_before_encoding_errors(self, tmp_path, forks, first, second):
        # a faulty record anywhere wins over an encoding error anywhere, and
        # the earliest of each kind wins: by where each was found, since the
        # encoding errors are ValidationErrors too
        lines = [record(f"u{i}", ["A", "B"], i % 3 == 0) for i in range(60)]
        lines[4], lines[50] = FAULTS[first], FAULTS[second]
        path = tmp_path / "journeys.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        kind, message = outcome(lambda: read_table(path, READ_VOCAB, workers=2))
        records = ("record", "utf8")
        if first in records or second in records:
            assert kind is LineError and message.startswith(f"line {5 if first in records else 51}: ")
        else:
            assert kind is {"unknown": VocabularyError, "long": SequenceLengthError}[first]
            assert ("zed" if first == "unknown" else "long") in message
        assert (kind, message) == one_process(path) and forks == [READER]
        assert_no_child_left()

    def test_fuzzed_files_read_as_on_one_process(self, tmp_path, forks):
        # random LF, CRLF and lone-CR line ends, blank lines and one random
        # fault, or none, at a random line: the same table or the same error
        rng = random.Random(2028)
        path = tmp_path / "journeys.jsonl"
        split = 0
        for case in range(80):
            lines = [
                record(f"u{case}-{i}", rng.choices("AB", k=rng.randint(1, 6)), rng.random() < 0.3)
                for i in range(rng.randint(1, 30))
            ]
            fault = rng.choice([None, *FAULTS])
            if fault is not None:
                lines[rng.randrange(len(lines))] = FAULTS[fault]
            blanks = (b"", b"", b"", b"\n", b"  \r\n", b"\r")
            ends = [rng.choice((b"\n", b"\r\n", b"\r")) + rng.choice(blanks) for _ in lines]
            if rng.random() < 0.2:
                ends[-1] = b""
            path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
            forked = len(forks)
            assert outcome(lambda: read_table(path, READ_VOCAB, workers=2)) == one_process(path), case
            split += len(forks) > forked
        assert split > 40
        assert_no_child_left()
