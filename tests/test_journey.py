import json

import numpy as np
import pytest

from deepmta.errors import ConfigError, SequenceLengthError, ValidationError, VocabularyError
from deepmta.journey import (
    ClickEvent,
    CustomerJourney,
    GeneratorConfig,
    Vocabulary,
    encode_journey,
    generate_synthetic,
    load_journeys,
    load_vocabulary,
    save_journeys,
    save_vocabulary,
    split_stream,
)


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

    def test_unknown_token_named(self):
        j = CustomerJourney("u1", [ev("Z", 1)], False, 0.0)
        with pytest.raises(VocabularyError, match="'Z'"):
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
