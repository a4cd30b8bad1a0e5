import numpy as np
import pytest

from deepmta.attribution import AttributionResult
from deepmta.errors import DimensionError, ValidationError
from deepmta.journey import ClickEvent, CustomerJourney
from deepmta.report import ChannelReport, aggregate_channels, emit_report, last_click_report
from reference import allocate_gmv, last_click_baseline, load_report_csv


def make_journey(channels, converted=True, gmv=100.0, user="u0"):
    events = [ClickEvent(c, "c1", 10 * i) for i, c in enumerate(channels)]
    return CustomerJourney(user, events, converted, gmv if converted else 0.0)


def attributed(weights, method="shapley_exact"):
    w = np.asarray(weights, dtype=float)
    return AttributionResult(raw_weights=w.copy(), intercept=0.0, weights=w, method=method, unattributed=False)


UNATTRIBUTED = AttributionResult(
    raw_weights=np.array([-0.1, -0.2]), intercept=0.0, weights=np.zeros(2), method="shapley_exact", unattributed=True
)


class TestAllocateGmv:
    def test_repeat_channel_accumulates(self):
        j = make_journey(["A", "B", "A"], gmv=100.0)
        alloc = allocate_gmv(j, np.array([0.25, 0.25, 0.5]))
        assert alloc == {"A": 75.0, "B": 25.0}

    def test_single_event(self):
        j = make_journey(["A"], gmv=42.0)
        assert allocate_gmv(j, np.array([1.0])) == {"A": 42.0}

    def test_length_mismatch(self):
        j = make_journey(["A", "B"])
        with pytest.raises(DimensionError):
            allocate_gmv(j, np.array([1.0]))

    def test_equals_report_share(self):
        # summing weights before scaling by GMV, as the report does; scaling
        # each event first gives 1.7459525247818357 here, one ulp apart
        w = [0.39546198954297845, 0.5930180594914135, 0.011519950965607977]
        j = make_journey(["A", "B", "A"], gmv=4.29)
        report = aggregate_channels([(j, attributed(w))])
        alloc = allocate_gmv(j, np.array(w))
        assert alloc == {c: stats.total_gmv for c, stats in report.channels.items()}
        assert list(alloc) == ["A", "B"]


class TestLastClick:
    def test_all_to_final(self):
        j = make_journey(["A", "B", "A"], gmv=100.0)
        assert last_click_baseline(j) == {"A": 100.0}

    def test_two_channels(self):
        j = make_journey(["A", "B"], gmv=100.0)
        assert last_click_baseline(j) == {"B": 100.0}

    def test_single_event_matches_allocate(self):
        j = make_journey(["A"], gmv=7.0)
        assert last_click_baseline(j) == allocate_gmv(j, np.array([1.0]))

    def test_nonconverted_skipped(self):
        j = make_journey(["A", "B"], converted=False)
        assert last_click_baseline(j) == {}


class TestAggregate:
    def test_average_attribution(self):
        pairs = [
            (make_journey(["A", "B"], gmv=10.0, user="u1"), attributed([0.4, 0.6])),
            (make_journey(["A", "B"], gmv=30.0, user="u2"), attributed([0.6, 0.4])),
        ]
        report = aggregate_channels(pairs)
        assert report.channels["A"].avg_attribution == pytest.approx(0.5)
        assert report.channels["A"].journey_count == 2
        assert report.channels["A"].total_gmv == pytest.approx(0.4 * 10 + 0.6 * 30)
        assert report.total_gmv == 40.0

    def test_weight_length_mismatch(self):
        with pytest.raises(DimensionError):
            aggregate_channels([(make_journey(["A", "B"]), attributed([1.0]))])

    def test_absent_channel_not_reported(self):
        pairs = [(make_journey(["A", "A"]), attributed([0.5, 0.5]))]
        report = aggregate_channels(pairs)
        assert "B" not in report.channels

    def test_unattributed_excluded_and_counted(self):
        pairs = [
            (make_journey(["A", "B"], gmv=10.0), attributed([1.0, 0.0])),
            (make_journey(["A", "B"], gmv=99.0), UNATTRIBUTED),
        ]
        report = aggregate_channels(pairs)
        assert report.attributed_journeys == 1
        assert report.unattributed_journeys == 1
        assert report.total_gmv == 10.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pairs = []
        for i in range(20):
            n = int(rng.integers(1, 6))
            chans = [("A", "B", "C")[int(rng.integers(3))] for _ in range(n)]
            w = rng.random(n)
            w = w / w.sum()
            pairs.append((make_journey(chans, gmv=float(rng.uniform(1, 100)), user=f"u{i}"), attributed(w)))
        r1 = aggregate_channels(pairs, method="m")
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        r2 = aggregate_channels(shuffled, method="m")
        assert set(r1.channels) == set(r2.channels)
        for c in r1.channels:
            assert r1.channels[c].total_gmv == pytest.approx(r2.channels[c].total_gmv)
            assert r1.channels[c].avg_attribution == pytest.approx(r2.channels[c].avg_attribution)

    def test_gmv_conservation_both_methods(self):
        rng = np.random.default_rng(1)
        pairs = []
        for i in range(50):
            n = int(rng.integers(1, 6))
            chans = [("A", "B", "C")[int(rng.integers(3))] for _ in range(n)]
            converted = bool(rng.random() < 0.7)
            w = rng.random(n)
            w = w / w.sum()
            pairs.append(
                (make_journey(chans, converted=converted, gmv=float(rng.uniform(1, 100)), user=f"u{i}"), attributed(w))
            )
        deep = aggregate_channels(pairs, method="deepmta")
        last = last_click_report(pairs)
        total = sum(j.gmv for j, r in pairs if not r.unattributed)
        assert sum(s.total_gmv for s in deep.channels.values()) == pytest.approx(total, rel=1e-9)
        assert sum(s.total_gmv for s in last.channels.values()) == pytest.approx(total, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_channels([])


class TestEmitReport:
    def build_reports(self):
        pairs = [
            (make_journey(["A", "B"], gmv=60.0, user="u1"), attributed([0.75, 0.25])),
            (make_journey(["B"], gmv=40.0, user="u2"), attributed([1.0])),
            (make_journey(["C", "A"], gmv=0.0, converted=False, user="u3"), attributed([0.5, 0.5])),
        ]
        return aggregate_channels(pairs, method="deepmta"), last_click_report(pairs)

    def test_csv_totals_are_column_sums(self, tmp_path):
        report, baseline = self.build_reports()
        path = tmp_path / "report.csv"
        emit_report(report, baseline, path, fmt="csv")
        rows, totals = load_report_csv(path)
        for column in ("deepmta_gmv", "lastclick_gmv", "avg_attribution"):
            assert totals[column] == pytest.approx(sum(r[column] for r in rows))
        assert totals["journey_count"] == sum(r["journey_count"] for r in rows)

    def test_ordering_desc_gmv_then_name(self, tmp_path):
        report, baseline = self.build_reports()
        path = tmp_path / "report.csv"
        emit_report(report, baseline, path, fmt="csv")
        rows, _ = load_report_csv(path)
        keys = [(-r["deepmta_gmv"], r["channel"]) for r in rows]
        assert keys == sorted(keys)

    def test_csv_round_trip_values(self, tmp_path):
        report, baseline = self.build_reports()
        path = tmp_path / "report.csv"
        emit_report(report, baseline, path, fmt="csv")
        rows, _ = load_report_csv(path)
        by_channel = {r["channel"]: r for r in rows}
        assert by_channel["A"]["deepmta_gmv"] == pytest.approx(45.0)
        assert by_channel["B"]["deepmta_gmv"] == pytest.approx(55.0)
        assert by_channel["B"]["lastclick_gmv"] == pytest.approx(100.0)
        assert by_channel["A"]["lastclick_gmv"] == pytest.approx(0.0)
        # C appears only in the non-converted journey: zero GMV, counted once
        assert by_channel["C"]["deepmta_gmv"] == pytest.approx(0.0)
        assert by_channel["C"]["journey_count"] == 1

    def test_empty_report(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(ChannelReport(method="deepmta"), ChannelReport(method="last_click"), path, fmt="csv")
        rows, totals = load_report_csv(path)
        assert rows == []
        assert totals["deepmta_gmv"] == 0.0

    def test_json_mirror(self, tmp_path):
        import json

        report, baseline = self.build_reports()
        path = tmp_path / "report.json"
        emit_report(report, baseline, path, fmt="json")
        obj = json.loads(path.read_text())
        assert obj["method"] == "deepmta"
        assert obj["baseline_method"] == "last_click"
        assert obj["totals"]["deepmta_gmv"] == pytest.approx(100.0)
        assert len(obj["channels"]) == 3

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report(ChannelReport(method="m"), ChannelReport(method="b"), tmp_path / "x", fmt="xml")
