"""Telemetry primitive tests: counters, gauges, histograms, spans."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Counter, Gauge, Histogram, Telemetry, TraceSpan
from repro.runtime.telemetry import ExactSum, default_latency_buckets

#: Finite doubles from the smallest subnormal 2**-1074 up to just under
#: 2**13, both signs, plus signed zeros: every one is an exact
#: ``mantissa * 2**exponent`` with a 53-bit mantissa.
doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.0 ** 12]),
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1),
              st.integers(-1074, -40)),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def accumulate(values, *, scalar=False):
    acc = ExactSum()
    if scalar:
        for value in values:
            acc.add(value)
    else:
        acc.add_many(np.array(values, dtype=float))
    return acc


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_tracks_last_min_max(self):
        g = Gauge("depth")
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        assert g.last == 7.0
        assert g.min == 1.0
        assert g.max == 7.0

    def test_empty_gauge(self):
        g = Gauge("depth")
        assert g.last is None and g.min is None and g.max is None


class TestHistogram:
    def test_observe_and_quantile(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        h.observe_many(np.array([0.5, 1.5, 1.6, 3.0, 10.0]))
        assert h.count == 5
        assert h.sum == pytest.approx(16.6)
        assert h.mean == pytest.approx(16.6 / 5)
        # Median falls in the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.9) == 0.0

    def test_default_buckets_are_increasing(self):
        buckets = default_latency_buckets()
        assert list(buckets) == sorted(buckets)
        assert buckets[0] == 0.5

    def test_to_dict_buckets(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        d = h.to_dict()
        assert d["count"] == 1
        assert d["buckets"][0] == {"le": 1.0, "count": 1}


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(doubles, max_size=60), st.randoms(use_true_random=False))
    def test_any_order_or_split_is_fsum(self, values, random):
        expected = math.fsum(values)
        whole = accumulate(values).value
        assert whole == expected
        assert math.copysign(1.0, whole) == math.copysign(1.0, expected)
        shuffled = list(values)
        random.shuffle(shuffled)
        assert accumulate(shuffled, scalar=True).value == expected
        # Any split into pieces, each accumulated alone, then merged.
        cuts = sorted(random.sample(range(len(values) + 1),
                                    k=min(3, len(values) + 1)))
        merged = ExactSum()
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            merged.merge(accumulate(shuffled[lo:hi]))
        assert merged.value == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(doubles, max_size=20), st.lists(doubles, max_size=20),
           st.lists(doubles, max_size=20))
    def test_merge_is_associative_and_commutative(self, a, b, c):
        def merged(*parts):
            acc = ExactSum()
            for part in parts:
                acc.merge(part)
            return acc

        left = merged(merged(accumulate(a), accumulate(b)), accumulate(c))
        right = merged(accumulate(a), merged(accumulate(b), accumulate(c)))
        assert left.value == right.value == math.fsum(a + b + c)
        assert (merged(accumulate(a), accumulate(b)).value
                == merged(accumulate(b), accumulate(a)).value)

    def test_large_array_stays_exact(self):
        values = np.random.default_rng(3).uniform(0.0, 300.0, 200_000)
        values[::7] = 1e-300
        assert accumulate(values).value == math.fsum(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ExactSum().add(bad)
        with pytest.raises(ValueError):
            ExactSum().add_many(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            Histogram("h").observe(bad)
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.observe_many(np.array([1.0, bad]))
        assert h.count == 0


class TestHistogramMerge:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 5000.0), max_size=40),
           st.lists(st.floats(0.0, 5000.0), max_size=40))
    def test_merge_equals_observing_the_concatenation(self, a, b):
        left, right, both = Histogram("h"), Histogram("h"), Histogram("h")
        left.observe_many(np.array(a))
        for value in b:
            right.observe(value)
        both.observe_many(np.array(a + b))
        left.merge(right)
        assert left.to_dict() == both.to_dict()

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,)).merge(Histogram("h", bounds=(2.0,)))


class TestSpans:
    def test_span_lifecycle(self):
        t = Telemetry()
        span = t.span("outage", 10.0, node=3)
        assert t.open_spans() == [span]
        span.close(25.0)
        assert span.duration == 15.0
        assert t.open_spans() == []
        assert t.find_spans("outage") == [span]

    def test_double_close_rejected(self):
        span = TraceSpan("s", 0.0)
        span.close(1.0)
        with pytest.raises(ValueError):
            span.close(2.0)

    def test_close_before_start_rejected(self):
        with pytest.raises(ValueError):
            TraceSpan("s", 5.0).close(4.0)


class TestTelemetryRegistry:
    def test_instruments_are_singletons_by_name(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")
        assert t.gauge("g") is t.gauge("g")
        assert t.histogram("h") is t.histogram("h")

    def test_json_round_trip(self, tmp_path):
        t = Telemetry()
        t.counter("deliveries").inc(3)
        t.gauge("depth").set(2.0)
        t.histogram("lat").observe(1.0)
        t.span("outage", 1.0, node=2).close(4.0)

        payload = json.loads(t.to_json())
        assert payload["schema_version"] == 1
        assert payload["counters"]["deliveries"] == 3
        assert payload["gauges"]["depth"]["last"] == 2.0
        assert payload["histograms"]["lat"]["count"] == 1
        assert payload["spans"][0]["name"] == "outage"

        # The file form additionally carries the bench-style provenance
        # block; everything else matches the in-memory export exactly.
        path = tmp_path / "telemetry.json"
        t.dump(str(path))
        dumped = json.loads(path.read_text())
        metadata = dumped.pop("metadata")
        assert dumped == payload
        assert set(metadata) == {"git_commit", "timestamp_utc", "host"}
