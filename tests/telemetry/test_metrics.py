"""Metrics registry: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_any_direction(self):
        gauge = Gauge("depth")
        gauge.set(7.5)
        gauge.set(2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("lat", bounds=(1, 4, 16))
        for value in (0, 1, 2, 4, 5, 100):
            hist.observe(value)
        # <=1: {0,1}; <=4: {2,4}; <=16: {5}; overflow: {100}
        assert hist.counts == [2, 2, 1, 1]
        assert hist.total == 6
        assert hist.sum == 112.0

    def test_bucket_is_the_first_bound_at_or_above_the_value(self):
        bounds = (1, 4, 16)
        hist = Histogram("lat", bounds=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in (0, 0.5, 1, 1.0, 1.5, 3.999, 4, 4.001, 16, 16.0,
                      16.5, 1e9):
            hist.observe(value)
            # The linear scan the bisection replaced, as the reference.
            index = next((i for i, bound in enumerate(bounds)
                          if value <= bound), len(bounds))
            expected[index] += 1
        assert hist.counts == expected

    def test_valid_increasing_bounds_accepted(self):
        Histogram("bits", bounds=(18, 54, 72, 144, 288))

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("x", bounds=(4, 2))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=())

    def test_rejects_negative_observation(self):
        hist = Histogram("x", bounds=(1,))
        with pytest.raises(ValueError):
            hist.observe(-0.5)

    def test_to_json(self):
        hist = Histogram("x", bounds=(2,))
        hist.observe(1)
        assert hist.to_json() == {
            "bounds": [2], "counts": [1, 0], "total": 1, "sum": 1.0,
        }


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", (1, 2)) is \
            registry.histogram("h", (1, 2))

    def test_cross_type_name_collision(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name", (1,))

    def test_histogram_bounds_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 3))

    def test_snapshot_deterministic_and_typed(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z.count").inc(3)
            registry.counter("a.count").inc(1)
            registry.gauge("a.gauge").set(1.5)
            registry.histogram("m.hist", (10,)).observe(4)
            return registry.snapshot()

        snapshot = build()
        # Same construction in any key-request order -> same snapshot.
        assert list(snapshot) == list(build())
        assert snapshot["z.count"] == 3
        assert snapshot["a.gauge"] == 1.5
        assert snapshot["m.hist"]["total"] == 1

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.gauge("load").set(0.5)
        text = registry.render()
        assert "runs" in text and "load" in text
