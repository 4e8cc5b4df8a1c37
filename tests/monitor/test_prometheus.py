"""Prometheus text-exposition rendering from the metrics registry."""

from repro.monitor.prometheus import (
    escape_label,
    format_value,
    render_histogram,
    render_metrics,
    render_registry,
    sanitize,
)
from repro.telemetry.processors import LogHistogram, MetricsRegistry

from tests.monitor.helpers import assert_valid_exposition


class TestNameHandling:
    def test_sanitize_replaces_invalid_characters(self):
        assert sanitize("rules.executions") == "rules_executions"
        assert sanitize("rule:R-1 x") == "rule_R_1_x"

    def test_sanitize_guards_leading_digit(self):
        assert sanitize("1st") == "_1st"

    def test_escape_label(self):
        assert escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"


class TestHistogramRendering:
    def test_buckets_are_cumulative_with_inf_overflow(self):
        histogram = LogHistogram("x")
        histogram.observe(0.02)   # falls in the 0.032 bucket
        histogram.observe(0.02)
        histogram.observe(20000.0)  # beyond the last bound -> +Inf only
        lines = render_histogram("lat_ms", histogram)
        assert lines[0] == "# TYPE lat_ms histogram"
        assert 'lat_ms_bucket{le="0.016"} 0' in lines
        assert 'lat_ms_bucket{le="0.032"} 2' in lines
        assert 'lat_ms_bucket{le="16777.216"} 2' in lines
        assert 'lat_ms_bucket{le="+Inf"} 3' in lines
        assert "lat_ms_count 3" in lines
        assert any(line.startswith("lat_ms_sum ") for line in lines)

    def test_labelled_series_share_one_declaration(self):
        h1, h2 = LogHistogram("a"), LogHistogram("b")
        h1.observe(1.0)
        h2.observe(2.0)
        lines = render_histogram("f_ms", h1, labels={"rule": "R1"})
        lines += render_histogram("f_ms", h2, labels={"rule": "R2"},
                                  declare=False)
        assert sum(1 for line in lines if line.startswith("# TYPE")) == 1
        assert 'f_ms_bucket{rule="R1",le="+Inf"} 1' in lines
        assert 'f_ms_count{rule="R2"} 1' in lines
        assert_valid_exposition("\n".join(lines))


class TestRegistryRendering:
    def test_counters_get_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("rules.executions").inc(7)
        lines = render_registry(registry)
        assert "sentinel_rules_executions_total 7" in lines

    def test_context_counters_become_labelled_family(self):
        registry = MetricsRegistry()
        registry.counter("graph.detections").inc(5)
        registry.counter("graph.detections.recent").inc(3)
        registry.counter("graph.detections.cumulative").inc(2)
        text = render_metrics(registry)
        assert "sentinel_graph_detections_total 5" in text
        assert ('sentinel_graph_detections_by_context_total'
                '{context="recent"} 3') in text
        assert ('sentinel_graph_detections_by_context_total'
                '{context="cumulative"} 2') in text
        assert_valid_exposition(text)

    def test_per_rule_histograms_become_labelled_family(self):
        registry = MetricsRegistry()
        registry.histogram("rule:R1").observe(1.0)
        registry.histogram("rule:R2").observe(2.0)
        registry.histogram("condition:R1").observe(0.1)
        registry.histogram("event:Stock_e1").observe(0.5)
        text = render_metrics(registry)
        assert 'sentinel_rule_latency_ms_count{rule="R1"} 1' in text
        assert 'sentinel_rule_latency_ms_count{rule="R2"} 1' in text
        assert 'sentinel_condition_latency_ms_count{rule="R1"} 1' in text
        assert 'sentinel_event_latency_ms_count{event="Stock_e1"} 1' in text
        types = assert_valid_exposition(text)
        assert types["sentinel_rule_latency_ms"] == "histogram"

    def test_plain_stage_histograms_keep_flat_names(self):
        registry = MetricsRegistry()
        registry.histogram("notify.ms").observe(0.2)
        text = render_metrics(registry)
        assert "sentinel_notify_ms_count 1" in text
        assert_valid_exposition(text)

    def test_extra_lines_are_appended(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        text = render_metrics(registry, extra_lines=["# TYPE x counter",
                                                     "x 1"])
        assert text.endswith("x 1\n")
        assert_valid_exposition(text)

    def test_empty_registry_renders_empty(self):
        assert render_metrics(MetricsRegistry()) == ""
