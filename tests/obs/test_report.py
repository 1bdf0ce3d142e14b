"""Trace reports: aggregation, byte-stable JSON, torn-tail tolerance."""

from __future__ import annotations

import pytest

from repro.obs import FakeClock, Tracer
from repro.obs.report import load_trace, render_json, render_text, report_payload, trace_report


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(path, clock=FakeClock(tick=0.5)) as tracer:
        tracer.complete("join_kernel", 2.0, method="dp", k=8)
        tracer.complete("join_kernel", 1.0, method="dp", k=8)
        tracer.complete("join_kernel", 4.0, method="fft", k=4096)
        with tracer.span("counting_run", engine="counting"):
            pass
        tracer.event("pi_cache_stats", hits=96, misses=4)
        tracer.event("pi_cache_stats", hits=14, misses=6)
    return path


class TestAggregation:
    def test_span_rows_sorted_by_total(self, trace_path):
        payload = trace_report(trace_path)
        assert payload["events"] == 6 and payload["torn_lines"] == 0
        names = [row["name"] for row in payload["spans"]]
        assert names == ["join_kernel", "counting_run"]
        kernel_row = payload["spans"][0]
        assert kernel_row["count"] == 3
        assert kernel_row["total_seconds"] == pytest.approx(7.0)
        assert kernel_row["max_seconds"] == pytest.approx(4.0)

    def test_kernel_breakdown_by_method(self, trace_path):
        payload = trace_report(trace_path)
        assert payload["kernel"] == [
            {"method": "dp", "count": 2, "total_seconds": pytest.approx(3.0)},
            {"method": "fft", "count": 1, "total_seconds": pytest.approx(4.0)},
        ]

    def test_cache_summary_sums_runs(self, trace_path):
        cache = trace_report(trace_path)["cache"]
        assert cache["runs"] == 2
        assert cache["lookups"] == 120
        assert cache["hits"] == 110 and cache["misses"] == 10
        assert cache["hit_ratio"] == pytest.approx(110 / 120)

    def test_top_truncates_span_rows(self, trace_path):
        payload = trace_report(trace_path, top=1)
        assert len(payload["spans"]) == 1
        assert payload["span_names"] == 2  # the full count survives truncation


class TestRendering:
    def test_json_byte_stable_across_renders(self, trace_path):
        a = render_json(trace_report(trace_path))
        b = render_json(trace_report(trace_path))
        assert a == b
        assert a.startswith("{") and "\n" not in a

    def test_text_mentions_every_section(self, trace_path):
        text = render_text(trace_report(trace_path))
        assert "top spans by total time:" in text
        assert "join_kernel" in text and "counting_run" in text
        assert "join-kernel time by method:" in text
        assert "hit_ratio=0.9167" in text

    def test_empty_trace_renders(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        payload = trace_report(path)
        assert payload["events"] == 0
        assert "(no spans)" in render_text(payload)
        assert render_json(payload) == render_json(trace_report(path))


class TestTornLines:
    def test_torn_tail_counted_not_fatal(self, trace_path):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"span","name":"killed-mid-wr')
        events, torn = load_trace(trace_path)
        assert torn == 1 and len(events) == 6
        payload = report_payload(events, torn=torn)
        assert payload["torn_lines"] == 1

    def test_non_dict_lines_count_as_torn(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('[1,2]\n"str"\n\n', encoding="utf-8")
        events, torn = load_trace(path)
        assert events == [] and torn == 2  # the blank line is simply skipped
