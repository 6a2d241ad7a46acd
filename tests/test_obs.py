"""Tests for the observability subsystem: spans, metrics, stage
timings and recognition diagnostics."""

import io
import json
import pickle

import pytest

from repro import obs
from repro.bytecode_wm import WatermarkKey
from repro.obs.metrics import MetricsRegistry
from repro.obs.recognition import RecognitionReport
from repro.obs.spans import Span, Tracer, attach, render_span_tree
from repro.pipeline import prepare
from repro.pipeline.metrics import StageTimings, stage_span
from repro.workloads import gcd_module


@pytest.fixture(autouse=True)
def _isolated_ambient():
    """Every test sees a fresh ambient tracer and registry."""
    previous = obs.set_registry(MetricsRegistry())
    obs.disable_tracing()
    yield
    obs.set_registry(previous)
    obs.disable_tracing()


class TestSpans:
    def test_nesting_parents_under_ambient(self):
        tracer = obs.enable_tracing()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert [sp.name for sp in tracer.finished] == ["inner", "outer"]

    def test_span_records_duration_and_attributes(self):
        obs.enable_tracing()
        with obs.span("work", copies=3) as sp:
            sp.set(extra="yes")
        assert sp.duration >= 0.0
        assert sp.attributes == {"copies": 3, "extra": "yes"}

    def test_exception_marks_error_status(self):
        tracer = obs.enable_tracing()
        with pytest.raises(ValueError):
            with obs.span("explodes"):
                raise ValueError("boom")
        (sp,) = tracer.finished
        assert sp.status == "error"

    def test_null_tracer_is_inert(self, monkeypatch):
        """Tracing off: the span keeps time and nothing else — no ids
        (so no ``os.urandom``), no ambient context, no record."""

        def no_entropy(_n):
            raise AssertionError("a disabled span asked for an id")

        monkeypatch.setattr("repro.obs.spans.os.urandom", no_entropy)
        assert not obs.get_tracer().enabled
        with obs.span("ignored") as sp:
            sp.set(anything="goes")  # must not raise
            assert obs.current_context() is None
        assert sp.duration > 0.0
        assert not hasattr(sp, "span_id")
        assert obs.get_tracer().drain() == []
        assert obs.current_context() is None

    def test_duration_is_set_when_the_body_raises(self):
        for traced in (False, True):
            if traced:
                obs.enable_tracing()
            with pytest.raises(ValueError):
                with obs.span("explodes") as sp:
                    raise ValueError("boom")
            assert sp.duration > 0.0

    def test_cross_process_graft(self):
        """Worker-side spans pickle home and rebuild one tree."""
        parent_tracer = obs.enable_tracing()
        with obs.span("batch") as batch_span:
            ctx = obs.current_context()
            assert ctx == batch_span.context
            # Simulate the worker: fresh tracer, attach the shipped
            # context, record, drain, pickle back.
            worker = Tracer()
            with attach(pickle.loads(pickle.dumps(ctx))):
                with worker.span("copy"):
                    pass
            shipped = pickle.loads(pickle.dumps(worker.drain()))
        parent_tracer.adopt(shipped)
        by_name = {sp.name: sp for sp in parent_tracer.finished}
        assert by_name["copy"].parent_id == by_name["batch"].span_id
        assert by_name["copy"].trace_id == by_name["batch"].trace_id

    def test_adopt_accepts_dicts(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        doc = tracer.finished[0].to_dict()
        other = Tracer()
        other.adopt([doc])
        assert other.finished[0].span_id == doc["span_id"]

    def test_jsonl_round_trip(self):
        tracer = obs.enable_tracing()
        with obs.span("a", k="v"):
            with obs.span("b"):
                pass
        buf = io.StringIO()
        tracer.write_jsonl(buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == 2
        assert all(doc["kind"] == "span" for doc in lines)
        rebuilt = [Span.from_dict(doc) for doc in lines]
        assert {sp.name for sp in rebuilt} == {"a", "b"}

    def test_render_tree_indents_children(self):
        tracer = obs.enable_tracing()
        with obs.span("root"):
            with obs.span("child"):
                pass
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_orphan_spans_render_as_roots(self):
        orphan = Span(
            name="lost", trace_id="t", span_id="s1",
            parent_id="never-reported", start_unix=1.0,
        )
        assert "lost" in render_span_tree([orphan])


class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_copies_total", "Copies")
        c.inc(status="ok")
        c.inc(2, status="ok")
        c.inc(status="failed")
        assert c.value(status="ok") == 3
        assert c.value(status="failed") == 1
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_pool_size")
        g.set(4)
        g.dec()
        assert g.value() == 3

    def test_registry_idempotent_but_type_strict(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.histogram("x_total")

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h_seconds", buckets=(0.5, 1.0))

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        (sample,) = list(h.samples())
        assert sample["count"] == 5
        assert sample["buckets"]["0.1"] == 1
        assert sample["buckets"]["1"] == 3
        assert sample["buckets"]["10"] == 4
        # +Inf bucket equals the count.
        text = reg.to_prometheus()
        assert 'h_seconds_bucket{le="+Inf"} 5' in text
        assert "h_seconds_count 5" in text

    def test_prometheus_text_is_scrape_shaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "A counter").inc(kind="a b")
        h = reg.histogram("h_seconds", "Histogram", buckets=(1.0,))
        h.observe(0.5, stage="trace")
        text = reg.to_prometheus()
        assert text.endswith("\n")
        assert "# HELP c_total A counter" in text
        assert "# TYPE c_total counter" in text
        assert "# TYPE h_seconds histogram" in text
        assert 'c_total{kind="a b"} 1' in text
        assert 'h_seconds_bucket{stage="trace",le="1"} 1' in text
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # parses

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(path='a"b\\c\nd')
        text = reg.to_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_jsonl_samples_parse(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.2)
        buf = io.StringIO()
        reg.write_jsonl(buf)
        docs = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert {d["kind"] for d in docs} == {"metric"}
        assert {d["type"] for d in docs} == {"counter", "histogram"}

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("with space")
        with pytest.raises(ValueError):
            reg.counter("ok_total").inc(**{"0bad": 1})


class TestStageAccumulator:
    """Stage times accumulate from span durations: ``stage_span``
    credits each closed span to a ``StageTimings`` (it replaced the
    old ``StageAccumulator`` and its second clock)."""

    def test_accumulates_across_entries(self):
        timings = StageTimings()
        with stage_span(timings, "s", "first") as first:
            pass
        with stage_span(timings, "s", "second") as second:
            pass
        assert timings.stages["s"] == first.duration + second.duration
        assert timings.total() == sum(timings.stages.values())

    def test_recursive_reentry_counts_wall_time_once(self):
        """No reentrancy guard is needed: each prepare stage is one
        span, the stage spans are disjoint children of ``prepare``, so
        their sum is wall time counted once."""
        tracer = obs.enable_tracing()
        prepared = prepare(
            gcd_module(), WatermarkKey(secret=b"k", inputs=[25, 10]), 16
        )
        spans = tracer.drain()
        (root,) = [sp for sp in spans if sp.name == "prepare"]
        stages = [sp for sp in spans if sp.name.startswith("prepare.")]
        assert len(stages) == len(prepared.timings.stages) == 5
        assert all(sp.parent_id == root.span_id for sp in stages)
        assert prepared.timings.total() <= root.duration

    def test_exception_still_accumulates(self):
        for traced in (False, True):
            if traced:
                obs.enable_tracing()
            timings = StageTimings()
            with pytest.raises(RuntimeError):
                with stage_span(timings, "s", "boom") as sp:
                    raise RuntimeError
            assert timings.stages["s"] == sp.duration > 0.0

    def test_feeds_attached_histogram(self):
        timings = StageTimings()
        with stage_span(timings, "trace", "prepare.trace") as sp:
            pass
        h = obs.get_registry().histogram("repro_stage_seconds")
        assert h.count(stage="trace") == 1
        assert h.sum(stage="trace") == sp.duration

    def test_pickle_keeps_totals_only(self):
        timings = StageTimings({"s": 1.25})
        clone = pickle.loads(pickle.dumps(timings))
        assert clone.stages == {"s": 1.25}
        assert vars(clone) == {"stages": {"s": 1.25}}


class TestRecognitionReport:
    def test_json_round_trip_with_int_keys(self):
        report = RecognitionReport(
            scheme="bytecode",
            complete=True,
            value=0xBEEF,
            voting={0: {3: 10, 5: 1}, 1: {2: 9}},
            clear_winners={0: 3, 1: 2},
            moduli=[7, 11],
            moduli_covered=[0, 1],
        )
        rebuilt = RecognitionReport.from_dict(
            json.loads(report.to_json())
        )
        assert rebuilt.voting == report.voting
        assert rebuilt.clear_winners == report.clear_winners
        assert rebuilt.to_dict() == report.to_dict()

    def test_bytecode_summary_shows_funnel(self):
        report = RecognitionReport(
            scheme="bytecode", complete=False,
            windows_inspected=100, window_hits=0,
            moduli=[7, 11], moduli_missing=[0, 1],
            notes=["nothing decoded"],
        )
        text = report.summary()
        assert "NOT recovered" in text
        assert "100 decrypt attempts" in text
        assert "p_0=7" in text and "p_1=11" in text
        assert "note: nothing decoded" in text

    def test_native_summary_shows_chain(self):
        report = RecognitionReport(
            scheme="native", complete=True, value=5,
            events_observed=12, runs_found=3, run_lengths=[9, 2, 1],
            chain_length=9, bf_entry=0x8000, width=8,
        )
        text = report.summary()
        assert "0x8000" in text
        assert "3 linked runs" in text
        assert "longest 9" in text
