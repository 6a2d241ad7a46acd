"""Tests for the telemetry hub (`repro.obs.journal`).

Unit coverage for the hub itself (rings, journal writes, rotation,
torn tails, the ambient emit path, the span sink) plus one integration
case proving that pool workers inherit the hub through the batch
initializer and land their events in the parent's journal.
"""

import json
import os

import pytest

from repro import obs
from repro.bytecode_wm import WatermarkKey
from repro.obs.journal import (
    Event,
    HubConfig,
    TelemetryHub,
    emit,
    get_hub,
    journal_segments,
    read_events,
    read_journal,
    read_spans,
    set_hub,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import prepare, run_batch, sequential_specs
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"hub-key", inputs=[25, 10])


def make_hub(tmp_path, **overrides):
    defaults = dict(journal_path=str(tmp_path / "journal.jsonl"))
    defaults.update(overrides)
    return TelemetryHub(HubConfig(**defaults))


class TestEvent:
    def test_round_trip(self):
        event = Event(kind="embed", name="copy-1", unix=12.5,
                      attrs={"ok": True}, trace_id="t", span_id="s")
        assert Event.from_dict(event.to_dict()) == event
        assert event.to_dict()["rec"] == "event"

    def test_matches_filters(self):
        event = Event(kind="http.request", name="/v1/embed",
                      attrs={"route": "/v1/embed"})
        assert event.matches()
        assert event.matches(kind="http.request")
        assert not event.matches(kind="fault")
        assert event.matches(name="/v1/*")
        assert not event.matches(name="/v2/*")
        assert event.matches(route="/v1/embed")
        assert not event.matches(route="/v1/recognize")

    def test_route_falls_back_to_name(self):
        event = Event(kind="circuit", name="/v1/embed")
        assert event.matches(route="/v1/embed")


class TestHubConfig:
    @pytest.mark.parametrize("field,value", [
        ("ring_events", 0), ("ring_spans", 0),
        ("max_bytes", 0), ("max_segments", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            HubConfig(**{field: value})

    def test_worker_config_never_rotates_or_journals_spans(self, tmp_path):
        hub = make_hub(tmp_path)
        worker = hub.worker_config()
        assert worker.journal_path == hub.config.journal_path
        assert worker.rotate is False
        assert worker.record_spans is False


class TestTelemetryHub:
    def test_emit_lands_in_ring_and_journal(self, tmp_path):
        hub = make_hub(tmp_path)
        hub.emit("embed", "copy-1", ok=True)
        hub.emit("recognize", "d1", complete=False)
        assert hub.emitted == 2
        tail = hub.tail()
        assert [e.kind for e in tail] == ["embed", "recognize"]
        events = read_events(str(tmp_path))
        assert [e.name for e in events] == ["copy-1", "d1"]
        assert events[0].attrs == {"ok": True}
        hub.close()

    def test_attributes_may_be_called_kind_or_name(self, tmp_path):
        hub = make_hub(tmp_path)
        hub.emit("embed", "copy-1", kind="k", name="n")
        set_hub(hub)
        try:
            emit("fault", "site", kind="raise", name="x")
        finally:
            set_hub(None)
        events = read_events(str(tmp_path))
        assert [(e.kind, e.name) for e in events] == [
            ("embed", "copy-1"), ("fault", "site")
        ]
        assert events[0].attrs == {"kind": "k", "name": "n"}
        assert events[1].attrs == {"kind": "raise", "name": "x"}
        hub.close()

    def test_tail_filters_and_limit(self, tmp_path):
        hub = TelemetryHub(HubConfig())  # ring-only, no journal
        for index in range(10):
            hub.emit("copy", f"copy-{index:02d}")
        hub.emit("fault", "daemon.job")
        assert len(hub.tail(limit=5)) == 5
        assert [e.kind for e in hub.tail(kind="fault")] == ["fault"]
        assert len(hub.tail(name="copy-0*")) == 10

    def test_ring_is_bounded_but_counter_is_not(self, tmp_path):
        hub = TelemetryHub(HubConfig(ring_events=4))
        for index in range(10):
            hub.emit("copy", str(index))
        assert hub.emitted == 10
        assert [e.name for e in hub.tail()] == ["6", "7", "8", "9"]

    def test_rotation_shifts_segments(self, tmp_path):
        hub = make_hub(tmp_path, max_bytes=200, max_segments=3)
        for index in range(30):
            hub.emit("copy", f"copy-{index:04d}")
        hub.close()
        segments = journal_segments(str(tmp_path / "journal.jsonl"))
        assert len(segments) > 1
        # Oldest-first concatenation stays chronological.
        names = [e.name for e in read_events(str(tmp_path))]
        assert names == sorted(names)
        assert names[-1] == "copy-0029"

    def test_rotation_drops_beyond_max_segments(self, tmp_path):
        hub = make_hub(tmp_path, max_bytes=120, max_segments=2)
        for index in range(40):
            hub.emit("copy", f"copy-{index:04d}")
        hub.close()
        segments = journal_segments(str(tmp_path / "journal.jsonl"))
        assert len(segments) <= 2
        names = [e.name for e in read_events(str(tmp_path))]
        assert names[-1] == "copy-0039"
        assert "copy-0000" not in names  # oldest history was dropped

    def test_torn_final_line_is_tolerated(self, tmp_path):
        hub = make_hub(tmp_path)
        hub.emit("embed", "whole")
        hub.close()
        path = tmp_path / "journal.jsonl"
        with open(path, "a") as fp:
            fp.write('{"rec": "event", "kind": "embed", "na')
        events = read_events(str(path))
        assert [e.name for e in events] == ["whole"]

    def test_non_event_records_are_skipped_by_read_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w") as fp:
            fp.write(json.dumps({"rec": "span", "name": "x",
                                 "trace_id": "t", "span_id": "s",
                                 "parent_id": None,
                                 "start_unix": 0.0}) + "\n")
            fp.write(json.dumps({"rec": "metrics", "samples": []}) + "\n")
            fp.write("not json at all\n")
        assert read_events(str(path)) == []
        assert len(read_spans(str(path))) == 1
        assert len(list(read_journal(str(path)))) == 2

    def test_snapshot_metrics_record(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        hub = make_hub(tmp_path)
        hub.snapshot_metrics(registry)
        hub.close()
        docs = list(read_journal(str(tmp_path)))
        assert docs[0]["rec"] == "metrics"
        assert docs[0]["samples"]

    def test_journal_bytes(self, tmp_path):
        hub = make_hub(tmp_path)
        assert hub.journal_bytes() == 0
        hub.emit("copy", "c")
        assert hub.journal_bytes() > 0
        hub.close()
        assert TelemetryHub(HubConfig()).journal_bytes() == 0

    def test_missing_journal_dir_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "journal.jsonl"
        hub = TelemetryHub(HubConfig(journal_path=str(nested)))
        hub.emit("copy", "c")
        hub.close()
        assert nested.exists()


class TestAmbientHub:
    def test_emit_is_noop_without_hub(self):
        assert get_hub() is None
        assert emit("embed", "nobody-home") is None

    def test_set_hub_returns_previous(self, tmp_path):
        first = TelemetryHub(HubConfig())
        assert set_hub(first) is None
        second = TelemetryHub(HubConfig())
        assert set_hub(second) is first
        set_hub(None)

    def test_module_emit_reaches_hub(self, tmp_path):
        hub = TelemetryHub(HubConfig())
        set_hub(hub)
        emit("fault", "site", action="raise")
        assert [e.kind for e in hub.tail()] == ["fault"]
        set_hub(None)


class TestSpanSink:
    def test_finished_spans_fan_into_journal(self, tmp_path):
        hub = make_hub(tmp_path)
        set_hub(hub)
        tracer = obs.enable_tracing()
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            obs.disable_tracing()
            set_hub(None)
        hub.close()
        spans = read_spans(str(tmp_path))
        assert sorted(s.name for s in spans) == ["inner", "outer"]
        assert len({s.trace_id for s in spans}) == 1
        assert len(hub.recent_spans()) == 2
        assert len(hub.recent_traces()) == 1
        assert tracer.finished

    def test_record_spans_false_keeps_journal_span_free(self, tmp_path):
        hub = make_hub(tmp_path, record_spans=False)
        set_hub(hub)
        obs.enable_tracing()
        try:
            with obs.span("worker-side"):
                pass
        finally:
            obs.disable_tracing()
            set_hub(None)
        hub.close()
        assert read_spans(str(tmp_path)) == []

    def test_adopted_spans_hit_the_sink(self, tmp_path):
        from repro.obs.spans import Span

        hub = make_hub(tmp_path)
        set_hub(hub)
        tracer = obs.enable_tracing()
        try:
            tracer.adopt([Span(name="from-worker", trace_id="t",
                               span_id="s", parent_id=None,
                               start_unix=1.0)])
        finally:
            obs.disable_tracing()
            set_hub(None)
        hub.close()
        assert [s.name for s in read_spans(str(tmp_path))] == ["from-worker"]


class TestObsCli:
    """`repro obs` against a journal built through the real hub."""

    @pytest.fixture()
    def journal_dir(self, tmp_path):
        hub = make_hub(tmp_path)
        set_hub(hub)
        tracer = obs.enable_tracing()
        try:
            with obs.span("http.request", path="/v1/embed"):
                with obs.span("copy", copy_id="copy-0001"):
                    pass
            hub.emit("http.request", "/v1/embed", route="/v1/embed",
                     status=200, seconds=0.2)
            hub.emit("http.request", "/v1/embed", route="/v1/embed",
                     status=500, seconds=0.1)
            hub.emit("recognize", "d", complete=True)
        finally:
            obs.disable_tracing()
            set_hub(None)
            hub.close()
        self.trace_id = tracer.finished[0].trace_id
        return str(tmp_path)

    def run_cli(self, capsys, *argv):
        from repro.cli import main as cli_main
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_tail_prints_json_lines(self, journal_dir, capsys):
        code, out, _ = self.run_cli(
            capsys, "obs", "tail", "--journal", journal_dir,
            "--kind", "http.request", "--limit", "1",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 1 and lines[0]["attrs"]["status"] == 500

    def test_summary_counts_kinds(self, journal_dir, capsys):
        code, out, _ = self.run_cli(
            capsys, "obs", "summary", "--journal", journal_dir
        )
        assert code == 0
        assert "http.request" in out and "spans" in out

    def test_slo_exit_code_is_the_gate(self, journal_dir, capsys):
        # 1 of 2 embed requests failed: 50% error rate breaches 2%.
        code, out, _ = self.run_cli(
            capsys, "obs", "slo", "--journal", journal_dir
        )
        assert code == 1
        assert "FAIL" in out and "embed-error-rate" in out

    def test_slo_custom_spec_can_pass(self, journal_dir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"objectives": [
            {"name": "lenient", "kind": "error_rate", "target": 0.9},
        ]}))
        code, out, _ = self.run_cli(
            capsys, "obs", "slo", "--journal", journal_dir,
            "--spec", str(spec),
        )
        assert code == 0 and "ok " in out

    def test_slo_bad_spec_is_usage_error(self, journal_dir, tmp_path,
                                         capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{}")
        code, _, err = self.run_cli(
            capsys, "obs", "slo", "--journal", journal_dir,
            "--spec", str(spec),
        )
        assert code == 2 and "bad SLO spec" in err

    def test_trace_renders_tree_from_prefix(self, journal_dir, capsys):
        code, out, _ = self.run_cli(
            capsys, "obs", "trace", self.trace_id[:8],
            "--journal", journal_dir,
        )
        assert code == 0
        assert "http.request" in out
        assert "  copy" in out  # child indented under its parent

    def test_trace_unknown_prefix(self, journal_dir, capsys):
        code, _, err = self.run_cli(
            capsys, "obs", "trace", "zzzzzz", "--journal", journal_dir
        )
        assert code == 2 and "no trace matches" in err


class TestBatchIntegration:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare(gcd_module(), KEY, 16)

    def test_batch_copy_events_land_in_one_journal(
        self, prepared, tmp_path
    ):
        hub = make_hub(tmp_path)
        set_hub(hub)
        try:
            report = run_batch(prepared, sequential_specs(4), workers=2)
        finally:
            set_hub(None)
            hub.close()
        assert report.all_ok
        events = read_events(str(tmp_path))
        copies = [e for e in events if e.kind == "copy"]
        assert sorted(e.name for e in copies) == [
            "copy-0001", "copy-0002", "copy-0003", "copy-0004"
        ]
        assert all(e.attrs["ok"] and e.attrs["verified"] for e in copies)

    def test_pool_workers_journal_their_fault_events(
        self, prepared, tmp_path
    ):
        """The initializer hands workers the hub config: a fault that
        fires *inside a pool process* still lands in the journal."""
        from repro import faults
        from repro.faults import FaultPlan, FaultRule
        from repro.faults.retry import RetryPolicy

        # The once-guard is filesystem-backed: fresh pool processes on
        # retry rounds must not re-fire the rule forever.
        plan = FaultPlan([FaultRule(site="batch.worker.task",
                                    action="raise", times=1,
                                    once_token="hub-worker-fault",
                                    state_dir=str(tmp_path))])
        hub = make_hub(tmp_path)
        set_hub(hub)
        faults.install(plan)
        try:
            report = run_batch(
                prepared, sequential_specs(3), workers=2,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )
        finally:
            faults.clear()
            set_hub(None)
            hub.close()
        assert report.all_ok  # the raise was transient; retries recovered
        events = read_events(str(tmp_path))
        fired = [e for e in events if e.kind == "fault"]
        assert fired and fired[0].attrs["site"] == "batch.worker.task"
        retries = [e for e in events if e.kind == "batch.retry"]
        assert retries and retries[0].attrs["count"] >= 1

    def test_single_worker_batch_emits_in_process(self, prepared, tmp_path):
        hub = make_hub(tmp_path)
        set_hub(hub)
        try:
            run_batch(prepared, sequential_specs(2), workers=1)
        finally:
            set_hub(None)
            hub.close()
        copies = [e for e in read_events(str(tmp_path))
                  if e.kind == "copy"]
        assert len(copies) == 2
