"""Integration tests: observability threaded through the embedding
pipeline, the batch executor and the CLI."""

import dataclasses
import json
import os
import pickle
from collections import Counter

import pytest

from repro import obs
from repro.campaign import CampaignConfig, run_campaign
from repro.cli import main as cli_main
from repro.obs.journal import HubConfig, TelemetryHub, read_spans, set_hub
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    BatchReport,
    CopySpec,
    StageTimings,
    prepare,
    run_batch,
    sequential_specs,
)
from repro.pipeline.batch import embed_copy
from repro.pipeline.prepare import FORMAT_VERSION
from repro.serve.store import ArtifactStore, StoreError
from repro.vm import disassemble, run_module, verify_module
from repro.workloads import collatz_module, gcd_module

from tests.v1_artifacts import v1_artifact

from repro.bytecode_wm import WatermarkKey, embed, recognize

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])
BITS = 16

WEE = ("fn gcd(a, b) { while (a % b != 0) { var t = a % b; a = b; "
       "b = t; } return b; }\n"
       "fn main() { print(gcd(input(), input())); return 0; }\n")

NATIVE_APP = """
fn work(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
    }
    return acc;
}
fn main() { var n = input(); print(work(n)); return 0; }
"""


@pytest.fixture(autouse=True)
def _isolated_ambient():
    previous = obs.set_registry(MetricsRegistry())
    obs.disable_tracing()
    yield
    obs.set_registry(previous)
    obs.disable_tracing()


@pytest.fixture(scope="module")
def prepared():
    return prepare(gcd_module(), KEY, BITS)


STAGES = ("verify", "trace", "cfg", "placement", "plan")


def by_name(spans):
    out = {}
    for sp in spans:
        out.setdefault(sp.name, []).append(sp)
    return out


class TestStageTimings:
    def test_reentrant_measure_regression(self, prepared, tmp_path):
        """The old ``measure`` needed a reentrancy guard against a stage
        re-entered inside itself. Stage times are span durations now,
        and no stage span ever opens inside a span of its own name, so
        nothing is credited twice."""
        tracer = obs.enable_tracing()
        prep = prepare(gcd_module(), KEY, BITS)
        report = run_batch(
            prep, sequential_specs(3, start_watermark=60), workers=1,
            outdir=str(tmp_path),
        )
        spans = tracer.drain()
        parents = {sp.span_id: sp for sp in spans}
        for sp in spans:
            up = parents.get(sp.parent_id)
            while up is not None:
                assert up.name != sp.name, f"{sp.name} opened in itself"
                up = parents.get(up.parent_id)
        groups = by_name(spans)
        assert len(groups["batch.write"]) == 3
        assert report.batch_timings.stages["write"] == sum(
            sp.duration for sp in groups["batch.write"]
        )

    def test_feeds_ambient_stage_histogram(self):
        prep = prepare(gcd_module(), KEY, BITS)
        h = obs.get_registry().histogram("repro_stage_seconds")
        for stage in STAGES:
            assert h.count(stage=stage) == 1
            assert h.sum(stage=stage) == prep.timings.stages[stage]

    def test_pickle_round_trip_keeps_stage_totals(self, prepared):
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.timings.stages == prepared.timings.stages
        assert set(clone.timings.stages) == set(STAGES)
        timings = StageTimings({"trace": 0.5})
        assert pickle.loads(pickle.dumps(timings)).stages == {"trace": 0.5}


class TestStageTimesAreSpanDurations:
    """Every reported time is the duration of the span around its
    interval — the same float, not a second clock's reading."""

    def test_prepare_stages(self):
        tracer = obs.enable_tracing()
        prep = prepare(gcd_module(), KEY, BITS)
        groups = by_name(tracer.drain())
        assert set(prep.timings.stages) == set(STAGES)
        for stage in STAGES:
            (sp,) = groups[f"prepare.{stage}"]
            assert prep.timings.stages[stage] == sp.duration

    @pytest.mark.parametrize("workers", [1, 2])
    def test_copy_and_batch_wall_seconds(self, prepared, workers):
        tracer = obs.enable_tracing()
        report = run_batch(
            prepared,
            sequential_specs(3, start_watermark=30)
            + [CopySpec("too-wide", 1 << BITS)],
            workers=workers,
        )
        groups = by_name(tracer.drain())
        copy_spans = {sp.attributes["copy_id"]: sp for sp in groups["copy"]}
        assert len(copy_spans) == 4
        for result in report.copies:
            assert result.wall_seconds == \
                copy_spans[result.copy_id].duration
        assert copy_spans["too-wide"].status == "error"
        assert not report.copies[-1].ok
        (batch,) = groups["batch"]
        assert report.wall_seconds == batch.duration
        assert report.batch_timings.stages == {"embed": batch.duration}

    def test_untraced_times_are_still_measured(self, prepared):
        prep = prepare(gcd_module(), KEY, BITS)
        report = run_batch(
            prep, sequential_specs(2, start_watermark=50), workers=1
        )
        assert all(prep.timings.stages[s] > 0.0 for s in STAGES)
        assert all(c.wall_seconds > 0.0 for c in report.copies)
        assert report.wall_seconds >= sum(
            c.wall_seconds for c in report.copies
        )

    @pytest.mark.parametrize("cell_workers", [1, 2])
    def test_campaign_cells(self, cell_workers):
        tracer = obs.enable_tracing()
        report = run_campaign(CampaignConfig(
            seed=11, workloads=1, copies=2, bits=(16,),
            attacks=("block-reordering", "locals-renumbering"),
            cell_workers=cell_workers,
        ))
        groups = by_name(tracer.drain())
        (campaign,) = groups["campaign"]
        assert report.wall_seconds == campaign.duration
        assert report.cells and all(c.wall_seconds > 0.0
                                    for c in report.cells)
        if cell_workers == 1:
            # In-process cells record their span on the ambient tracer.
            cell_spans = {
                (sp.attributes["attack"], sp.attributes["intensity"]): sp
                for sp in groups["campaign.cell"]
            }
            assert len(cell_spans) == len(report.cells)
            for cell in report.cells:
                sp = cell_spans[(cell.attack, cell.intensity)]
                assert cell.wall_seconds == sp.duration
                assert sp.parent_id == campaign.span_id


class TestCampaignCellSpans:
    """Pooled attack cells hand their spans home: the same trace tree,
    journaled once each, at any ``cell_workers`` setting."""

    def _traced_campaign(self, journal, cell_workers):
        tracer = obs.enable_tracing()
        hub = TelemetryHub(HubConfig(journal_path=journal))
        set_hub(hub)
        try:
            report = run_campaign(CampaignConfig(
                seed=11, workloads=1, copies=2, bits=(16,),
                attacks=("block-reordering", "locals-renumbering"),
                cell_workers=cell_workers,
            ))
        finally:
            set_hub(None)
            hub.close()
        return report, tracer.drain(), read_spans(journal)

    def test_span_counts_match_across_cell_workers(self, tmp_path):
        def names(spans):
            return Counter(sp.name for sp in spans)

        serial, serial_spans, serial_journal = self._traced_campaign(
            str(tmp_path / "serial.jsonl"), cell_workers=1
        )
        pooled, pooled_spans, pooled_journal = self._traced_campaign(
            str(tmp_path / "pooled.jsonl"), cell_workers=2
        )
        assert pooled.outcomes_json() == serial.outcomes_json()
        assert names(serial_spans)["campaign.cell"] == len(serial.cells)
        assert names(pooled_spans) == names(serial_spans)
        # No span journaled twice (by a worker's inherited sink and
        # again on adopt), none lost.
        assert names(serial_journal) == names(serial_spans)
        assert names(pooled_journal) == names(pooled_spans)
        (campaign,) = [sp for sp in pooled_spans if sp.name == "campaign"]
        for sp in pooled_spans:
            if sp.name == "campaign.cell":
                assert sp.parent_id == campaign.span_id
                assert sp.trace_id == campaign.trace_id


def with_extra_state(prepared, **extra):
    """A copy of ``prepared`` whose pickled state has ``extra`` fields."""
    old = dataclasses.replace(prepared)
    old.__dict__.update(extra)
    return old


class TestPreparePickleCompat:
    def test_prepared_program_pickles(self, prepared):
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.watermark_bits == prepared.watermark_bits
        assert clone.sites == prepared.sites

    def test_oldest_v1_state_is_refused(self, prepared, tmp_path):
        # Even the earliest version-1 pickles, which lacked fields later
        # v1 blobs carried, are refused by the store on their format
        # version, not patched up on load.
        old = v1_artifact(prepared, drop=("dispatch_counts",))
        store = ArtifactStore(str(tmp_path / "store"))
        digest = store.put(old).digest
        with pytest.raises(StoreError, match="format version"):
            store.load(digest)
        assert [q.reason for q in store.quarantined()] == [
            "unsupported format version"
        ]

    def test_v2_blob_with_dispatch_counts_still_mints(self, prepared,
                                                      tmp_path):
        # Version-2 blobs stored before the VM dispatch profiler was
        # removed carry a ``dispatch_counts`` attribute. Nothing reads
        # it, so such a blob loads, verifies and mints as it did.
        old = with_extra_state(prepared, dispatch_counts=[0] * 45)
        assert old.version == FORMAT_VERSION == 2
        store = ArtifactStore(str(tmp_path / "store"))
        digest = store.put(old).digest
        loaded = store.load(digest)
        assert loaded.dispatch_counts == [0] * 45
        assert store.verify() == []
        verify_module(loaded.module)
        copy = embed_copy(loaded, CopySpec("legacy", 0x1D1))
        assert copy.verified and copy.checked
        assert copy.recognized == 0x1D1


#: ``StageTimings({"trace": 0.5, "plan": 0.25})`` as pickled (protocol
#: 5) by the version that derived it from ``StageAccumulator``.
OLD_STAGE_TIMINGS_PICKLE = (
    b"\x80\x05\x95`\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.pipeline"
    b".metrics\x94\x8c\x0cStageTimings\x94\x93\x94)\x81\x94}\x94\x8c\x06"
    b"stages\x94}\x94(\x8c\x05trace\x94G?\xe0\x00\x00\x00\x00\x00\x00"
    b"\x8c\x04plan\x94G?\xd0\x00\x00\x00\x00\x00\x00usb."
)


class TestStageTimingsCompat:
    def test_old_stage_timings_pickle_loads(self):
        old = pickle.loads(OLD_STAGE_TIMINGS_PICKLE)
        assert isinstance(old, StageTimings)
        assert old.stages == {"trace": 0.5, "plan": 0.25}
        assert old.total() == 0.75
        # The encoding is unchanged, so an old artifact holds exactly
        # these bytes for its timings.
        assert pickle.dumps(old, protocol=5) == OLD_STAGE_TIMINGS_PICKLE

    def test_prepared_program_with_parent_timings_state(self, prepared):
        clone = dataclasses.replace(
            prepared, timings=pickle.loads(OLD_STAGE_TIMINGS_PICKLE)
        )
        again = pickle.loads(pickle.dumps(clone))
        assert again.timings.stages == {"trace": 0.5, "plan": 0.25}
        assert again.watermark_bits == prepared.watermark_bits

    def test_parent_report_json_keeps_stage_tables(self):
        doc = {
            "workers": 2, "copy_count": 0, "succeeded": 0, "failed": 0,
            "all_ok": False, "wall_seconds": 1.5,
            "copies_per_second": 0.0, "total_bytes_emitted": 0,
            "cache": {"hits": 1, "misses": 0}, "retry_rounds": 0,
            "resumed": 0,
            "prepare_stages": {"verify": 0.01, "trace": 0.4, "cfg": 0.02,
                               "placement": 0.03, "plan": 0.001},
            "batch_stages": {"embed": 1.4, "write": 0.05},
            "copies": [],
        }
        report = BatchReport.from_json(json.dumps(doc))
        assert report.prepare_timings.stages == doc["prepare_stages"]
        assert report.batch_timings.stages == doc["batch_stages"]
        assert report.wall_seconds == 1.5
        again = report.to_dict()
        assert again["prepare_stages"] == doc["prepare_stages"]
        assert again["batch_stages"] == doc["batch_stages"]


class TestBatchObservability:
    def test_report_json_round_trip(self, prepared, tmp_path):
        report = run_batch(
            prepared, sequential_specs(3, start_watermark=70),
            workers=1,
        )
        path = str(tmp_path / "report.json")
        report.write(path)
        rebuilt = BatchReport.read(path)
        assert rebuilt.to_dict() == report.to_dict()
        assert [c.copy_id for c in rebuilt.copies] == \
            [c.copy_id for c in report.copies]
        assert rebuilt.copies[0].traceback is None

    def test_no_profile_no_dispatch_key(self, prepared):
        report = run_batch(
            prepared, sequential_specs(2, start_watermark=40), workers=1
        )
        doc = report.to_dict()
        assert "dispatch_profile" not in doc
        # Reports archived while batches could be profiled may carry
        # the key; they still load, and it is dropped on rewrite.
        archived = dict(doc, dispatch_profile={
            "runs": 3, "total_steps": 1234, "wall_seconds": 0.5,
            "counts": {"load": 1234},
        })
        rebuilt = BatchReport.from_dict(archived)
        assert rebuilt.to_dict() == doc

    def test_failed_copy_carries_traceback(self, prepared):
        report = run_batch(
            prepared, [CopySpec("wide", 1 << BITS)], workers=1
        )
        bad = report.copies[0]
        assert not bad.ok
        assert "EmbeddingError" in bad.traceback
        assert "Traceback" in bad.traceback
        doc = report.to_dict()
        assert "EmbeddingError" in doc["copies"][0]["traceback"]
        assert BatchReport.from_dict(doc).copies[0].traceback == \
            bad.traceback

    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_tree_covers_batch(self, prepared, workers):
        tracer = obs.enable_tracing()
        report = run_batch(
            prepared, sequential_specs(4, start_watermark=80),
            workers=workers,
        )
        assert report.all_ok
        spans = tracer.drain()
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)
        (batch,) = by_name["batch"]
        assert batch.attributes["copies"] == 4
        copies = by_name["copy"]
        assert len(copies) == 4
        for sp in copies:
            assert sp.parent_id == batch.span_id
            assert sp.trace_id == batch.trace_id
        checks = by_name["copy.self_check"]
        assert len(checks) == 4
        copy_ids = {sp.span_id for sp in copies}
        assert all(sp.parent_id in copy_ids for sp in checks)

    def test_spans_do_not_leak_into_report_json(self, prepared):
        obs.enable_tracing()
        report = run_batch(
            prepared, sequential_specs(2, start_watermark=90), workers=1
        )
        doc = report.to_dict()
        assert "spans" not in doc["copies"][0]

    def test_untraced_batch_produces_no_spans(self, prepared):
        report = run_batch(
            prepared, sequential_specs(2, start_watermark=95), workers=1
        )
        assert report.all_ok
        assert obs.get_tracer().drain() == []

    def test_prepare_emits_stage_spans(self):
        tracer = obs.enable_tracing()
        prepare(gcd_module(), KEY, BITS)
        names = [sp.name for sp in tracer.drain()]
        assert "prepare" in names
        for stage in ("prepare.trace", "prepare.cfg",
                      "prepare.placement", "prepare.plan"):
            assert stage in names


class TestRecognitionSpans:
    @pytest.mark.parametrize("codec", ["gcrt", "rs-8", "hybrid-4"])
    def test_recover_span_carries_the_work_counters(self, codec):
        key = WatermarkKey(secret=b"looping", inputs=[27])
        marked = embed(collatz_module(), 0x2BAD, key, watermark_bits=BITS,
                       codec=codec).module
        tracer = obs.enable_tracing()
        result = recognize(marked, key, BITS, codec=codec)
        assert result.complete and result.value == 0x2BAD
        (span,) = [sp for sp in tracer.drain()
                   if sp.name == "recognize.recover"]
        attrs = span.attributes
        assert attrs["windows"] == result.windows_inspected
        assert attrs["distinct_windows"] == result.distinct_windows
        assert attrs["candidates"] == result.candidates_found
        assert attrs["candidates_after_voting"] == \
            result.candidates_after_voting
        assert attrs["accepted"] == len(result.accepted)
        # A looping program repeats windows, so the counters differ.
        assert 0 < attrs["distinct_windows"] < attrs["windows"]
        assert attrs["candidates"] > 0


class TestObsSummarySpanTable:
    def test_prepare_trace_total_is_the_stage_time(self, tmp_path, capsys):
        hub = TelemetryHub(HubConfig(
            journal_path=str(tmp_path / "journal.jsonl")
        ))
        set_hub(hub)
        obs.enable_tracing()
        try:
            prep = prepare(gcd_module(), KEY, BITS)
        finally:
            obs.disable_tracing()
            set_hub(None)
            hub.close()
        assert cli_main(["obs", "summary", "--journal", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines() if line.startswith("  ")}
        assert rows["name"] == ["count", "total", "s", "mean", "ms"]
        count, total, _mean = rows["prepare.trace"]
        assert count == "1"
        assert total == f"{prep.timings.stages['trace']:.3f}"
        for stage in STAGES:
            assert rows[f"prepare.{stage}"][0] == "1"


class TestObservabilityCli:
    def _write_job(self, tmp_path, count=3):
        (tmp_path / "app.wasm").write_text(disassemble(collatz_module()))
        (tmp_path / "job.json").write_text(json.dumps({
            "module": "app.wasm",
            "secret": "vendor",
            "inputs": [27],
            "bits": 16,
            "pieces": 8,
            "copies": {"count": count, "start_watermark": 501},
        }))
        return str(tmp_path / "job.json")

    def test_batch_embed_obs_out_carries_vm_steps(self, tmp_path):
        job = self._write_job(tmp_path)
        outdir = str(tmp_path / "dist")
        obs_path = str(tmp_path / "obs.jsonl")
        rc = cli_main([
            "batch-embed", job, "-o", outdir, "--workers", "2",
            "--obs-out", obs_path,
        ])
        assert rc == 0
        docs = [json.loads(line)
                for line in open(obs_path).read().splitlines()]
        spans = [d for d in docs if d["kind"] == "span"]
        metrics = [d for d in docs if d["kind"] == "metric"]
        assert spans and metrics
        names = [d["name"] for d in spans]
        assert names.count("copy") == 3
        assert "batch" in names and "prepare" in names
        (batch,) = [d for d in spans if d["name"] == "batch"]
        for d in spans:
            if d["name"] == "copy":
                assert d["parent_id"] == batch["span_id"]
        # Prometheus sibling file is scrape-shaped.
        prom = open(str(tmp_path / "obs.prom")).read()
        assert "# TYPE repro_stage_seconds histogram" in prom
        assert 'le="+Inf"' in prom
        # Every VM run the batch made puts its steps on its span: the
        # key-input trace and each copy's self-check run.
        (trace,) = [d for d in spans if d["name"] == "prepare.trace"]
        assert trace["attributes"]["steps"] == \
            run_module(collatz_module(), [27]).steps
        checks = [d for d in spans if d["name"] == "copy.self_check"]
        assert len(checks) == 3
        assert all(d["attributes"]["steps"] > 0 for d in checks)

    def test_batch_embed_without_flags_emits_nothing(self, tmp_path):
        job = self._write_job(tmp_path, count=2)
        outdir = str(tmp_path / "dist")
        rc = cli_main(["batch-embed", job, "-o", outdir])
        assert rc == 0
        assert not os.path.exists(str(tmp_path / "obs.jsonl"))

    def test_recognize_diagnose(self, tmp_path, capsys):
        src = tmp_path / "app.wee"
        src.write_text(WEE)
        asm = tmp_path / "app.wasm"
        assert cli_main(["compile", str(src), "-o", str(asm)]) == 0
        marked = tmp_path / "marked.wasm"
        rc = cli_main([
            "embed", str(asm), "-o", str(marked),
            "--watermark", "0xBEEF", "--bits", "16",
            "--secret", "vendor", "--inputs", "25,10", "--pieces", "8",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main([
            "recognize", str(marked), "--diagnose",
            "--bits", "16", "--secret", "vendor", "--inputs", "25,10",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0xbeef"
        assert "recovered" in captured.err
        assert "window" in captured.err

    def test_recognize_diagnose_on_unmarked(self, tmp_path, capsys):
        src = tmp_path / "app.wee"
        src.write_text(WEE)
        asm = tmp_path / "app.wasm"
        assert cli_main(["compile", str(src), "-o", str(asm)]) == 0
        capsys.readouterr()
        rc = cli_main([
            "recognize", str(asm), "--diagnose",
            "--bits", "16", "--secret", "vendor", "--inputs", "25,10",
        ])
        assert rc == 1
        assert "NOT recovered" in capsys.readouterr().err

    def test_nextract_diagnose(self, tmp_path, capsys):
        src = tmp_path / "app.wee"
        src.write_text(NATIVE_APP)
        img = tmp_path / "app.n32"
        assert cli_main(["ncompile", str(src), "-o", str(img)]) == 0
        marked = tmp_path / "marked.n32"
        rc = cli_main([
            "nembed", str(img), "-o", str(marked),
            "--watermark", "0xFACE", "--bits", "16", "--inputs", "40",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main([
            "nextract", str(marked), "--diagnose",
            "--bits", "16", "--inputs", "40",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0xface"
        assert "linked runs" in captured.err
