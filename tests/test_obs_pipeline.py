"""Integration tests: observability threaded through the embedding
pipeline, the batch executor and the CLI."""

import json
import os
import pickle

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    BatchReport,
    CopySpec,
    StageTimings,
    prepare,
    run_batch,
    sequential_specs,
)
from repro.vm import disassemble
from repro.workloads import collatz_module, gcd_module

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


class TestStageTimings:
    def test_reentrant_measure_regression(self):
        """StageTimings.measure used to accumulate on every exit of a
        re-entered stage, double-counting the inner interval."""
        timings = StageTimings()
        with timings.measure("embed"):
            with timings.measure("embed"):
                with timings.measure("embed"):
                    pass
        wall = StageTimings()
        with wall.measure("w"):
            with timings.measure("embed2"):
                with timings.measure("embed2"):
                    pass
        assert timings.stages["embed2"] <= wall.stages["w"]

    def test_feeds_ambient_stage_histogram(self):
        timings = StageTimings()
        with timings.measure("trace"):
            pass
        h = obs.get_registry().histogram("repro_stage_seconds")
        assert h.count(stage="trace") == 1

    def test_pickle_round_trip_keeps_stage_totals(self):
        timings = StageTimings()
        timings.record("trace", 0.5)
        clone = pickle.loads(pickle.dumps(timings))
        assert clone.stages == {"trace": 0.5}
        # A restored object measures and feeds the (current) ambient
        # registry again.
        with clone.measure("embed"):
            pass
        assert "embed" in clone.stages


class TestPreparePickleCompat:
    def test_prepared_program_pickles(self, prepared):
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.watermark_bits == prepared.watermark_bits
        assert clone.dispatch_counts == prepared.dispatch_counts

    def test_old_state_without_dispatch_counts(self, prepared):
        state = prepared.__dict__.copy()
        state.pop("dispatch_counts")
        clone = object.__new__(type(prepared))
        clone.__setstate__(state)
        assert clone.dispatch_counts is None


class TestBatchObservability:
    def test_report_json_round_trip(self, prepared, tmp_path):
        report = run_batch(
            prepared, sequential_specs(3, start_watermark=70),
            workers=1, profile=True,
        )
        path = str(tmp_path / "report.json")
        report.write(path)
        rebuilt = BatchReport.read(path)
        assert rebuilt.to_dict() == report.to_dict()
        assert [c.copy_id for c in rebuilt.copies] == \
            [c.copy_id for c in report.copies]
        assert rebuilt.copies[0].traceback is None
        assert rebuilt.dispatch_profile is not None
        assert rebuilt.dispatch_profile.to_dict() == \
            report.dispatch_profile.to_dict()

    def test_no_profile_no_dispatch_key(self, prepared):
        report = run_batch(
            prepared, sequential_specs(2, start_watermark=40), workers=1
        )
        assert report.dispatch_profile is None
        assert "dispatch_profile" not in report.to_dict()

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
        assert "dispatch_counts" not in doc["copies"][0]

    def test_untraced_batch_produces_no_spans(self, prepared):
        report = run_batch(
            prepared, sequential_specs(2, start_watermark=95), workers=1
        )
        assert report.all_ok
        assert obs.get_tracer().drain() == []

    def test_profile_merges_prepare_and_self_checks(self):
        module = gcd_module()
        prep = prepare(module, KEY, BITS, profile=True)
        assert prep.dispatch_counts is not None
        report = run_batch(
            prep, sequential_specs(3, start_watermark=20),
            workers=1, profile=True,
        )
        profile = report.dispatch_profile
        # One prepare trace plus three self-check runs.
        assert profile.runs == 4
        assert profile.total_steps > 0

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

    def test_batch_embed_obs_out_and_profile(self, tmp_path, capsys):
        job = self._write_job(tmp_path)
        outdir = str(tmp_path / "dist")
        obs_path = str(tmp_path / "obs.jsonl")
        rc = cli_main([
            "batch-embed", job, "-o", outdir, "--workers", "2",
            "--obs-out", obs_path, "--profile",
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
        # Dispatch profile artifact agrees with the report.
        profile = json.loads(
            open(os.path.join(outdir, "profile.json")).read()
        )
        report = json.loads(
            open(os.path.join(outdir, "report.json")).read()
        )
        assert profile == report["dispatch_profile"]
        assert profile["total_steps"] > 0
        assert "dispatch profile:" in capsys.readouterr().err

    def test_batch_embed_without_flags_emits_nothing(self, tmp_path):
        job = self._write_job(tmp_path, count=2)
        outdir = str(tmp_path / "dist")
        rc = cli_main(["batch-embed", job, "-o", outdir])
        assert rc == 0
        assert not os.path.exists(str(tmp_path / "obs.jsonl"))
        assert not os.path.exists(os.path.join(outdir, "profile.json"))
        report = json.loads(
            open(os.path.join(outdir, "report.json")).read()
        )
        assert "dispatch_profile" not in report

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
