"""Tests for the parallel batch executor and the batch-embed CLI."""

import json
import os

import pytest

from repro.bytecode_wm import WatermarkKey, recognize
from repro.cli import main
from repro.core.planner import plan_redundancy
from repro.pipeline import (
    BatchReport,
    CopySpec,
    ManifestError,
    default_chunksize,
    embed_copy,
    load_manifest,
    parse_manifest,
    prepare,
    run_batch,
    sequential_specs,
)
from repro.vm import assemble, disassemble
from repro.workloads import collatz_module, gcd_module

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])
BITS = 16


@pytest.fixture(scope="module")
def prepared():
    return prepare(gcd_module(), KEY, BITS)


class TestCopySpec:
    def test_rejects_unsafe_ids(self):
        with pytest.raises(ValueError):
            CopySpec("../escape", 1)
        with pytest.raises(ValueError):
            CopySpec("", 1)
        with pytest.raises(ValueError):
            CopySpec("a b", 1)

    def test_rejects_negative_watermark(self):
        with pytest.raises(ValueError):
            CopySpec("x", -1)

    def test_sequential_specs(self):
        specs = sequential_specs(3, start_watermark=10, id_prefix="cust")
        assert [s.watermark for s in specs] == [10, 11, 12]
        assert [s.copy_id for s in specs] == [
            "cust-0010", "cust-0011", "cust-0012"
        ]
        assert len({s.seed for s in specs}) == 3

    def test_default_chunksize(self):
        assert default_chunksize(16, 4) == 1
        assert default_chunksize(100, 4) == 6
        assert default_chunksize(1, 8) == 1


class TestBatchFingerprinting:
    def test_each_copy_recognizes_only_its_own_mark(self, prepared):
        specs = sequential_specs(8, start_watermark=201)
        report = run_batch(prepared, specs, workers=1)
        assert report.all_ok
        watermarks = {s.watermark for s in specs}
        for spec, copy in zip(specs, report.copies):
            assert copy.verified and copy.recognized == spec.watermark
            # Re-recognize from the emitted text: the mark is the
            # copy's own, not any sibling's.
            module = assemble(copy.text)
            found = recognize(module, KEY, watermark_bits=BITS)
            assert found.complete
            assert found.value == spec.watermark
            assert found.value in watermarks
            siblings = watermarks - {spec.watermark}
            assert found.value not in siblings

    def test_copies_are_pairwise_distinct(self, prepared):
        report = run_batch(
            prepared, sequential_specs(8, start_watermark=50), workers=1
        )
        texts = [c.text for c in report.copies]
        assert len(set(texts)) == len(texts)

    def test_byte_identical_across_worker_counts(self, prepared):
        specs = sequential_specs(8, start_watermark=300)
        serial = run_batch(prepared, specs, workers=1)
        parallel = run_batch(prepared, specs, workers=4)
        assert serial.all_ok and parallel.all_ok
        assert [c.text for c in serial.copies] == \
            [c.text for c in parallel.copies]

    def test_results_keep_request_order(self, prepared):
        specs = sequential_specs(6, start_watermark=1)
        report = run_batch(prepared, specs, workers=3)
        assert [c.copy_id for c in report.copies] == \
            [s.copy_id for s in specs]

    def test_identical_seed_and_watermark_identical_bytes(self, prepared):
        a = embed_copy(prepared, CopySpec("a", 77, seed=5))
        b = embed_copy(prepared, CopySpec("b", 77, seed=5))
        c = embed_copy(prepared, CopySpec("c", 77, seed=6))
        assert a.text == b.text
        assert a.text != c.text

    def test_self_check_can_be_skipped(self, prepared):
        specs = sequential_specs(3, start_watermark=60)
        unchecked = run_batch(prepared, specs, workers=1, self_check=False)
        assert unchecked.all_ok
        for copy in unchecked.copies:
            assert copy.ok and not copy.checked
            assert copy.recognized is None
        # Skipping the check changes nothing about the modules.
        checked = run_batch(prepared, specs, workers=1)
        assert [c.text for c in checked.copies] == \
            [c.text for c in unchecked.copies]

    def test_failed_copy_does_not_kill_batch(self, prepared):
        specs = [
            CopySpec("good-1", 11),
            CopySpec("too-wide", 1 << BITS),  # embed must reject this
            CopySpec("good-2", 13),
        ]
        report = run_batch(prepared, specs, workers=1)
        assert not report.all_ok
        assert report.succeeded == 2 and report.failed == 1
        bad = report.copies[1]
        assert not bad.ok and "EmbeddingError" in bad.error
        assert report.copies[0].verified and report.copies[2].verified

    def test_duplicate_ids_rejected(self, prepared):
        specs = [CopySpec("same", 1), CopySpec("same", 2)]
        with pytest.raises(ValueError):
            run_batch(prepared, specs)

    def test_outdir_and_report(self, prepared, tmp_path):
        outdir = str(tmp_path / "dist")
        specs = sequential_specs(3, start_watermark=900)
        report = run_batch(prepared, specs, workers=1, outdir=outdir)
        for spec in specs:
            path = os.path.join(outdir, f"{spec.copy_id}.wasm")
            assert os.path.exists(path)
            module = assemble(open(path).read())
            assert recognize(module, KEY,
                             watermark_bits=BITS).value == spec.watermark
        report.write(str(tmp_path / "report.json"))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["all_ok"] and doc["copy_count"] == 3
        assert "text" not in doc["copies"][0]
        assert doc["prepare_stages"]["trace"] >= 0.0
        assert doc["batch_stages"]["embed"] > 0.0

    def test_report_metrics(self, prepared):
        report = run_batch(prepared, sequential_specs(4), workers=1,
                           cache_hits=1, cache_misses=0)
        assert report.copies_per_second > 0
        assert report.total_bytes_emitted == sum(
            c.bytes_emitted for c in report.copies
        )
        assert report.cache_hits == 1 and report.cache_misses == 0
        assert "4 copies" in report.summary()


class TestManifest:
    def _doc(self, **overrides):
        doc = {
            "module": "app.wasm",
            "secret": "vendor",
            "inputs": [25, 10],
            "bits": 16,
            "copies": [
                {"id": "acme", "watermark": "0x10"},
                {"id": "globex", "watermark": 17, "seed": 9},
            ],
        }
        doc.update(overrides)
        return doc

    def test_parse_explicit_copies(self):
        m = parse_manifest(self._doc(), base_dir="/srv/jobs")
        assert m.module_path == "/srv/jobs/app.wasm"
        assert m.secret == b"vendor" and m.inputs == (25, 10)
        assert [(c.copy_id, c.watermark, c.seed) for c in m.copies] == [
            ("acme", 0x10, 0), ("globex", 17, 9),
        ]
        assert m.key().secret == b"vendor"

    def test_parse_generated_copies(self):
        m = parse_manifest(self._doc(
            copies={"count": 4, "start_watermark": 7, "id_prefix": "c"}
        ))
        assert [c.watermark for c in m.copies] == [7, 8, 9, 10]
        assert m.copies[0].copy_id == "c-0007"

    @pytest.mark.parametrize("mutation", [
        {"module": ""},
        {"secret": ""},
        {"bits": 0},
        {"bits": "16"},
        {"inputs": ["x"]},
        {"pieces": 0},
        {"piece_loss": 1.5},
        {"target_success": 0},
        {"copies": []},
        {"copies": [{"id": "a"}]},
        {"copies": [{"id": "dup", "watermark": 1},
                    {"id": "dup", "watermark": 2}]},
        {"copies": [{"id": "wide", "watermark": 1 << 16}]},
        {"copies": [{"id": "bad id", "watermark": 1}]},
        {"copies": {"count": 0}},
    ])
    def test_rejects_malformed(self, mutation):
        with pytest.raises(ManifestError):
            parse_manifest(self._doc(**mutation))

    def test_missing_field(self):
        doc = self._doc()
        del doc["bits"]
        with pytest.raises(ManifestError):
            parse_manifest(doc)

    def test_load_manifest_resolves_relative_module(self, tmp_path):
        (tmp_path / "m.wasm").write_text(disassemble(gcd_module()))
        (tmp_path / "job.json").write_text(json.dumps(self._doc(
            module="m.wasm"
        )))
        m = load_manifest(str(tmp_path / "job.json"))
        assert m.module_path == str(tmp_path / "m.wasm")


class TestCli:
    def _write_job(self, tmp_path, copies, module=None):
        (tmp_path / "app.wasm").write_text(
            disassemble(module or collatz_module())
        )
        (tmp_path / "job.json").write_text(json.dumps({
            "module": "app.wasm",
            "secret": "vendor",
            "inputs": [27],
            "bits": 16,
            "pieces": 8,
            "copies": copies,
        }))
        return str(tmp_path / "job.json")

    def test_batch_embed_end_to_end(self, tmp_path):
        job = self._write_job(
            tmp_path, {"count": 6, "start_watermark": 1001}
        )
        outdir = str(tmp_path / "dist")
        rc = main(["batch-embed", job, "-o", outdir, "--workers", "2"])
        assert rc == 0
        report = json.loads(
            open(os.path.join(outdir, "report.json")).read()
        )
        assert report["all_ok"] and report["copy_count"] == 6
        key = WatermarkKey(secret=b"vendor", inputs=[27])
        module = assemble(open(os.path.join(outdir,
                                            "copy-1001.wasm")).read())
        assert recognize(module, key, watermark_bits=16).value == 1001

    def test_batch_embed_store_roundtrip(self, tmp_path):
        job = self._write_job(tmp_path, {"count": 2})
        store = str(tmp_path / "store")

        def run(outdir):
            rc = main(["batch-embed", job, "-o", str(tmp_path / outdir),
                       "--store", store])
            assert rc == 0
            return json.loads((tmp_path / outdir / "report.json").read_text())

        assert run("d1")["cache"] == {"hits": 0, "misses": 1}
        assert run("d2")["cache"] == {"hits": 1, "misses": 0}
        a = (tmp_path / "d1" / "copy-0001.wasm").read_text()
        b = (tmp_path / "d2" / "copy-0001.wasm").read_text()
        assert a == b

        # A planner-sized release hits across runs, and a changed
        # threat model is a new release with its own piece count.
        doc = json.loads((tmp_path / "job.json").read_text())
        del doc["pieces"]
        for loss, cache in ((0.1, {"hits": 0, "misses": 1}),
                            (0.1, {"hits": 1, "misses": 0}),
                            (0.6, {"hits": 0, "misses": 1})):
            doc["piece_loss"] = loss
            (tmp_path / "job.json").write_text(json.dumps(doc))
            report = run(f"loss-{loss}")
            assert report["cache"] == cache
            planned = plan_redundancy(16, loss).pieces
            assert {c["piece_count"] for c in report["copies"]} == {planned}
        assert plan_redundancy(16, 0.1).pieces != plan_redundancy(16, 0.6).pieces

    def test_batch_embed_reports_failure_exit_code(self, tmp_path):
        # One piece cannot cover the ~11 moduli of a 256-bit mark, so
        # every copy fails at the split stage — isolated per copy, and
        # surfaced as a non-zero exit with per-copy errors on record.
        (tmp_path / "app.wasm").write_text(disassemble(collatz_module()))
        (tmp_path / "job.json").write_text(json.dumps({
            "module": "app.wasm",
            "secret": "vendor",
            "inputs": [27],
            "bits": 256,
            "pieces": 1,
            "copies": {"count": 2},
        }))
        outdir = str(tmp_path / "dist")
        rc = main(["batch-embed", str(tmp_path / "job.json"),
                   "-o", outdir])
        assert rc == 1
        report = json.loads(
            open(os.path.join(outdir, "report.json")).read()
        )
        assert not report["all_ok"]
        assert all(c["error"] for c in report["copies"])

    def test_batch_embed_trap_during_prepare(self, tmp_path):
        # gcd needs two inputs; one input traps the tracing run, which
        # the CLI reports as exit code 2 (like `recognize`).
        (tmp_path / "app.wasm").write_text(disassemble(gcd_module()))
        (tmp_path / "job.json").write_text(json.dumps({
            "module": "app.wasm",
            "secret": "vendor",
            "inputs": [27],
            "bits": 16,
            "copies": {"count": 2},
        }))
        rc = main(["batch-embed", str(tmp_path / "job.json"),
                   "-o", str(tmp_path / "dist")])
        assert rc == 2


@pytest.mark.slow
class TestCliAtScale:
    def test_sixteen_copies_four_workers(self, tmp_path):
        (tmp_path / "app.wasm").write_text(disassemble(collatz_module()))
        (tmp_path / "job.json").write_text(json.dumps({
            "module": "app.wasm",
            "secret": "vendor-master-key",
            "inputs": [27],
            "bits": 16,
            "pieces": 10,
            "copies": {"count": 16, "start_watermark": 1},
        }))
        outdir = str(tmp_path / "dist")
        rc = main(["batch-embed", str(tmp_path / "job.json"),
                   "-o", outdir, "--workers", "4"])
        assert rc == 0
        report = json.loads(
            open(os.path.join(outdir, "report.json")).read()
        )
        assert report["copy_count"] == 16 and report["all_ok"]
        assert all(c["self_check"] and c["output_ok"]
                   for c in report["copies"])
