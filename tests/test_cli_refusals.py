"""The command layer's exit codes and telemetry teardown.

Exit 0 is "ok", exit 1 "no watermark recovered"; a refusal by the
library (bad input, an unusable store, a program that traps) is one
stderr line and exit 2, never a traceback and never 1. A command that
arms telemetry (``--journal``, ``--obs-out``) disarms it on every exit
path: no hub left installed, no journal file left open, tracing off.
"""

import json

import pytest

from repro import obs
from repro.campaign.generator import GeneratorError
from repro.cli import main
from repro.serve import ArtifactStore
from repro.vm import disassemble
from repro.workloads.simple import gcd_module


def refused(capsys, argv):
    """Run the CLI; assert exit 2 with one stderr line, return it."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err


def assert_telemetry_off():
    assert obs.get_hub() is None
    assert not obs.get_tracer().enabled


@pytest.fixture()
def app(tmp_path):
    path = tmp_path / "app.wasm"
    path.write_text(disassemble(gcd_module()))
    return path


def write_manifest(tmp_path, **fields):
    doc = {"module": "app.wasm", "secret": "vendor", "inputs": [25, 10],
           "bits": 16, "copies": {"count": 2}}
    doc.update(fields)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command", ["run", "recognize"])
    def test_garbled_module(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.wasm"
        bad.write_text("this is not a module\n")
        argv = [command, str(bad)]
        if command == "recognize":
            argv += ["--bits", "16", "--secret", "vendor"]
        assert "line 1" in refused(capsys, argv)

    def test_recognize_missing_module(self, tmp_path, capsys):
        refused(capsys, ["recognize", str(tmp_path / "missing.wasm"),
                         "--bits", "16", "--secret", "vendor"])

    @pytest.mark.parametrize("flags", [
        ["recognize", "--bits", "16", "--secret", "s", "--inputs", "2x,10"],
        ["embed", "--bits", "16", "--secret", "s", "--watermark", "zz"],
    ])
    def test_malformed_integer_flag_is_a_usage_error(self, app, capsys,
                                                     flags):
        with pytest.raises(SystemExit) as info:
            main(flags[:1] + [str(app)] + flags[1:])
        assert info.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_nextract_garbled_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.img"
        bad.write_text("not json")
        assert "not an image file" in refused(
            capsys, ["nextract", str(bad)]
        )

    def test_nextract_missing_image(self, tmp_path, capsys):
        refused(capsys, ["nextract", str(tmp_path / "missing.img")])

    def test_batch_embed_manifest_without_secret(self, tmp_path, app,
                                                 capsys):
        job = write_manifest(tmp_path, secret=None)
        assert "secret" in refused(
            capsys, ["batch-embed", job, "-o", str(tmp_path / "dist")]
        )

    def test_prepare_cannot_shard_a_single_store(self, tmp_path, app,
                                                 capsys):
        store = tmp_path / "store"
        ArtifactStore(str(store))
        job = write_manifest(tmp_path)
        err = refused(capsys, ["artifact", "prepare", job,
                               "--store", str(store), "--shards", "2"])
        assert "single store" in err


class TestTelemetryIsDisarmedOnEveryExit:
    def test_batch_embed_journal_on_a_trapping_program(self, tmp_path, app,
                                                       capsys):
        # gcd reads two inputs; one input traps the preparation run.
        job = write_manifest(tmp_path, inputs=[27])
        journal = tmp_path / "journal"
        err = refused(capsys, [
            "batch-embed", job, "-o", str(tmp_path / "dist"),
            "--journal", str(journal),
        ])
        assert err.startswith("program trapped: ")
        assert_telemetry_off()
        records = [json.loads(line) for line in
                   (journal / "journal.jsonl").read_text().splitlines()]
        assert records[-1]["rec"] == "metrics"

    def test_campaign_generator_failure(self, tmp_path, monkeypatch,
                                        capsys):
        def failing(config, progress=None):
            raise GeneratorError("w0: differential oracle rejected it")

        monkeypatch.setattr("repro.cli.run_campaign", failing)
        obs_out = tmp_path / "obs.jsonl"
        err = refused(capsys, [
            "campaign", "-o", str(tmp_path / "out"),
            "--obs-out", str(obs_out),
        ])
        assert err.startswith("workload generation failed the oracle: ")
        assert_telemetry_off()
        assert obs_out.exists()

    def test_serve_with_a_missing_slo_spec(self, tmp_path, capsys):
        ArtifactStore(str(tmp_path / "store"))
        err = refused(capsys, ["serve", "--store", str(tmp_path / "store"),
                               "--slo", str(tmp_path / "missing.json")])
        assert "missing.json" in err
        assert_telemetry_off()

    def test_batch_embed_journal_on_success(self, tmp_path, app, capsys):
        job = write_manifest(tmp_path)
        assert main(["batch-embed", job, "-o", str(tmp_path / "dist"),
                     "--journal", str(tmp_path / "journal")]) == 0
        assert_telemetry_off()
