"""Codec threading through the pipeline, store, service and campaign.

The codec layer is only useful if the spec survives every hop: manifest
-> prepare -> artifact store -> daemon -> client, and campaign config
-> cells -> report. These tests pin each hop, plus the two
compatibility contracts: pre-codec artifacts are refused by the store
(it re-prepares them), and pre-codec fingerprints are unchanged for
the default codec.
"""

import pickle

import pytest

from repro.bytecode_wm import WatermarkKey, recognize
from repro.campaign import CampaignCell, CampaignConfig, CampaignReport, run_campaign
from repro.codec import CodecError
from repro.pipeline import (
    CopySpec,
    ManifestError,
    embed_copy,
    parse_manifest,
    prepare,
    prepare_fingerprint,
    release_address,
)
from repro.serve import ArtifactStore, ServerConfig, ServerThread
from repro.serve.store import StoreError
from repro.serve.client import ServiceClient, ServiceError
from repro.vm import assemble
from repro.workloads import gcd_module

from tests.v1_artifacts import v1_artifact

KEY = WatermarkKey(secret=b"codec-int", inputs=[252, 105])
BITS = 16


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _doc(**extra):
    doc = {
        "module": "m.vm", "secret": "s3", "bits": 16,
        "copies": {"count": 2},
    }
    doc.update(extra)
    return doc


class TestManifestCodec:
    def test_defaults_to_gcrt(self):
        assert parse_manifest(_doc()).codec == "gcrt"

    def test_codec_is_normalized(self):
        assert parse_manifest(_doc(codec="hybrid")).codec == "hybrid-4"
        assert parse_manifest(_doc(codec="rs")).codec == "rs-8"

    def test_unknown_codec_is_a_manifest_error(self):
        with pytest.raises(ManifestError, match="unknown codec"):
            parse_manifest(_doc(codec="base64"))

    def test_non_string_codec_is_a_manifest_error(self):
        with pytest.raises(ManifestError, match="codec must be a string"):
            parse_manifest(_doc(codec=8))


# ---------------------------------------------------------------------------
# PreparedProgram: pickles and fingerprints
# ---------------------------------------------------------------------------

class TestPreparedProgramCompat:
    def test_pre_codec_pickle_state_defaults_to_gcrt(self, tmp_path):
        # A pre-codec pickle still sits at its gcrt address, but its
        # format version is stale: the store refuses it and re-prepares.
        prepared = prepare(gcd_module(), KEY, BITS, 8)
        old = v1_artifact(prepared, drop=("codec",))
        assert "codec" not in vars(old)
        store = ArtifactStore(str(tmp_path / "store"))
        digest = store.put(old).digest
        assert digest == prepared.fingerprint()
        with pytest.raises(StoreError, match="format version"):
            store.load(digest)
        healed, hit = store.get_or_prepare(gcd_module(), KEY, BITS, 8)
        assert not hit and healed.codec == "gcrt"

    def test_pickle_round_trip_keeps_codec(self):
        prepared = prepare(gcd_module(), KEY, BITS, 8, codec="rs-8")
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.codec == "rs-8"
        assert clone.fingerprint() == prepared.fingerprint()

    def test_default_codec_fingerprint_is_pre_codec_stable(self):
        # gcrt must hash exactly as before the codec field existed, so
        # stored artifacts keep their addresses.
        base = prepare_fingerprint(gcd_module(), KEY, BITS, 8)
        assert prepare_fingerprint(
            gcd_module(), KEY, BITS, 8, codec="gcrt"
        ) == base
        assert prepare_fingerprint(
            gcd_module(), KEY, BITS, 8, codec="rs-8"
        ) != base

    def test_matches_distinguishes_codecs(self):
        # A run matches a stored artifact iff its release address is
        # the artifact's fingerprint.
        prepared = prepare(gcd_module(), KEY, BITS, 8, codec="rs-8")
        digest, _, _ = release_address(gcd_module(), KEY, BITS, 8,
                                       codec="rs-8")
        assert digest == prepared.fingerprint()
        gcrt, _, _ = release_address(gcd_module(), KEY, BITS, 8)
        assert gcrt != prepared.fingerprint()


# ---------------------------------------------------------------------------
# Batch embed with a codec override
# ---------------------------------------------------------------------------

class TestBatchCodec:
    def test_embed_copy_override_and_self_check(self):
        prepared = prepare(gcd_module(), KEY, BITS, 12)
        spec = CopySpec(copy_id="c0", watermark=0x0DEC, seed=3)
        result = embed_copy(prepared, spec, codec="rs-8")
        assert result.verified
        module = assemble(result.text)
        found = recognize(module, KEY, watermark_bits=BITS, codec="rs-8")
        assert (found.complete, found.value) == (True, 0x0DEC)
        # The default-codec decode must not see the RS copy.
        assert not recognize(module, KEY, watermark_bits=BITS).complete


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------

class TestStoreCodec:
    def test_record_carries_codec_and_reloads(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        record = store.put(
            prepare(gcd_module(), KEY, BITS, 8, codec="hybrid-4"),
            label="h",
        )
        assert record.codec == "hybrid-4"
        reloaded = ArtifactStore(str(tmp_path / "store"), create=False)
        assert reloaded.records()[0].codec == "hybrid-4"
        assert store.load(record.digest).codec == "hybrid-4"

    def test_get_or_prepare_normalizes_codec_addresses(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        first, hit = store.get_or_prepare(
            gcd_module(), KEY, BITS, pieces=12, codec="hybrid"
        )
        assert not hit
        again, hit = store.get_or_prepare(
            gcd_module(), KEY, BITS, pieces=12, codec="hybrid-4"
        )
        assert hit
        assert again.fingerprint() == first.fingerprint()
        assert again.codec == "hybrid-4"

    def test_codecs_get_distinct_addresses(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        gcrt, _ = store.get_or_prepare(gcd_module(), KEY, BITS, pieces=12)
        rs, _ = store.get_or_prepare(
            gcd_module(), KEY, BITS, pieces=12, codec="rs-8"
        )
        assert gcrt.fingerprint() != rs.fingerprint()


# ---------------------------------------------------------------------------
# Daemon + client
# ---------------------------------------------------------------------------

class TestServiceCodec:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("serve") / "store")
        store = ArtifactStore(root)
        record = store.put(prepare(gcd_module(), KEY, BITS, 12), label="gcd")
        config = ServerConfig(
            store_root=root, port=0, executor="thread", workers=2
        )
        with ServerThread(config) as server:
            address = (
                f"http://{server.service.config.host}:{server.service.port}"
            )
            yield ServiceClient(address), record.digest

    def test_per_request_codec_override_round_trip(self, service):
        client, digest = service
        minted = client.embed(
            digest, "acme", 0x0BED, seed=2, codec="rs-8"
        )
        assert minted["verified"] is True
        assert minted["codec"] == "rs-8"
        found = client.recognize(digest, minted["module"], codec="rs-8")
        assert found["complete"] is True
        assert found["value"] == 0x0BED

    def test_artifact_default_reported_without_override(self, service):
        client, digest = service
        minted = client.embed(digest, "plain", 0x0FAB, seed=4)
        assert minted["codec"] == "gcrt"

    def test_mismatched_codec_is_incomplete_not_error(self, service):
        client, digest = service
        minted = client.embed(digest, "mix", 0x0CAB, seed=5, codec="rs-8")
        found = client.recognize(digest, minted["module"])
        assert found["complete"] is False

    def test_unknown_codec_is_400(self, service):
        client, digest = service
        with pytest.raises(ServiceError) as err:
            client.embed(digest, "bad", 1, codec="base64")
        assert err.value.status == 400


# ---------------------------------------------------------------------------
# Campaign codec axis
# ---------------------------------------------------------------------------

class TestCampaignCodec:
    def test_config_validates_codecs_early(self):
        with pytest.raises(CodecError):
            CampaignConfig(codecs=("base64",))
        with pytest.raises(ValueError):
            CampaignConfig(codecs=())

    def test_cells_carry_the_codec_axis(self):
        report = run_campaign(CampaignConfig(
            seed=11, workloads=1, copies=2, bits=(16,),
            attacks=("locals-renumbering",), codecs=("gcrt", "rs-8"),
        ))
        assert report.codecs == ["gcrt", "rs-8"]
        seen = {cell.codec for cell in report.cells}
        assert seen == {"gcrt", "rs-8"}
        rates = report.by_codec()
        assert set(rates) == {"gcrt", "rs-8"}
        # Serialization round-trips the axis.
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.codecs == report.codecs
        assert [c.codec for c in clone.cells] == [
            c.codec for c in report.cells
        ]
        assert "codecs=" in report.summary()

    def test_pre_codec_cell_documents_load_as_gcrt(self):
        cell = CampaignCell.from_dict({
            "workload": "w0", "bits": 16, "substrate": "bytecode",
            "attack": "noop-insertion", "intensity_index": 0,
            "intensity": 1.0, "copies": 1, "recovered": 1,
        })
        assert cell.codec == "gcrt"
        assert cell.key()[3] == "gcrt"
