"""Fault-injection tests for the hardened artifact store."""

import json
import os
import pickle
import warnings

import pytest

from repro import faults
from repro.bytecode_wm import WatermarkKey
from repro.cli import main
from repro.faults.injector import FaultPlan, FaultRule
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.pipeline import prepare
from repro.serve import ArtifactStore, StoreError
from repro.vm import run_module
from repro.workloads import gcd_module

from tests.v1_artifacts import v1_artifact

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])
BITS = 16
PIECES = 8


@pytest.fixture(scope="module")
def prepared():
    return prepare(gcd_module(), KEY, BITS, PIECES)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture(autouse=True)
def no_ambient_plan():
    yield
    faults.clear()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _corrupt_blob(store, digest):
    blob = os.path.join(store.root, "blobs", f"{digest}.pickle")
    data = bytearray(open(blob, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(blob, "wb").write(bytes(data))


class TestQuarantine:
    def test_corrupt_blob_is_quarantined_not_deleted(self, store, prepared):
        record = store.put(prepared)
        _corrupt_blob(store, record.digest)
        with pytest.raises(StoreError, match="integrity"):
            store.load(record.digest)
        # The record is gone, the evidence is not.
        assert record.digest not in store
        qblob = os.path.join(
            store.root, "quarantine", f"{record.digest}.pickle"
        )
        assert os.path.exists(qblob)
        assert store.verify() == []  # blobs/ is clean again
        records = store.quarantined()
        assert len(records) == 1
        assert records[0].digest == record.digest
        assert "sha256" in records[0].reason
        assert get_registry().counter(
            "repro_store_quarantined_total"
        ).value(reason="sha256 mismatch") == 1

    def test_get_or_prepare_heals_after_quarantine(self, store, prepared):
        record = store.put(prepared)
        _corrupt_blob(store, record.digest)
        healed, hit = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        assert not hit
        assert healed.fingerprint() == record.digest
        assert store.load(record.digest).fingerprint() == record.digest
        # The quarantined evidence from the first failure survives.
        assert len(store.quarantined()) == 1

    def test_unpicklable_blob_reason(self, store, prepared):
        record = store.put(prepared)
        blob = os.path.join(store.root, "blobs", f"{record.digest}.pickle")
        garbage = b"not a pickle at all"
        open(blob, "wb").write(garbage)
        # Forge the manifest sha so the failure lands at unpickling.
        import hashlib
        manifest_path = os.path.join(store.root, "store.json")
        doc = json.load(open(manifest_path))
        for entry in doc["artifacts"]:
            entry["sha256"] = hashlib.sha256(garbage).hexdigest()
        json.dump(doc, open(manifest_path, "w"))
        store.refresh()
        with pytest.raises(StoreError, match="unpickle"):
            store.load(record.digest)
        assert "unpickle" in store.quarantined()[0].reason

    def test_injected_corruption_on_write(self, store, prepared):
        """A byte fault on the blob-write path lands corrupt data on
        disk; the next load quarantines it."""
        plan = FaultPlan(rules=[
            FaultRule(site="store.write.blob", action="corrupt"),
        ])
        with faults.injected(plan):
            record = store.put(prepared)
        with pytest.raises(StoreError, match="integrity"):
            store.load(record.digest)
        assert len(store.quarantined()) == 1

    def test_quarantine_list_cli(self, store, prepared, capsys):
        record = store.put(prepared)
        _corrupt_blob(store, record.digest)
        with pytest.raises(StoreError):
            store.load(record.digest)
        rc = main(["artifact", "quarantine-list", "--store", store.root])
        assert rc == 0
        out = capsys.readouterr()
        assert record.digest[:16] in out.out
        assert "1 quarantined blob(s)" in out.err
        rc = main([
            "artifact", "quarantine-list", "--store", store.root, "--json"
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["digest"] == record.digest


class TestTornManifest:
    def test_truncated_manifest_rebuilds_from_blobs(self, tmp_path, prepared):
        root = str(tmp_path / "store")
        digest = ArtifactStore(root).put(prepared).digest
        manifest = os.path.join(root, "store.json")
        text = open(manifest).read()
        open(manifest, "w").write(text[: len(text) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = ArtifactStore(root, create=False)
        assert any("rebuilding" in str(w.message) for w in caught)
        assert digest in reopened
        assert reopened.load(digest).fingerprint() == digest
        assert os.path.exists(manifest + ".corrupt")
        assert get_registry().counter(
            "repro_store_manifest_rebuilds_total"
        ).value() == 1

    def test_rebuild_skips_blobs_that_do_not_verify(self, tmp_path, prepared):
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        digest = store.put(prepared).digest
        # An orphan that is not even a pickle must not re-enter.
        orphan = os.path.join(root, "blobs", "e" * 64 + ".pickle")
        open(orphan, "wb").write(b"junk")
        manifest = os.path.join(root, "store.json")
        open(manifest, "w").write("{\"version\": 1, \"artifacts\": [")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reopened = ArtifactStore(root, create=False)
        assert len(reopened) == 1 and digest in reopened

    def test_injected_truncation_on_manifest_write(self, tmp_path, prepared):
        """End to end: a torn manifest *write* (injected truncate)
        followed by a fresh open triggers the rebuild."""
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        plan = FaultPlan(rules=[
            FaultRule(site="store.write.manifest", action="truncate"),
        ])
        with faults.injected(plan):
            digest = store.put(prepared).digest
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = ArtifactStore(root, create=False)
        assert any("rebuilding" in str(w.message) for w in caught)
        assert digest in reopened


class TestWriteFaults:
    def test_disk_full_on_blob_write_propagates_oserror(
        self, store, prepared
    ):
        plan = FaultPlan(rules=[
            FaultRule(site="store.write.blob", action="disk_full"),
        ])
        with faults.injected(plan), pytest.raises(OSError):
            store.put(prepared)
        assert len(store) == 0

    def test_get_or_prepare_on_a_full_disk_stores_nothing(self, store):
        """The write failure surfaces; the next call re-prepares and
        lands the artifact once the disk has room again."""
        plan = FaultPlan(rules=[
            FaultRule(site="store.write.blob", action="disk_full"),
        ])
        with faults.injected(plan), pytest.raises(OSError):
            store.get_or_prepare(gcd_module(), KEY, BITS)
        assert len(store) == 0
        artifact, hit = store.get_or_prepare(gcd_module(), KEY, BITS)
        assert not hit and artifact.fingerprint() in store

    def test_lockfile_exists_after_manifest_write(self, store, prepared):
        store.put(prepared)
        assert os.path.exists(os.path.join(store.root, "store.lock"))

    def test_concurrent_writers_both_land(self, tmp_path, prepared):
        """Two handles interleaving put/evict keep a parseable
        manifest (the lock serializes rename races)."""
        root = str(tmp_path / "store")
        a = ArtifactStore(root)
        b = ArtifactStore(root)
        other = prepare(gcd_module(), KEY, BITS, pieces=6)
        da = a.put(prepared).digest
        db = b.put(other).digest
        fresh = ArtifactStore(root, create=False)
        assert db in fresh
        # a's handle predates b's write; its view refreshes cleanly.
        a.refresh()
        assert da in a or da not in a  # no exception is the contract
        assert json.load(open(os.path.join(root, "store.json")))


class TestPreparedProgramBackcompat:
    """Artifacts carry no trace. A version-1 artifact carried it as a
    binary blob; the store refuses every version-1 blob on its format
    version, whatever its trace field holds, and never decodes it."""

    @staticmethod
    def _refused(store, old):
        digest = store.put(old).digest
        with pytest.raises(StoreError, match="format version"):
            store.load(digest)
        assert [q.reason for q in store.quarantined()] == [
            "unsupported format version"
        ]

    def test_pickle_stores_binary_blob(self, prepared):
        # The binary blob left the artifact together with the trace.
        data = pickle.dumps(prepared)
        assert b"WVMT" in pickle.dumps(v1_artifact(prepared))
        assert b"WVMT" not in data
        assert "trace" not in vars(pickle.loads(data))

    def test_pickle_round_trip_rebinds_trace(self, prepared):
        # What replaced the trace, the site table, round-trips intact
        # and names functions of the artifact's own module.
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.sites == prepared.sites
        assert all(site.function in clone.module.functions
                   for site in clone.sites)

    def test_object_graph_trace_state_is_refused(self, store, prepared):
        trace = run_module(prepared.module, KEY.inputs,
                           trace_mode="full").trace
        self._refused(store, v1_artifact(prepared, trace=trace))

    def test_corrupt_blob_raises_prepare_error(self, store, prepared):
        old = v1_artifact(prepared)
        old.trace = old.trace[:-3]
        self._refused(store, old)

    def test_unrecognisable_trace_field_raises_prepare_error(
        self, store, prepared
    ):
        self._refused(store, v1_artifact(prepared, trace=12345))
