"""Tests for the persistent artifact store (`repro.serve.store`)."""

import dataclasses
import json
import os

import pytest

from repro import obs
from repro.bytecode_wm.keys import WatermarkKey
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    FORMAT_VERSION,
    CopySpec,
    prepare,
    release_address,
    run_batch,
)
from repro.serve.store import ArtifactStore, StoreError
from repro.workloads import gcd_module

from tests.v1_artifacts import v1_artifact

KEY = WatermarkKey(secret=b"store-key", inputs=[25, 10])
BITS = 16
PIECES = 8


@pytest.fixture(autouse=True)
def _isolated_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(previous)


@pytest.fixture(scope="module")
def prepared():
    return prepare(gcd_module(), KEY, BITS, PIECES)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestRoundTrip:
    def test_put_load_is_identity_addressed(self, store, prepared):
        record = store.put(prepared, label="gcd v1")
        assert record.digest == prepared.fingerprint()
        assert record.label == "gcd v1"
        loaded = store.load(record.digest)
        assert loaded.fingerprint() == prepared.fingerprint()
        assert loaded.watermark_bits == BITS
        assert loaded.pieces == PIECES

    def test_put_is_idempotent(self, store, prepared):
        first = store.put(prepared)
        second = store.put(prepared)
        assert first.digest == second.digest
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path, prepared):
        root = str(tmp_path / "store")
        digest = ArtifactStore(root).put(prepared).digest
        reopened = ArtifactStore(root, create=False)
        assert digest in reopened
        assert reopened.load(digest).fingerprint() == digest

    def test_refresh_sees_foreign_writes(self, tmp_path, prepared):
        root = str(tmp_path / "store")
        holder = ArtifactStore(root)
        other = ArtifactStore(root)
        digest = other.put(prepared).digest
        assert digest not in holder
        holder.refresh()
        assert digest in holder

    def test_missing_store_requires_create(self, tmp_path):
        with pytest.raises(StoreError, match="no artifact store"):
            ArtifactStore(str(tmp_path / "nowhere"), create=False)


class TestIntegrity:
    def test_corrupt_blob_is_refused(self, store, prepared):
        record = store.put(prepared)
        blob = os.path.join(store.root, "blobs", f"{record.digest}.pickle")
        data = bytearray(open(blob, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(blob, "wb").write(bytes(data))
        with pytest.raises(StoreError, match="integrity"):
            store.load(record.digest)

    def test_missing_blob_is_refused(self, store, prepared):
        record = store.put(prepared)
        os.remove(os.path.join(store.root, "blobs", f"{record.digest}.pickle"))
        with pytest.raises(StoreError):
            store.load(record.digest)

    def test_verify_reports_all_problem_kinds(self, store, prepared):
        record = store.put(prepared)
        assert store.verify() == []
        blob_dir = os.path.join(store.root, "blobs")
        # 1: corrupt the real blob
        blob = os.path.join(blob_dir, f"{record.digest}.pickle")
        open(blob, "ab").write(b"garbage")
        # 2: drop an orphan blob nobody recorded
        open(os.path.join(blob_dir, "f" * 64 + ".pickle"), "wb").write(b"x")
        problems = "\n".join(store.verify())
        assert record.digest[:12] in problems
        assert "sha256" in problems
        assert "orphan" in problems

    def test_get_or_prepare_heals_corruption(self, store, prepared):
        record = store.put(prepared)
        blob = os.path.join(store.root, "blobs", f"{record.digest}.pickle")
        open(blob, "wb").write(b"not a pickle")
        healed, hit = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        assert not hit  # the corrupt artifact was evicted, not trusted
        assert healed.fingerprint() == record.digest
        assert store.verify() == []

    def test_stale_format_version_is_quarantined_and_reprepared(
        self, store, prepared
    ):
        """A blob of another FORMAT_VERSION decodes and even sits at
        the right address (the version is not part of it), but load
        refuses it and get_or_prepare heals the entry."""
        stale = dataclasses.replace(prepared, version=FORMAT_VERSION + 1)
        record = store.put(stale)
        assert record.digest == prepared.fingerprint()
        with pytest.raises(StoreError, match="format version"):
            store.load(record.digest)
        assert record.digest not in store
        assert [q.reason for q in store.quarantined()] == [
            "unsupported format version"
        ]
        healed, hit = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        assert not hit and healed.version == FORMAT_VERSION
        assert store.load(record.digest).version == FORMAT_VERSION

    def test_v1_layout_blob_is_quarantined_and_reprepared(
        self, store, prepared
    ):
        """A blob in the version-1 layout (trace blob, CFGs, moduli,
        count-only sites) is refused unread and healed by a re-prepare
        that embeds exactly as a fresh preparation does."""
        record = store.put(v1_artifact(prepared))
        assert record.digest == prepared.fingerprint()
        with pytest.raises(StoreError, match="format version 1"):
            store.load(record.digest)
        assert [q.reason for q in store.quarantined()] == [
            "unsupported format version"
        ]
        healed, hit = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        assert not hit and healed.version == FORMAT_VERSION == 2
        assert healed.sites == prepared.sites
        assert store.load(record.digest).sites == prepared.sites
        assert store.verify() == []

    def test_wrong_blob_under_digest_is_refused(self, store, prepared, tmp_path):
        """A blob hand-moved under another digest fails the self-check."""
        record = store.put(prepared)
        other = prepare(gcd_module(), KEY, BITS, pieces=6)
        other_store = ArtifactStore(str(tmp_path / "other"))
        other_record = other_store.put(other)
        src = os.path.join(
            other_store.root, "blobs", f"{other_record.digest}.pickle"
        )
        dst = os.path.join(store.root, "blobs", f"{record.digest}.pickle")
        open(dst, "wb").write(open(src, "rb").read())
        # Manifest sha must also be forged for the mislabel to get as
        # far as the fingerprint check.
        manifest = json.load(open(os.path.join(store.root, "store.json")))
        for entry in manifest["artifacts"]:
            if entry["digest"] == record.digest:
                entry["sha256"] = other_record.sha256
                entry["size_bytes"] = other_record.size_bytes
        json.dump(manifest, open(os.path.join(store.root, "store.json"), "w"))
        store.refresh()
        with pytest.raises(StoreError, match="fingerprint"):
            store.load(record.digest)


class TestEvictAndResolve:
    def test_evict_removes_record_and_blob(self, store, prepared):
        record = store.put(prepared)
        assert store.evict(record.digest)
        assert record.digest not in store
        assert not os.path.exists(
            os.path.join(store.root, "blobs", f"{record.digest}.pickle")
        )
        assert not store.evict(record.digest)  # second evict is a no-op

    def test_resolve_prefix(self, store, prepared):
        digest = store.put(prepared).digest
        assert store.resolve(digest[:10]) == digest
        with pytest.raises(StoreError, match="no artifact"):
            store.resolve("0000")


class TestGetOrPrepare:
    def test_miss_then_hit_with_metrics(self, store):
        first, hit1 = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        second, hit2 = store.get_or_prepare(gcd_module(), KEY, BITS, PIECES)
        assert (hit1, hit2) == (False, True)
        assert first.fingerprint() == second.fingerprint()
        text = obs.get_registry().to_prometheus()
        assert 'repro_store_requests_total{outcome="miss"} 1' in text
        assert 'repro_store_requests_total{outcome="hit"} 1' in text


class TestColdWarmEquivalence:
    """store -> evict -> re-prepare -> run_batch must be byte-stable."""

    def test_cold_and_warm_batches_are_byte_identical(self, tmp_path):
        root = str(tmp_path / "store")
        specs = [
            CopySpec("acme", 0x0BAD, seed=3),
            CopySpec("globex", 0x1234, seed=9),
        ]

        def mint():
            store = ArtifactStore(root)
            artifact, hit = store.get_or_prepare(
                gcd_module(), KEY, BITS, PIECES
            )
            report = run_batch(artifact, specs, workers=1)
            assert report.all_ok
            return hit, [c.text for c in report.copies]

        cold_hit, cold = mint()
        warm_hit, warm = mint()
        assert (cold_hit, warm_hit) == (False, True)
        assert cold == warm
        # Evict, rebuild from scratch, and the bytes still match.
        store = ArtifactStore(root)
        store.evict(store.records()[0].digest)
        rebuilt_hit, rebuilt = mint()
        assert not rebuilt_hit
        assert rebuilt == cold


class TestPrepareCacheSpillThrough:
    """The store is the only cache of preparations: a fresh handle,
    with nothing in memory, serves what another handle prepared."""

    def test_memory_miss_falls_back_to_store(self, tmp_path):
        # pieces=None: the planner sizes the release, and the lookup
        # must land on the concrete address the artifact was put under.
        root = str(tmp_path / "store")
        digest, pieces, _ = release_address(gcd_module(), KEY, BITS)
        warmer = ArtifactStore(root)
        _, hit = warmer.get_or_prepare(gcd_module(), KEY, BITS)
        assert not hit and digest in warmer

        fresh = ArtifactStore(root)  # empty memory, same store
        artifact, hit = fresh.get_or_prepare(gcd_module(), KEY, BITS)
        assert hit
        assert artifact.fingerprint() == digest
        assert artifact.pieces == pieces
        assert len(fresh) == 1
