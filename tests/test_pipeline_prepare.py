"""Tests for the shared preparation (repro.pipeline.prepare) and how
the artifact store caches it."""

import hashlib
import io
import pickle
from collections import OrderedDict

import pytest

from repro.bytecode_wm import WatermarkKey, eligible_sites, embed, recognize
from repro.core.planner import plan_redundancy
from repro.core.primes import choose_moduli
from repro.pipeline import (
    PrepareError,
    prepare,
    prepare_fingerprint,
    release_address,
    resolve_piece_count,
)
from repro.pipeline import batch
from repro.serve.store import ArtifactRecord, ArtifactStore, StoreError
from repro.vm import assemble, build_cfg, disassemble, run_module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    collatz_module,
    gcd_module,
    jess_module,
)

from tests.v1_artifacts import v1_artifact

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])

LEAN_PROGRAMS = {
    "caffeinemark": lambda: (caffeinemark_module(), CAFFEINEMARK_INPUT),
    "jess": lambda: (jess_module(), JESS_INPUT),
}

NONTERMINATING_SRC = """
.globals 0
.entry main
.func main params=0 locals=1
top:
    iinc 0 1
    goto top
.end
"""


class TestPrepare:
    def test_snapshot_contents(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        assert p.watermark_bits == 16
        assert p.pieces == 2 * len(choose_moduli(16))
        # The artifact keeps the site table, not the trace or the CFGs.
        assert not {"trace", "cfgs", "moduli"} & set(vars(p))
        trace = run_module(module, KEY.inputs, trace_mode="full").trace
        assert p.sites == eligible_sites(trace, module)
        assert p.baseline_output == run_module(module, KEY.inputs).output
        # Every prepared stage is individually timed.
        assert set(p.timings.stages) == {
            "verify", "trace", "cfg", "placement", "plan"
        }

    def test_original_module_isolated(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        module.functions["main"].code.clear()
        # The snapshot still embeds fine after the caller mutates theirs.
        result = embed(p.module, 7, KEY, pieces=p.pieces,
                       watermark_bits=16, sites=p.sites)
        assert result.piece_count == p.pieces

    def test_rejects_bad_width(self):
        with pytest.raises(PrepareError):
            prepare(gcd_module(), KEY, 0)

    def test_rejects_untraceable_key(self):
        # collatz needs one input; an empty input sequence traps the VM.
        from repro.vm import VMError
        with pytest.raises(VMError):
            prepare(collatz_module(), WatermarkKey(b"k", []), 16)

    def test_piece_count_resolution(self):
        assert resolve_piece_count(16, pieces=9) == 9
        planned = resolve_piece_count(16, piece_loss=0.3)
        assert planned == plan_redundancy(16, 0.3, 0.99).pieces
        assert resolve_piece_count(16) == 2 * len(choose_moduli(16))

    def test_planner_is_memoized(self):
        assert plan_redundancy(64, 0.25) is plan_redundancy(64, 0.25)


class TestPickleRoundTrip:
    def test_roundtrip_preserves_embedding(self, tmp_path):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        p2 = pickle.loads(pickle.dumps(p))
        a = embed(module, 0xCAFE, KEY, pieces=p.pieces, watermark_bits=16,
                  sites=p.sites)
        b = embed(p2.module, 0xCAFE, KEY, pieces=p2.pieces,
                  watermark_bits=16, sites=p2.sites)
        assert disassemble(a.module) == disassemble(b.module)

    def test_branch_events_rebind_to_pickled_module(self):
        # No branch events travel any more: every traced site of the
        # pickled table is a block of the pickled module's own CFG.
        p = pickle.loads(pickle.dumps(prepare(gcd_module(), KEY, 16)))
        assert p.sites
        for site in p.sites:
            blocks = build_cfg(p.module.functions[site.function]).blocks
            assert site.site == "<entry>" or site.site in blocks

    def test_save_load(self, tmp_path):
        # Persisting a preparation means putting it in the store.
        store = ArtifactStore(str(tmp_path / "store"))
        p = prepare(gcd_module(), KEY, 16)
        record = store.put(p)
        loaded = ArtifactStore(store.root, create=False).load(record.digest)
        assert loaded.fingerprint() == p.fingerprint()
        assert record.digest == release_address(gcd_module(), KEY, 16)[0]

    def test_load_rejects_garbage(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        for junk in (b"not a pickle", pickle.dumps({"also": "wrong"})):
            record = store.adopt(ArtifactRecord(
                digest="a" * 64,
                sha256=hashlib.sha256(junk).hexdigest(),
                size_bytes=len(junk),
                created_unix=0.0,
                watermark_bits=16,
                pieces=8,
            ), junk)
            with pytest.raises(StoreError):
                store.load(record.digest)

    def test_matches_detects_drift(self):
        # A run reuses a stored preparation iff its release address is
        # the artifact's fingerprint; every input moves the address.
        p = prepare(gcd_module(), KEY, 16)
        assert release_address(gcd_module(), KEY, 16)[0] == p.fingerprint()
        other = WatermarkKey(secret=b"other", inputs=[25, 10])
        for drifted in (
            release_address(collatz_module(), KEY, 16),
            release_address(gcd_module(), KEY, 32),
            release_address(gcd_module(), other, 16),
            release_address(gcd_module(), KEY, 16, pieces=p.pieces + 1),
        ):
            assert drifted[0] != p.fingerprint()

    def test_planner_sized_address_follows_the_threat_model(self):
        # pieces=None delegates to the planner: a different piece-loss
        # assumption plans a different count, hence a different release.
        low, low_pieces, _ = release_address(gcd_module(), KEY, 16,
                                             piece_loss=0.1)
        high, high_pieces, _ = release_address(gcd_module(), KEY, 16,
                                               piece_loss=0.6)
        assert low_pieces != high_pieces
        assert low != high
        assert low == prepare_fingerprint(gcd_module(), KEY, 16, low_pieces)


class TestLeanArtifact:
    """An artifact holds the module and the site table, nothing of the
    trace or the CFGs, and mints exactly what an unprepared embed does."""

    def test_pickle_references_no_trace_or_cfg_class(self):
        def classes(data):
            seen = set()

            class Recorder(pickle.Unpickler):
                def find_class(self, module, name):
                    seen.add((module, name))
                    return super().find_class(module, name)

            Recorder(io.BytesIO(data)).load()
            return seen

        p = prepare(collatz_module(), WatermarkKey(b"lean", [27]), 16)
        seen = classes(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert ("repro.pipeline.prepare", "PreparedProgram") in seen
        assert not {
            ("repro.vm.tracing", name)
            for name in ("Trace", "TracePoint", "BranchEvent")
        } & seen
        assert not {module for module, _ in seen if module == "repro.vm.cfg"}
        # The recorder does see the classes a version-1 artifact held.
        old = classes(pickle.dumps(v1_artifact(p)))
        assert any(module == "repro.vm.cfg" for module, _ in old)

    @pytest.mark.parametrize("codec", ["gcrt", "rs-8", "hybrid-4"])
    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("program", [
        "caffeinemark", pytest.param("jess", marks=pytest.mark.slow),
    ])
    def test_store_loaded_copies_match_unprepared_embed(
        self, tmp_path, program, bits, codec
    ):
        module, inputs = LEAN_PROGRAMS[program]()
        key = WatermarkKey(secret=b"seed-0", inputs=list(inputs))
        store = ArtifactStore(str(tmp_path / "store"))
        digest = store.put(prepare(module, key, bits, codec=codec)).digest
        loaded = ArtifactStore(store.root, create=False).load(digest)
        assert "trace" not in vars(loaded)
        for seed, mark in enumerate((1, (1 << bits) - 1, 0x5A5A5A5A)):
            copy = batch.embed_copy(loaded, batch.CopySpec("c", mark, seed),
                                    self_check=False)
            assert copy.ok, copy.error
            single = embed(module, mark, key, pieces=loaded.pieces,
                           watermark_bits=bits, rng_salt=f"{mark}/{seed}",
                           codec=codec)
            assert copy.text == disassemble(single.module)


class TestCachedEmbedEquivalence:
    """The cache must be invisible in the output modules."""

    def test_cached_equals_single_shot(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        for watermark in (0, 0xCAFE, 0xFFFF):
            single = embed(module, watermark, KEY, pieces=p.pieces,
                           watermark_bits=16)
            cached = embed(module, watermark, KEY, pieces=p.pieces,
                           watermark_bits=16, sites=p.sites)
            assert disassemble(single.module) == disassemble(cached.module)

    def test_cached_embed_recognizes(self):
        module = collatz_module()
        key = WatermarkKey(secret=b"vendor", inputs=[27])
        p = prepare(module, key, 16)
        result = embed(module, 4242, key, pieces=p.pieces,
                       watermark_bits=16, sites=p.sites)
        found = recognize(result.module, key, watermark_bits=16)
        assert found.complete and found.value == 4242

    def test_recognize_accepts_cached_trace(self):
        module = gcd_module()
        marked = embed(module, 0xBEEF, KEY, watermark_bits=16).module
        run = run_module(marked, KEY.inputs, trace_mode="branch")
        via_cache = recognize(marked, KEY, watermark_bits=16,
                              trace=run.trace)
        fresh = recognize(marked, KEY, watermark_bits=16)
        assert via_cache.value == fresh.value == 0xBEEF

    def test_rng_salt_diversifies_but_stays_deterministic(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        kw = dict(pieces=p.pieces, watermark_bits=16, sites=p.sites)
        plain = embed(module, 7, KEY, **kw)
        salted = embed(module, 7, KEY, rng_salt="1", **kw)
        salted_again = embed(module, 7, KEY, rng_salt="1", **kw)
        assert disassemble(salted.module) == disassemble(salted_again.module)
        assert disassemble(salted.module) != disassemble(plain.module)
        # Salting never hurts recognition.
        assert recognize(salted.module, KEY, watermark_bits=16).value == 7


class TestPrepareCache:
    """Preparations are cached in the artifact store (durably) and, in
    service workers, in the per-process ``load_prepared_artifact``
    memo over it."""

    def test_hit_miss_accounting(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        a, hit = store.get_or_prepare(gcd_module(), KEY, 16)
        assert not hit
        b, hit = store.get_or_prepare(gcd_module(), KEY, 16)
        assert hit and b.fingerprint() == a.fingerprint()
        _, hit = store.get_or_prepare(collatz_module(),
                                      WatermarkKey(b"v", [27]), 16)
        assert not hit
        assert len(store) == 2

    def test_distinct_widths_distinct_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        a, _ = store.get_or_prepare(gcd_module(), KEY, 16)
        b, _ = store.get_or_prepare(gcd_module(), KEY, 64)
        assert a.fingerprint() != b.fingerprint()
        assert a.watermark_bits != b.watermark_bits
        assert sorted(r.watermark_bits for r in store.records()) == [16, 64]

    def test_eviction_bounds_memory(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path / "store"))
        digests = [
            store.put(prepare(gcd_module(), KEY, bits)).digest
            for bits in (16, 24, 32)
        ]
        monkeypatch.setattr(batch, "_ARTIFACT_CACHE", OrderedDict())
        monkeypatch.setattr(batch, "_ARTIFACT_CACHE_MAX", 2)
        first = batch.load_prepared_artifact(store.root, digests[0])
        assert batch.load_prepared_artifact(store.root, digests[0]) is first
        for digest in digests[1:]:
            batch.load_prepared_artifact(store.root, digest)
        assert len(batch._ARTIFACT_CACHE) == 2
        # The oldest release was evicted: loading it again unpickles.
        assert batch.load_prepared_artifact(store.root, digests[0]) \
            is not first

    def test_fingerprint_sensitive_to_all_inputs(self):
        base = prepare_fingerprint(gcd_module(), KEY, 16, None)
        assert base != prepare_fingerprint(gcd_module(), KEY, 32, None)
        assert base != prepare_fingerprint(gcd_module(), KEY, 16, 8)
        assert base != prepare_fingerprint(collatz_module(), KEY, 16, None)
        other = WatermarkKey(secret=b"pldi-2004", inputs=[25, 11])
        assert base != prepare_fingerprint(gcd_module(), other, 16, None)


class TestStepLimitDuringTrace:
    def test_prepare_raises_clear_error(self):
        module = assemble(NONTERMINATING_SRC)
        with pytest.raises(PrepareError) as exc:
            prepare(module, KEY, 16, max_steps=5_000)
        message = str(exc.value)
        assert "did not terminate" in message
        assert "step limit of 5000" in message

    def test_partial_trace_is_not_cached(self, tmp_path):
        # The key-input run exhausts max_steps mid-trace; the store
        # must stay empty so a later call does not serve a truncated
        # trace as if preparation had succeeded.
        store = ArtifactStore(str(tmp_path / "store"))
        module = assemble(NONTERMINATING_SRC)
        for _ in range(2):  # retried, not served from the store
            with pytest.raises(PrepareError):
                store.get_or_prepare(module, KEY, 16, max_steps=5_000)
            assert len(store) == 0
            assert store.verify() == []

    def test_generous_limit_still_succeeds(self):
        prepared = prepare(gcd_module(), KEY, 16, max_steps=1_000_000)
        assert prepared.sites
