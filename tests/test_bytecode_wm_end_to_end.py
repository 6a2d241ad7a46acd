"""End-to-end tests for the Section 3 pipeline: embed -> run -> recognize."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode_wm import (
    SitePicker,
    WatermarkKey,
    eligible_sites,
    embed,
    recognize,
)
from repro.core.errors import EmbeddingError, KeyError_
from repro.vm import run_module, verify_module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    caffeinemark_module,
    collatz_module,
    gcd_module,
)

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])


class TestWatermarkKey:
    def test_rejects_non_bytes_secret(self):
        with pytest.raises(KeyError_):
            WatermarkKey(secret="str", inputs=[1])  # type: ignore[arg-type]

    def test_rejects_non_int_inputs(self):
        with pytest.raises(KeyError_):
            WatermarkKey(secret=b"x", inputs=["a"])  # type: ignore[list-item]

    def test_rng_streams_are_scoped_and_deterministic(self):
        k = WatermarkKey(secret=b"x", inputs=[])
        assert k.rng("a").random() == k.rng("a").random()
        assert k.rng("a").random() != k.rng("b").random()

    def test_cipher_derived_from_secret(self):
        a = WatermarkKey(secret=b"one", inputs=[]).cipher()
        b = WatermarkKey(secret=b"two", inputs=[]).cipher()
        assert a.encrypt_block(7) != b.encrypt_block(7)


class TestEmbed:
    def test_semantics_preserved(self):
        module = gcd_module()
        base = run_module(module, KEY.inputs)
        result = embed(module, 0xCAFE, KEY, watermark_bits=16)
        marked = run_module(result.module, KEY.inputs)
        assert marked.output == base.output

    def test_original_module_untouched(self):
        module = gcd_module()
        before = module.byte_size()
        embed(module, 0xCAFE, KEY, watermark_bits=16)
        assert module.byte_size() == before

    def test_marked_module_verifies(self):
        result = embed(gcd_module(), 0xCAFE, KEY, watermark_bits=16)
        verify_module(result.module)

    def test_size_grows_linearly_with_pieces(self):
        module = collatz_module()
        key = WatermarkKey(secret=b"s", inputs=[27])
        sizes = []
        for pieces in (4, 8, 16):
            r = embed(module, 99, key, pieces=pieces, watermark_bits=16)
            sizes.append(r.byte_size_increase)
        per_piece_1 = (sizes[1] - sizes[0]) / 4
        per_piece_2 = (sizes[2] - sizes[1]) / 8
        assert per_piece_1 > 0
        # Roughly linear: the two marginal costs agree within 50%.
        assert 0.5 < per_piece_1 / per_piece_2 < 2.0

    def test_deterministic(self):
        a = embed(gcd_module(), 7, KEY, watermark_bits=16)
        b = embed(gcd_module(), 7, KEY, watermark_bits=16)
        assert [(p.site, p.generator) for p in a.placements] == \
            [(p.site, p.generator) for p in b.placements]
        assert a.module.byte_size() == b.module.byte_size()

    def test_rejects_negative_watermark(self):
        with pytest.raises(EmbeddingError):
            embed(gcd_module(), -1, KEY)

    def test_rejects_oversized_watermark(self):
        with pytest.raises(EmbeddingError):
            embed(gcd_module(), 1 << 20, KEY, watermark_bits=16)

    def test_rejects_too_few_pieces(self):
        with pytest.raises(EmbeddingError):
            embed(gcd_module(), 3, KEY, watermark_bits=256, pieces=1)

    def test_placements_record_both_generators(self):
        # Under uniform placement most CaffeineMark sites execute many
        # times, so condition codegen should fire for some pieces.
        # (Inverse weighting concentrates pieces on once-executed cold
        # sites, where only the loop generator applies.)
        key = WatermarkKey(secret=b"cm", inputs=CAFFEINEMARK_INPUT)
        result = embed(caffeinemark_module(), 0xAB, key,
                       watermark_bits=16, pieces=12,
                       placement_policy="uniform")
        kinds = {p.generator for p in result.placements}
        assert "condition" in kinds

    def test_loop_only_when_condition_disabled(self):
        key = WatermarkKey(secret=b"cm", inputs=CAFFEINEMARK_INPUT)
        result = embed(caffeinemark_module(), 0xAB, key, watermark_bits=16,
                       pieces=6, prefer_condition=False)
        assert {p.generator for p in result.placements} == {"loop"}


class TestRecognize:
    @pytest.mark.parametrize("watermark,bits", [
        (0, 8), (255, 8), (0xCAFE, 16), (123456789, 32), (2**63 - 1, 64),
    ])
    def test_roundtrip(self, watermark, bits):
        result = embed(gcd_module(), watermark, KEY, watermark_bits=bits)
        found = recognize(result.module, KEY, watermark_bits=bits)
        assert found.complete
        assert found.value == watermark

    def test_unwatermarked_program_yields_nothing(self):
        found = recognize(gcd_module(), KEY, watermark_bits=16)
        assert not found.complete
        assert found.value is None

    def test_wrong_cipher_secret_fails(self):
        result = embed(gcd_module(), 0xCAFE, KEY, watermark_bits=16)
        wrong = WatermarkKey(secret=b"wrong", inputs=KEY.inputs)
        found = recognize(result.module, wrong, watermark_bits=16)
        assert found.value != 0xCAFE

    def test_wrong_input_sequence_loses_gated_pieces(self):
        # Pieces land where the *key input's* trace says code is cold.
        # This program has a hot always-executed region (so its sites
        # are unattractive) and a key-gated region full of cold sites;
        # with the wrong input the gated region never runs, its pieces
        # never reach the trace, and coverage collapses.
        from repro.lang import compile_source
        gated_src = """
        fn main() {
            var k = input();
            var burn = 0;
            for (var i = 0; i < 400; i = i + 1) { burn = burn + i; }
            if (k == 3) {
                var acc = 0;
                if (burn >= 0) { acc = acc + 1; }
                if (burn >= 1) { acc = acc + 2; }
                if (burn >= 2) { acc = acc + 3; }
                if (burn >= 3) { acc = acc + 4; }
                if (burn >= 4) { acc = acc + 5; }
                if (burn >= 5) { acc = acc + 6; }
                if (burn >= 6) { acc = acc + 7; }
                if (burn >= 7) { acc = acc + 8; }
                print(acc);
            }
            return 0;
        }
        """
        module = compile_source(gated_src)
        key = WatermarkKey(secret=b"s", inputs=[3])
        # 256-bit fingerprints use ~11 moduli: coverage needs pieces
        # from many distinct sites, which the wrong input cannot replay
        # (only `<entry>` and the outer join survive it).
        result = embed(module, 0xBEEF, key, watermark_bits=256, pieces=24)
        gated = sum(1 for p in result.placements if p.site.site != "<entry>")
        assert gated > 0, "expected some pieces on gated sites"
        assert recognize(result.module, key, watermark_bits=256).value == 0xBEEF
        wrong = WatermarkKey(secret=b"s", inputs=[1])
        found = recognize(result.module, wrong, watermark_bits=256)
        assert not found.complete
        assert found.value != 0xBEEF

    def test_fingerprinting_distinct_copies(self):
        """Every distributed copy encodes a unique integer (Section 2)."""
        module = collatz_module()
        key = WatermarkKey(secret=b"vendor", inputs=[27])
        for customer_id in (1, 500, 65535):
            marked = embed(module, customer_id, key, watermark_bits=16)
            found = recognize(marked.module, key, watermark_bits=16)
            assert found.value == customer_id

    def test_voting_toggle(self):
        result = embed(gcd_module(), 0xCAFE, KEY, watermark_bits=16)
        found = recognize(result.module, KEY, watermark_bits=16,
                          use_voting=False)
        assert found.value == 0xCAFE


class TestPlacement:
    def _trace_sites(self):
        module = caffeinemark_module()
        key = WatermarkKey(secret=b"cm", inputs=CAFFEINEMARK_INPUT)
        trace = run_module(module, key.inputs, trace_mode="full").trace
        return eligible_sites(trace, module), key

    def test_inverse_weighting_prefers_cold_sites(self):
        sites, key = self._trace_sites()
        cold_cutoff = sorted(s.count for s in sites.values())[len(sites) // 2]
        picker = SitePicker(sites, key.rng("p"), "inverse")
        picks = picker.pick_many(300)
        cold_fraction = sum(
            1 for s in picks if sites[s].count <= cold_cutoff
        ) / len(picks)
        assert cold_fraction > 0.75

    def test_uniform_policy_is_flatter(self):
        sites, key = self._trace_sites()
        cold_cutoff = sorted(s.count for s in sites.values())[len(sites) // 2]
        picker = SitePicker(sites, key.rng("p"), "uniform")
        picks = picker.pick_many(300)
        cold_fraction = sum(
            1 for s in picks if sites[s].count <= cold_cutoff
        ) / len(picks)
        assert cold_fraction < 0.8

    def test_unknown_policy_rejected(self):
        sites, key = self._trace_sites()
        with pytest.raises(ValueError):
            SitePicker(sites, key.rng("p"), "bogus")

    def test_empty_sites_rejected(self):
        with pytest.raises(EmbeddingError):
            SitePicker({}, None)  # type: ignore[arg-type]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**32))
def test_roundtrip_random_watermarks(watermark, seed):
    key = WatermarkKey(secret=seed.to_bytes(5, "big"), inputs=[25, 10])
    result = embed(gcd_module(), watermark, key, watermark_bits=16)
    found = recognize(result.module, key, watermark_bits=16)
    assert found.complete and found.value == watermark


def test_roundtrip_survives_loop_repeated_junk_window():
    # Regression (hypothesis-found): under this key the gcd loop's
    # trace repeats a 64-bit window that decrypts to an in-space junk
    # statement 23 times, outvoting the 6 genuine pieces; the vote
    # filter then deleted the real mark. Out-of-range statements
    # (x >= 2^bits cannot be W mod p_i*p_j) are now barred from voting.
    key = WatermarkKey(secret=(97).to_bytes(5, "big"), inputs=[25, 10])
    result = embed(gcd_module(), 0, key, watermark_bits=16)
    found = recognize(result.module, key, watermark_bits=16)
    assert found.complete and found.value == 0
