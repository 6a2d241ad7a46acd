"""Tests for the branch-function watermarker (Section 4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import EmbeddingError
from repro.lang.codegen_native import compile_source_native
from repro.native import rewriter, run_image
from repro.native.isa import Imm, Label, NInstruction, Reg, SymMem, ni
from repro.native_wm import (
    BranchFunctionSpec,
    branch_function_byte_size,
    build_perfect_hash,
    embed_native,
    emit_branch_function,
    extract_native,
    hash_geometry,
    identify_branch_function,
    prepare_native,
)
from repro.native_wm import embedder

HOST_SRC = """
fn hot(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) { acc = acc + i * i; }
    return acc;
}
fn late_a(x) {
    var y = 0;
    if (x % 2 == 0) { y = x + 1; } else { y = x - 1; }
    return y;
}
fn late_b(x) {
    var y = 0;
    if (x > 10) { y = x * 3; } else { y = x * 5; }
    return y;
}
fn late_c(x) {
    var y = 0;
    if (x != 7) { y = 1; } else { y = 2; }
    return y;
}
fn main() {
    var n = input();
    print(hot(n));
    if (n > 2) { print(n * 2); } else { print(n); }
    print(late_a(n));
    print(late_b(n));
    print(late_c(n));
    return 0;
}
"""

KEY_INPUT = [50]


@pytest.fixture(scope="module")
def host_image():
    return compile_source_native(HOST_SRC)


@pytest.fixture(scope="module")
def embedded(host_image):
    return embed_native(host_image, watermark=0xBEE, width=12,
                        inputs=KEY_INPUT)


class TestPerfectHash:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32))
    def test_collision_free(self, n, seed):
        keys = random.Random(seed).sample(range(0x08048000, 0x08148000), n)
        ph = build_perfect_hash(keys, random.Random(seed ^ 1))
        slots = [ph.evaluate(k) for k in keys]
        assert len(set(slots)) == n
        assert all(0 <= s < ph.size for s in slots)

    def test_geometry_power_of_two(self):
        for n in (1, 2, 3, 5, 17, 129):
            m, g = hash_geometry(n)
            assert m & (m - 1) == 0 and m >= n
            assert g & (g - 1) == 0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(EmbeddingError, match="distinct"):
            build_perfect_hash([5, 5], random.Random(0))

    def test_empty_rejected(self):
        with pytest.raises(EmbeddingError):
            build_perfect_hash([], random.Random(0))


class TestBranchFunctionEmission:
    def test_parameter_independent_length(self):
        a = branch_function_byte_size(BranchFunctionSpec(helper_pad=16))
        b = branch_function_byte_size(BranchFunctionSpec(
            mul=0xDEADBEEF, shift=21, g_mask=0x7FF, slot_mask=0x3F,
            g_base=0x8150000, t_base=0x8151000, lock_base=0x8152000,
            helper_pad=16,
        ))
        assert a == b

    def test_depth_accounts_for_pad(self):
        s1 = BranchFunctionSpec(helper_pad=8)
        s2 = BranchFunctionSpec(helper_pad=32)
        assert s2.hash_input_depth - s1.hash_input_depth == 24

    def test_emission_contains_the_fig7_shape(self):
        mnemonics = [
            item.mnemonic for item in emit_branch_function(
                BranchFunctionSpec()
            ) if not isinstance(item, tuple)
        ]
        # pushf/register saves, hash (imul/shr/xor/and + table load),
        # return-address fix (xor into stack), restore, ret.
        for required in ("pushf", "imul_rri", "shr_ri", "mov_rx",
                         "xor_mr", "popf", "ret"):
            assert required in mnemonics, required


class TestEmbedNative:
    def test_semantics_preserved_on_key_input(self, host_image, embedded):
        want = run_image(host_image, KEY_INPUT).output
        assert run_image(embedded.image, KEY_INPUT).output == want

    def test_semantics_preserved_on_other_inputs(self, host_image, embedded):
        for probe in ([4], [17], [100]):
            want = run_image(host_image, probe).output
            assert run_image(embedded.image, probe).output == want

    def test_chain_addresses_encode_bits(self, embedded):
        addrs = embedded.call_addresses
        assert len(addrs) == embedded.width + 1
        bits = [1 if addrs[i + 1] > addrs[i] else 0
                for i in range(embedded.width)]
        assert sum(b << k for k, b in enumerate(bits)) == embedded.watermark

    def test_no_raw_text_addresses_in_tables(self, host_image, embedded):
        """Footnote 2: the data section must not contain a run of text
        addresses — T entries are XOR-masked."""
        data = embedded.image.data
        new_region = data[len(host_image.data):]
        hits = 0
        for off in range(0, len(new_region) - 4, 4):
            word = int.from_bytes(new_region[off:off + 4], "little")
            if word in set(embedded.call_addresses):
                hits += 1
        assert hits == 0

    def test_tamper_cells_created(self, embedded):
        assert len(embedded.tamper_jumps) >= 1

    def test_oversized_watermark_rejected(self, host_image):
        with pytest.raises(EmbeddingError):
            embed_native(host_image, watermark=1 << 8, width=8,
                         inputs=KEY_INPUT)

    def test_size_increase_positive_and_recorded(self, embedded, host_image):
        assert embedded.size_increase > 0
        assert embedded.image.total_size() == \
            host_image.total_size() + embedded.size_increase

    def test_each_attempt_lays_out_twice_and_checks_the_shift(
        self, host_image, monkeypatch
    ):
        """Phase B's layout and the one ``lower`` encodes with are the
        only two; a call that moved between them fails the attempt."""
        layouts, layout = [], rewriter.layout

        def shifted(items, base):
            placed = layout(items, base)
            layouts.append(placed)
            if len(layouts) % 2 == 0:
                placed.addresses = [a + 1 for a in placed.addresses]
            return placed

        monkeypatch.setattr(embedder, "layout", shifted)
        monkeypatch.setattr(rewriter, "layout", shifted)
        with pytest.raises(EmbeddingError, match="layout shifted"):
            embed_native(host_image, 0xBEE, 12, KEY_INPUT)
        attempts = min(8, len(prepare_native(host_image, KEY_INPUT).begins))
        assert len(layouts) == 2 * attempts

    @pytest.mark.parametrize("wm,width", [
        (0, 8), (0xFF, 8), (0x5A5A, 16), (0xC0FFEE, 24),
    ])
    def test_various_widths(self, host_image, wm, width):
        emb = embed_native(host_image, wm, width, KEY_INPUT)
        want = run_image(host_image, KEY_INPUT).output
        assert run_image(emb.image, KEY_INPUT).output == want
        res = extract_native(emb.image, width, emb.begin, emb.end,
                             KEY_INPUT, tracer="smart")
        assert res.watermark == wm


class TestEncode:
    def test_repeated_objects_encode_like_separate_ones(self, monkeypatch):
        """``encode`` encodes a fixed instruction object once per call,
        and a relative transfer or a symbolic one at each address."""
        shared = [
            ni("push", Reg("ebp")),
            ni("mov_ri", Reg("eax"), Imm(7)),
            ni("call", Imm(0x1000)),        # relative, outside the text
            ni("jmp", Imm(0x1000)),
            ni("jmp", Label("top")),
            ni("mov_ra", Reg("ecx"), SymMem("g", offset=4)),
            ni("mov_rx", Reg("edx"), SymMem("tab", index="eax")),
        ]
        rng = random.Random(3)
        items = [("label", "top")] + [rng.choice(shared) for _ in range(60)]
        placed = rewriter.layout(items, 0x08048000)
        symbols = {**placed.labels, "g": 0x08050000, "tab": 0x08051000}
        separate = [
            NInstruction(i.mnemonic, i.operands) if i in shared else i
            for i in items
        ]
        encoded = []
        encode_instruction = rewriter.encode_instruction

        def counting(instr, address):
            encoded.append(instr)
            return encode_instruction(instr, address)

        monkeypatch.setattr(rewriter, "encode_instruction", counting)
        got = rewriter.encode(items, placed.addresses, symbols)
        # push and mov_ri are encoded once each, the rest at each item.
        assert min(items.count(i) for i in shared) > 1
        assert len(encoded) == 2 + sum(items.count(i) for i in shared[2:])
        assert got == rewriter.encode(separate, placed.addresses, symbols)
        # The relative call's bytes differ by address: memoizing it
        # would have been wrong.
        calls = [
            got[a - 0x08048000:a - 0x08048000 + 5]
            for item, a in zip(items, placed.addresses) if item is shared[2]
        ]
        assert len(set(calls)) == len(calls) > 1


class TestExtraction:
    def test_both_tracers_extract(self, embedded):
        for tracer in ("simple", "smart"):
            res = extract_native(
                embedded.image, embedded.width, embedded.begin,
                embedded.end, KEY_INPUT, tracer=tracer,
            )
            assert res.complete
            assert res.watermark == embedded.watermark

    def test_branch_function_auto_identified(self, embedded):
        found = identify_branch_function(embedded.image, KEY_INPUT)
        assert found == embedded.bf_entry

    def test_unwatermarked_binary_yields_nothing(self, host_image):
        assert identify_branch_function(host_image, KEY_INPUT) is None
        res = extract_native(host_image, 12, 0, 0, KEY_INPUT)
        assert not res.complete

    def test_wrong_bracket_fails(self, embedded):
        res = extract_native(
            embedded.image, embedded.width, embedded.begin + 2,
            embedded.end, KEY_INPUT,
        )
        assert res.watermark != embedded.watermark or not res.complete

    def test_unknown_tracer_rejected(self, embedded):
        with pytest.raises(ValueError):
            extract_native(embedded.image, 4, 0, 0, [], tracer="psychic")

    def test_event_consistency(self, embedded):
        res = extract_native(
            embedded.image, embedded.width, embedded.begin, embedded.end,
            KEY_INPUT, tracer="smart",
        )
        assert [e.source for e in res.events] == embedded.call_addresses
        for ev, nxt in zip(res.events, res.events[1:]):
            assert ev.resumed_at == nxt.source
        assert res.events[-1].resumed_at == embedded.end


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_roundtrip_random_marks(wm):
    image = compile_source_native(HOST_SRC)
    emb = embed_native(image, wm, 16, KEY_INPUT)
    res = extract_native(emb.image, 16, emb.begin, emb.end, KEY_INPUT)
    assert res.watermark == wm
