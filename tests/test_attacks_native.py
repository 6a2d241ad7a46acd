"""Tests for the five native attacks and the §5.2.2 resilience table."""

import hashlib
import random

import pytest

from repro.attacks.native import (
    bypass_branch_function,
    double_watermark,
    insert_noops,
    invert_branch_senses,
    observe_call_targets,
    reroute_branch_function,
    run_native_attack_suite,
)
from repro.lang.codegen_native import compile_source_native
from repro.native import MachineFault, run_image
from repro.native_wm import embed_native, extract_native
from tests.test_native_equivalence import MARKS, _image, _tier

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

KEY = [50]


@pytest.fixture(scope="module")
def host():
    return compile_source_native(HOST_SRC)


@pytest.fixture(scope="module")
def embedded(host):
    return embed_native(host, watermark=0xACE, width=12, inputs=KEY)


def broken(image, inputs, expected):
    try:
        return run_image(image, inputs, max_steps=5_000_000).output != expected
    except MachineFault:
        return True


class TestAttacksOnUnwatermarkedBinaries:
    """Sanity: the transformations themselves are semantics-preserving
    when there is no watermark to break."""

    def test_noop_insertion(self, host):
        want = run_image(host, KEY).output
        attacked = insert_noops(host, 25, at_start=True)
        assert run_image(attacked, KEY).output == want

    def test_sense_inversion(self, host):
        want = run_image(host, KEY).output
        attacked = invert_branch_senses(host)
        assert run_image(attacked, KEY).output == want
        for probe in ([3], [11]):
            assert run_image(attacked, probe).output == \
                run_image(host, probe).output


#: sha256 of the image ``invert_branch_senses`` makes of each SPEC-like
#: kernel with ``random.Random(7)`` at probability 1.0 and 0.5, captured
#: when the attack shifted ``index_of_addr`` by hand.
INVERSION_PINS = {
    ("bzip2", 1.0): "97fa7ec947efeb8fe5cd7572d8978e0603f4b6673470321a462ffbe89f2cddb1",
    ("bzip2", 0.5): "e309871d12e828bad248ddef00d54b4156b7225ede24ef23b974ed8795df51f0",
    ("gcc", 1.0): "162bc36992b0fc7dcf963d9a1ecd657cfc9f4601979dbd464f81a946e8569c25",
    ("gcc", 0.5): "b59020a18b38b6798c4d5036a1bf632b0700ef75261288b9754349cd63350bb2",
    ("mcf", 1.0): "a1eff22285b7d24987fc7c3e5fea00c5c8a9b0688150f04fa4a1ee9343fcd495",
    ("mcf", 0.5): "d1c89a21f12722eab8b64643bbb4f4ae448ae3064437572b716f12189ffa65e1",
    ("vortex", 1.0): "86c1cb20b94a1acfacceb5b0020c6602879dec51f77324e5e4f3cb7b4ca294e7",
    ("vortex", 0.5): "a547e7284020170564e2e21094e7082e194bb3997984cdfa62c98fe7473756f0",
    ("vpr", 1.0): "fdb2b23cc962d21071ccc5b2a58d1fc8a4c1de46507bfc2564fddfd2f16aecef",
    ("vpr", 0.5): "a2a2fb126b286ee2357b5e99e50e307d15369cb1636fe7af115aa6b768393b0a",
}


@pytest.mark.parametrize("name", _tier(sorted(MARKS), ("mcf",)))
def test_sense_inversion_of_spec_kernels_is_pinned(name):
    for probability in (1.0, 0.5):
        img = invert_branch_senses(_image(name), probability,
                                   random.Random(7))
        digest = hashlib.sha256(repr((
            img.text, bytes(img.data), img.data_base, img.entry,
            img.text_base, sorted(img.symbols.items()), img.bss_bytes,
        )).encode()).hexdigest()
        assert digest == INVERSION_PINS[name, probability], probability


class TestAttacksOnWatermarkedBinaries:
    def test_single_noop_breaks(self, embedded):
        want = run_image(embedded.image, KEY).output
        attacked = insert_noops(embedded.image, 1, at_start=True)
        assert broken(attacked, KEY, want)

    def test_sense_inversion_breaks(self, embedded):
        want = run_image(embedded.image, KEY).output
        attacked = invert_branch_senses(embedded.image)
        assert broken(attacked, KEY, want)

    def test_double_watermark_breaks(self, embedded):
        want = run_image(embedded.image, KEY).output
        attacked = double_watermark(embedded.image, 0x123, 12, KEY)
        assert broken(attacked, KEY, want)

    def test_bypass_breaks_tamper_proofed(self, embedded):
        assert embedded.tamper_jumps, "fixture must have lockdown cells"
        want = run_image(embedded.image, KEY).output
        attacked = bypass_branch_function(
            embedded.image, embedded.bf_entry, KEY
        )
        assert broken(attacked, KEY, want)

    def test_bypass_succeeds_without_tamper_proofing(self, host):
        """Ablation: tamper-proofing is what defeats the subtractive
        attack — without it the bypass yields a working, unwatermarked
        program."""
        emb = embed_native(host, 0xACE, 12, KEY, tamper_proof=False)
        assert not emb.tamper_jumps
        want = run_image(emb.image, KEY).output
        attacked = bypass_branch_function(emb.image, emb.bf_entry, KEY)
        assert run_image(attacked, KEY).output == want  # program fine
        res = extract_native(attacked, 12, emb.begin, emb.end, KEY,
                             tracer="smart", bf_entry=emb.bf_entry)
        assert res.watermark != 0xACE  # but the mark is gone

    def test_reroute_preserves_program(self, embedded):
        want = run_image(embedded.image, KEY).output
        attacked = reroute_branch_function(
            embedded.image, embedded.bf_entry, KEY
        )
        assert run_image(attacked, KEY).output == want

    def test_reroute_defeats_simple_tracer_only(self, embedded):
        attacked = reroute_branch_function(
            embedded.image, embedded.bf_entry, KEY
        )
        simple = extract_native(
            attacked, embedded.width, embedded.begin, embedded.end, KEY,
            tracer="simple", bf_entry=embedded.bf_entry,
        )
        smart = extract_native(
            attacked, embedded.width, embedded.begin, embedded.end, KEY,
            tracer="smart", bf_entry=embedded.bf_entry,
        )
        assert simple.watermark != embedded.watermark
        assert smart.watermark == embedded.watermark

    def test_observe_call_targets_learns_chain(self, embedded):
        pairs = observe_call_targets(embedded.image, embedded.bf_entry, KEY)
        sources = [a for a, _b in pairs]
        for call_addr in embedded.call_addresses:
            assert call_addr in sources


class TestResilienceTable:
    def test_matches_paper(self, embedded):
        outcomes = {
            o.name: o for o in run_native_attack_suite(embedded, KEY)
        }
        # Attacks 1-4 break the program.
        for name in ("1-noop-insertion", "2-branch-sense-inversion",
                     "3-double-watermarking", "4-bypass-branch-function"):
            assert not outcomes[name].program_ok, name
        # Attack 5 keeps it alive and splits the tracers.
        reroute = outcomes["5-reroute-branch-function"]
        assert reroute.program_ok
        assert not reroute.extracted_simple
        assert reroute.extracted_smart
