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
from repro.workloads.spec import SPEC_PROGRAMS, spec_native
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


def _image_digest(img):
    return hashlib.sha256(repr((
        img.text, bytes(img.data), img.data_base, img.entry,
        img.text_base, sorted(img.symbols.items()), img.bss_bytes,
    )).encode()).hexdigest()


@pytest.mark.parametrize("name", _tier(sorted(MARKS), ("mcf",)))
def test_sense_inversion_of_spec_kernels_is_pinned(name):
    for probability in (1.0, 0.5):
        img = invert_branch_senses(_image(name), probability,
                                   random.Random(7))
        assert _image_digest(img) == INVERSION_PINS[name, probability], \
            probability


#: sha256 of the image ``insert_noops`` makes of each SPEC-like kernel
#: with ``random.Random(7)``: 200 nops anywhere, and 25 with the first at
#: the top of the text. Captured when ``LiftedProgram`` kept an
#: address-to-index map that each insertion shifted entry by entry.
NOOP_PINS = {
    ("bzip2", 200, False): "ff2a61f06d7d194bd0143a23d269be3ae4287c559ddd0a51b19b70516f04d344",
    ("bzip2", 25, True): "731057ea33fac2c12fb45ecf39368645f9a92ab7d10a85fcfeec7fcc8dc53114",
    ("gcc", 200, False): "3c8763b7fdfe21448f6fea20eebe6e4ddb82a1244ae3eb851bcc0f337edf4af8",
    ("gcc", 25, True): "b5dbe914c40077481e00ee1182251c1d68a8614b3a17e1a98c808b4ad29a336c",
    ("mcf", 200, False): "0913d96c25755ddfdb11034b09f45f7460a572318ec66b0f53ce9bd7cdea69ba",
    ("mcf", 25, True): "497d8a9388cae4da5133e78267138c1c940f5d594faffbb65dbadc7d18e3fa27",
    ("vortex", 200, False): "63664511f8e70a04c16e9a2a556f53db6d4186b8f151119b5d13d2e9b081c423",
    ("vortex", 25, True): "38d758910ee3a093b315f89409713a3222da19af9ab452460068c669e9462b56",
    ("vpr", 200, False): "8ca519bfff4f4f8a0fc8c2dba312c06b1f0f5c6bcfa7af9e09280bbe44f39b1a",
    ("vpr", 25, True): "a07167afcfd68a300fd925e2f5712c0ff8b7a5d8e62df04f6a392c4bd65002d2",
}


@pytest.mark.parametrize("name", _tier(sorted(MARKS), ("mcf",)))
def test_noop_insertion_of_spec_kernels_is_pinned(name):
    for count, at_start in ((200, False), (25, True)):
        img = insert_noops(_image(name), count, random.Random(7),
                           at_start=at_start)
        assert _image_digest(img) == NOOP_PINS[name, count, at_start], \
            (count, at_start)


#: sha256 of each SPEC-like kernel's compiled image (``build_image``),
#: captured when the assembler kept its own layout and encode loops.
COMPILE_PINS = {
    "bzip2": "cadef7470ded04890bf21ac6b3790bee387aaca54cc12dce7e282bb970d2d011",
    "crafty": "629cae8cb42cce2e95d57bc6058c001f38d6730dd9576a4824705a52ae0d3e88",
    "gap": "21c68cbf5bc3681959df4f4e25744295c3417266599f7dfce10ce01ab909197e",
    "gcc": "a4dd8b820c1818981cbba45d8b92ae455bca26c7c84d4557d7134c07fcaa9bdc",
    "gzip": "5f7861e7568cd424dd58aa1467296aac498a4b18ee5aaf795dff38d0a9a40ef3",
    "mcf": "cda1ffa74e6ef904ea5523389bb76a80aab098722cd07f21ac5e98af5d438e45",
    "parser": "023448f49b39f072f2f6b4d507475b43a42359b7dd526087657e0cb9c7f851ea",
    "twolf": "eea9111b0ed07f2cb222a78b8d9388d9f145a91a5333043fae38d144f154b38d",
    "vortex": "9484a7b2e6a37629d081098d6997d1d387c75d805f80fb5deda2a43fa0c9efb1",
    "vpr": "d877b9bfc0820dacc151c8372ba2fd162e39dd52a39b94023f7ca5d15dfa333e",
}


@pytest.mark.parametrize("name", SPEC_PROGRAMS)
def test_compiled_spec_image_is_pinned(name):
    assert _image_digest(spec_native(name)) == COMPILE_PINS[name]


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
