"""Native releases: the per-(image, key input) half of ``embed_native``.

``embed_native`` keeps the profile, loop analysis, begin-edge ranking
and lifted text of each image it embeds into, keyed by the image's
content and the key input. A warm embed must equal a cold one byte for
byte, also into an image whose text symbols differ, any change to the
image's content or the key input must miss, no embed may edit the kept
text, the memo must stay within its bound, and it must keep no
caller's image alive.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.lang.codegen_native import compile_source_native
from repro.native_wm import clear_native_releases, embed_native, prepare_native
from repro.native.rewriter import lift_text
from repro.native_wm import embedder
from repro.workloads.spec import TRAIN_INPUT, spec_native

WIDTH = 64
KERNELS = ("mcf", "gcc", "vpr", "vortex", "bzip2")
#: (mark, rng_seed) pairs; each kernel embeds both, cold and warm.
PAIRS = ((0x0123456789ABCDEF, 3), (0xF0E1D2C3B4A59687, 40))

HOST_SRC = """
fn hot(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) { acc = acc + i * i; }
    return acc;
}
fn late(x) {
    var y = 0;
    if (x % 2 == 0) { y = x + 1; } else { y = x - 1; }
    return y;
}
fn main() {
    var n = input();
    print(hot(n));
    if (n > 2) { print(n * 2); } else { print(n); }
    print(late(n));
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_native_releases()
    yield
    clear_native_releases()


@pytest.fixture
def profiles(monkeypatch):
    """Counts the profile runs, one per release built."""
    calls = []
    original = embedder.profile_image

    def counting(image, inputs=(), *args, **kwargs):
        calls.append(tuple(inputs))
        return original(image, inputs, *args, **kwargs)

    monkeypatch.setattr(embedder, "profile_image", counting)
    return calls


def _facts(emb):
    image = emb.image
    return (
        image.text, bytes(image.data), image.data_base, image.entry,
        image.symbols, emb.begin, emb.end, emb.bf_entry,
        emb.call_addresses, emb.tamper_jumps, emb.obfuscated_calls,
    )


def _embed(image, pair, inputs=TRAIN_INPUT, **kwargs):
    mark, rng_seed = pair
    return embed_native(image, mark, WIDTH, inputs, rng_seed=rng_seed, **kwargs)


def _text_facts(text):
    """A lifted text by value: each item's mnemonic and operands."""
    items = [
        item if isinstance(item, tuple) else (item.mnemonic, item.operands)
        for item in text.items
    ]
    return items, text.origins, text.entry_label


@pytest.mark.parametrize("kernel", KERNELS)
def test_warm_embed_equals_cold(kernel, profiles):
    # Each pair is embedded cold, then warm from the release that the
    # *other* pair's cold embed left behind, into an equal, fresh image.
    cold = []
    for pair in PAIRS:
        clear_native_releases()
        cold.append(_facts(_embed(spec_native(kernel), pair)))
    warm = [_facts(_embed(spec_native(kernel), pair)) for pair in PAIRS]
    assert len(profiles) == len(PAIRS)
    assert warm == cold


def test_prepare_native_matches_the_kept_release():
    image = compile_source_native(HOST_SRC)
    _embed(image, PAIRS[0], [50])
    (kept,) = embedder._releases.values()
    prepared = prepare_native(image, [50])
    assert prepared == kept
    # The lifted text is left out of ``==``: its instructions compare
    # by identity.
    assert _text_facts(prepared.text) == _text_facts(kept.text)
    assert kept.begins and set(kept.begins) == set(kept.jumps)


@pytest.mark.parametrize("kernel", KERNELS)
def test_embeds_leave_the_kept_text_unedited(kernel):
    image = spec_native(kernel)
    # Extras route lockdown candidates through the branch function, so
    # one embed has extras and the other has the tamper-proofing jumps.
    assert _embed(image, PAIRS[0], obfuscate_extra=4).obfuscated_calls
    assert _embed(image, PAIRS[1], tamper_proof=True).tamper_jumps
    (kept,) = embedder._releases.values()
    assert _text_facts(kept.text) == _text_facts(lift_text(image))


@pytest.mark.parametrize("kernel", KERNELS)
def test_kept_text_interns_its_instructions(kernel):
    # What keeps a release near 1 MB: the text's equal instructions
    # are one object each.
    items = prepare_native(spec_native(kernel), TRAIN_INPUT).text.items
    distinct = {id(item) for item in items if not isinstance(item, tuple)}
    assert 5 * len(distinct) <= len(items)


def _resymbolled(image):
    """An image with ``image``'s content but other text symbols: each
    renamed and moved to the next instruction (labelled or not), plus
    one inside an instruction."""
    copy = image.copy()
    starts = [addr for addr, _instr in image.disassemble()]
    after = dict(zip(starts, starts[1:]))
    copy.symbols = {
        f"moved_{name}": after.get(addr, addr) if image.in_text(addr) else addr
        for name, addr in image.symbols.items()
    }
    copy.symbols["inside"] = starts[3] + 1
    return copy


def test_warm_embed_anchors_the_callers_own_symbols(profiles):
    image = spec_native("mcf")
    others = [_resymbolled(image), _resymbolled(_resymbolled(image))]
    _embed(image, PAIRS[0])
    warm = [_facts(_embed(other, PAIRS[1])) for other in others]
    assert len(profiles) == 1
    cold = []
    for other in others:
        clear_native_releases()
        cold.append(_facts(_embed(other, PAIRS[1])))
    assert warm == cold
    assert warm[0][4] != warm[1][4]  # the symbol tables differ


def test_changed_data_byte_misses(profiles):
    image = compile_source_native(HOST_SRC)
    _embed(image, PAIRS[0], [50])
    # The caller mutates its image after embedding: a heap byte, which
    # the program never reads before writing, so the profile is equal.
    image.data[-1] ^= 1
    got = _embed(image, PAIRS[0], [50])
    assert len(profiles) == 2
    clear_native_releases()
    assert _facts(got) == _facts(_embed(image, PAIRS[0], [50]))


def test_different_inputs_miss(profiles):
    image = compile_source_native(HOST_SRC)
    _embed(image, PAIRS[0], [50])
    got = _embed(image, PAIRS[0], [60])
    assert profiles == [(50,), (60,)]
    clear_native_releases()
    assert _facts(got) == _facts(_embed(image, PAIRS[0], [60]))


def test_memo_evicts_the_oldest_release(monkeypatch, profiles):
    monkeypatch.setattr(embedder, "_RELEASE_CAP", 2)
    image = compile_source_native(HOST_SRC)
    for n in (40, 50, 60):
        _embed(image, PAIRS[0], [n])
        assert len(embedder._releases) <= 2
    assert [inputs for _digest, inputs in embedder._releases] == [
        (50,), (60,)
    ]
    _embed(image, PAIRS[0], [60])   # kept: no profile
    _embed(image, PAIRS[0], [40])   # evicted: profiled again
    assert profiles == [(40,), (50,), (60,), (40,)]
    assert len(embedder._releases) == 2


def test_memo_keeps_no_caller_image():
    image = compile_source_native(HOST_SRC)
    ref = weakref.ref(image)
    emb = _embed(image, PAIRS[0], [50])
    del image
    gc.collect()
    assert ref() is None
    assert len(embedder._releases) == 1
    assert emb.image.text


def test_concurrent_embeds_agree():
    # More threads than cores, switching often, all missing at once.
    results = [None] * 4
    barrier = threading.Barrier(len(results))

    def worker(slot):
        image = spec_native("mcf")
        barrier.wait()
        results[slot] = _facts(_embed(image, PAIRS[0]))

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(results))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[0] is not None
    assert results == [results[0]] * len(results)
    assert len(embedder._releases) == 1
