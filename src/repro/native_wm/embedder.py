"""Native watermark embedding (paper Section 4.2.2 + 4.3).

Pipeline:

1. **Profile** the binary on the key input (PLTO instrumentation mode)
   to find a cold, executed, unconditional edge ``begin -> end``. This
   is done once per image and key input (:class:`NativeRelease`).
2. **Chain construction**: replace the ``begin`` jump with ``call
   bf_entry`` (= ``a_0``), then for each watermark bit scan forward
   (bit 1) or backward (bit 0) for the nearest unused *no-fall-through
   slot* — a position whose preceding instruction is an unconditional
   transfer — and insert the next call there, so that
   ``addr(a_i) < addr(a_{i+1})`` iff ``w_i = 1``.
3. **Branch function**: append the Figure 7 routine chain; lay the
   program out once with placeholder parameters (lengths are final),
   read back the call addresses, build the perfect hash over the
   return addresses ``k_i = a_i + 5``, then re-emit with real
   parameters and lay out again (byte-for-byte same addresses).
4. **Tables**: extend the data section with the displacement table
   ``g``, the XOR table ``T[h(k_i)] = k_i ^ b_i`` (so the data section
   never contains raw text addresses — footnote 2), and the lockdown
   records.
5. **Tamper-proofing**: up to ``k`` cold, loop-free, post-``begin``
   direct jumps become indirect jumps through lockdown records that
   only the corresponding branch-function call initializes.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bitstring import int_to_bits_lsb_first
from ..core.errors import EmbeddingError
from ..native.image import BinaryImage
from ..native.isa import (
    Imm,
    Label,
    Mem,
    NInstruction,
    UNCONDITIONAL_FLOW,
    ni,
)
from ..native.cfg import build_native_cfg
from ..native.profiler import profile_image
from ..native.rewriter import (
    LiftedProgram,
    LiftedText,
    RewriteError,
    TextItem,
    layout,
    lift_text,
    lower,
)
from .branch_function import (
    BranchFunctionSpec,
    ENTRY_LABEL,
    emit_branch_function,
)
from .perfect_hash import build_perfect_hash, hash_geometry

CALL_LENGTH = 5  # bytes; k_i = a_i + CALL_LENGTH


@dataclass
class NativeEmbedding:
    """A watermarked binary plus the recognizer-relevant bracket."""

    image: BinaryImage
    watermark: int
    width: int
    begin: int                      # address of a_0
    end: int                        # address execution reaches after a_k
    bf_entry: int
    call_addresses: List[int] = field(default_factory=list)
    tamper_jumps: List[int] = field(default_factory=list)
    #: addresses of non-watermark transfers routed through the branch
    #: function for stealth (Section 4.2.1's "can also be used to
    #: obfuscate other control transfers")
    obfuscated_calls: List[int] = field(default_factory=list)
    original_size: int = 0

    @property
    def size_increase(self) -> int:
        return self.image.total_size() - self.original_size


def _slot_positions(items: List[TextItem]) -> List[int]:
    """Item indices where a call can be inserted without ever executing.

    A slot is the position *immediately* after an unconditional
    transfer, before any label: a label in between would make the
    position reachable (branches land on labels), and so would a
    fall-through from any non-transfer instruction. One slot per
    transfer.
    """
    return [
        idx for idx in range(1, len(items) + 1)
        if not isinstance(items[idx - 1], tuple)
        and items[idx - 1].mnemonic in UNCONDITIONAL_FLOW
    ]


@dataclass(frozen=True)
class NativeRelease:
    """What embedding reads of one image on one key input.

    Built once per (image, key input) by :func:`prepare_native`: the
    profile run, the loop analysis, the begin-edge ranking and the
    lifted text. Every copy embedded from it makes its program from
    that text and the caller's image, so no copy decodes the image and
    the release keeps no reference to one. Equal releases have equal
    profiles; their texts are compared item by item, not by ``==``.
    """

    #: executed direct jumps: address -> (execution count, sequence
    #: number of the first execution, inside a static loop)
    jumps: Dict[int, Tuple[int, int, bool]]
    #: begin-edge candidates, best first
    begins: Tuple[int, ...]
    #: the image's text lifted once, its equal instructions interned
    text: LiftedText = field(compare=False, repr=False)


def _begin_candidates(jumps: Dict[int, Tuple[int, int, bool]]) -> Tuple[int, ...]:
    """Addresses of cold executed direct jumps, best first.

    Cold jumps (a handful of executions) are bucketed together and
    ordered by *earliest first execution*: an early begin edge keeps
    the chain's runtime cost low AND leaves the most later-executing
    cold jumps available as tamper-proofing candidates.
    """
    ranked = sorted(
        (count if count > 4 else 1, first, addr)
        for addr, (count, first, _in_loop) in jumps.items()
    )
    return tuple(addr for _b, _f, addr in ranked)


def _prepare(
    image: BinaryImage,
    inputs: Sequence[int],
    listing: Sequence[Tuple[int, NInstruction]],
) -> NativeRelease:
    profile = profile_image(image, inputs)
    # Static loop membership for the paper's tamper-proofing criterion
    # ("... and is not part of a loop", Section 4.3).
    loops = build_native_cfg(image, listing).loop_instruction_addresses()
    jumps: Dict[int, Tuple[int, int, bool]] = {}
    for addr, instr in listing:
        if instr.mnemonic != "jmp" or addr not in profile.counts:
            continue
        dest = instr.operands[0]
        # The jumps lift_text() makes symbolic: direct, into the text.
        if isinstance(dest, Imm) and image.in_text(dest.value):
            jumps[addr] = (
                profile.counts[addr], profile.first_seen[addr], addr in loops
            )
    return NativeRelease(
        jumps, _begin_candidates(jumps), lift_text(image, listing)
    )


def prepare_native(image: BinaryImage, inputs: Sequence[int] = ()) -> NativeRelease:
    """Profile ``image`` on the key input ``inputs``, rank its begin
    edges and lift its text: the part of embedding that every copy
    shares."""
    return _prepare(image, inputs, image.disassemble())


#: Most releases :func:`embed_native` keeps. A release of a SPEC-like
#: kernel holds about 1 MB, nearly all of it its lifted text: 13.3k to
#: 13.6k items, but only 907 to 921 distinct instruction objects.
_RELEASE_CAP = 16

_ReleaseKey = Tuple[bytes, Tuple[int, ...]]

_releases: "OrderedDict[_ReleaseKey, NativeRelease]" = OrderedDict()
_releases_lock = threading.Lock()


def _release_key(image: BinaryImage, inputs: Sequence[int]) -> _ReleaseKey:
    """Digest of every image field a release is derived from, plus the
    key input. Symbols are not among them: the machine never reads
    them."""
    h = hashlib.sha256()
    h.update(b"%d %d %d %d %d " % (
        len(image.text), image.data_base, image.entry, image.text_base,
        image.bss_bytes,
    ))
    h.update(image.text)
    h.update(image.data)
    return h.digest(), tuple(inputs)


def clear_native_releases() -> None:
    """Drop every kept release (the next embed of any image is cold)."""
    with _releases_lock:
        _releases.clear()


def embed_native(
    image: BinaryImage,
    watermark: int,
    width: int,
    inputs: Sequence[int] = (),
    rng_seed: int = 2004,
    tamper_proof: bool = True,
    max_tamper_count: int = 16,
    obfuscate_extra: int = 0,
) -> NativeEmbedding:
    """Embed a ``width``-bit watermark into a copy of ``image``.

    ``inputs`` is the secret input the binary is profiled (and later
    traced) with. ``obfuscate_extra`` additionally routes up to that
    many ordinary (non-watermark) jumps through the branch function,
    so that watermark call sites are not the only callers — a stealth
    measure the paper inherits from Linn & Debray [15]. Raises
    :class:`EmbeddingError` when no suitable begin edge or not enough
    slots exist.

    The image's :class:`NativeRelease` is kept, keyed by the image's
    content and ``inputs``, so only the first embed into an image
    profiles and decodes it; each begin attempt makes its program from
    the release's lifted text, anchoring the text symbols of ``image``
    itself (the key leaves symbols out).
    """
    if watermark < 0 or watermark >= (1 << width):
        raise EmbeddingError(f"watermark does not fit in {width} bits")
    bits = int_to_bits_lsb_first(watermark, width)
    key = _release_key(image, inputs)
    with _releases_lock:
        release = _releases.get(key)
        if release is not None:
            _releases.move_to_end(key)
    if release is None:
        release = _prepare(image, inputs, image.disassemble())
        with _releases_lock:
            _releases[key] = release
            while len(_releases) > _RELEASE_CAP:
                _releases.popitem(last=False)
    if not release.begins:
        raise EmbeddingError("no executed direct jmp available as begin edge")

    last_error: Optional[Exception] = None
    fallback: Optional[NativeEmbedding] = None
    for begin_addr in release.begins[:8]:
        try:
            result = _embed_at(
                image, release.text.program(image), watermark, width, bits,
                begin_addr, release,
                random.Random(rng_seed), tamper_proof, max_tamper_count,
                obfuscate_extra,
            )
        except (EmbeddingError, RewriteError) as exc:
            last_error = exc
            continue
        if not tamper_proof or result.tamper_jumps:
            return result
        # Embedding worked but found no lockdown candidates from this
        # begin edge; remember it and try a begin that leaves some cold
        # jumps executing after it.
        if fallback is None:
            fallback = result
    if fallback is not None:
        return fallback
    raise EmbeddingError(f"embedding failed at every begin edge: {last_error}")


def _embed_at(
    image: BinaryImage,
    prog: LiftedProgram,
    watermark: int,
    width: int,
    bits: List[int],
    begin_addr: int,
    release: NativeRelease,
    rng: random.Random,
    tamper_proof: bool,
    max_tamper_count: int,
    obfuscate_extra: int = 0,
) -> NativeEmbedding:
    jumps = release.jumps
    begin_idx = prog.find(begin_addr)
    begin_jmp = prog.items[begin_idx]
    assert isinstance(begin_jmp, NInstruction) and begin_jmp.mnemonic == "jmp"
    end_label = begin_jmp.operands[0].name

    # a_0 replaces the begin jump (both are 5 bytes).
    a0 = ni("call", Label(ENTRY_LABEL))
    items = prog.items
    items[begin_idx] = a0
    calls: List[NInstruction] = [a0]
    # The free slots, ascending. A call inserted at a slot consumes it
    # (its transfer now precedes a call) and shifts every later
    # position by one; no other slot appears or goes.
    slots = _slot_positions(items)
    cur = begin_idx
    for bit in bits:
        pos = bisect.bisect_right(slots, cur)  # slots[:pos] are <= cur
        if bit:
            if pos < len(slots):
                target_idx = slots.pop(pos)
            else:
                # Extend the text with a dead halt to mint a new slot.
                prog.insert(len(items), [ni("halt")])
                target_idx = len(items)
        elif pos:
            pos -= 1
            target_idx = slots.pop(pos)
        else:
            # Mint a dead slot at the very top of the text: a halt
            # nothing falls into, with the call right after it.
            prog.insert(0, [ni("halt")])
            slots = [s + 1 for s in slots]
            target_idx = 1
        call = ni("call", Label(ENTRY_LABEL))
        prog.insert(target_idx, [call])
        slots[pos:] = [s + 1 for s in slots[pos:]]
        calls.append(call)
        cur = target_idx
    # Later edits only replace items, so these indices hold.
    index_of_addr = prog.address_index()

    # Extra obfuscated transfers: ordinary executed jumps rerouted
    # through the branch function. Same 5-byte size, so this is a
    # plain item replacement; the end target itself is excluded so
    # auto-framing's chain-linkage never absorbs an extra.
    extra_calls: List[Tuple[NInstruction, str]] = []
    if obfuscate_extra > 0:
        for addr in sorted(jumps):
            if len(extra_calls) >= obfuscate_extra:
                break
            idx = index_of_addr[addr]
            item = prog.items[idx]
            if not isinstance(item, NInstruction) or item.mnemonic != "jmp":
                continue
            if not isinstance(item.operands[0], Label):
                continue
            if item.operands[0].name == end_label:
                continue
            call = ni("call", Label(ENTRY_LABEL))
            prog.items[idx] = call
            extra_calls.append((call, item.operands[0].name))

    # Data-extension layout (absolute addresses known up front).
    data_cursor = image.data_base + len(image.data)
    # Phase A cannot know table sizes precisely (they depend on the
    # perfect hash size, which depends only on the key count). The
    # hash range M is deterministic in len(keys): compute it now.
    n_keys = len(calls) + len(extra_calls)
    m, g_size = hash_geometry(n_keys)
    g_base = data_cursor
    t_base = g_base + 4 * g_size
    lock_base = t_base + 4 * m

    pad = 4 * rng.randrange(2, 10)
    spec = BranchFunctionSpec(
        g_base=g_base, t_base=t_base, lock_base=lock_base, helper_pad=pad
    )
    bf_start = len(prog.items)
    prog.insert(bf_start, emit_branch_function(spec))

    # Tamper-proofing: convert cold post-begin jumps to indirect jumps.
    # The paper's candidate rule - "infrequently executed portion of
    # the code and not part of a loop" (Section 4.3) - is applied as a
    # preference: loop-free candidates first, then (for tight kernels
    # that keep every cold jump inside some loop) cold in-loop ones,
    # whose execution counts the max_tamper_count cap already bounds.
    tamper_items: List[Tuple[int, str]] = []
    if tamper_proof:
        t0 = jumps[begin_addr][1]
        candidates: List[Tuple[bool, int, int]] = []
        for addr, (count, first, in_loop) in sorted(jumps.items()):
            if count > max_tamper_count or first <= t0:
                continue
            idx = index_of_addr[addr]
            item = prog.items[idx]
            if not isinstance(item, NInstruction) or item.mnemonic != "jmp":
                continue
            if not isinstance(item.operands[0], Label):
                continue
            candidates.append((in_loop, addr, idx))
        candidates.sort()  # loop-free (False) first, then by address
        for _in_loop, addr, idx in candidates[:len(calls)]:
            item = prog.items[idx]
            target_label = item.operands[0].name
            # The record's address is known in phase C.
            prog.items[idx] = ni("jmp_a", Mem(disp=0))
            tamper_items.append((idx, target_label))

    # Phase B: first layout, compute addresses and the perfect hash.
    placed = layout(prog.items, image.text_base)
    instr_addr = dict(zip(map(id, prog.items), placed.addresses))
    call_addrs = [instr_addr[id(c)] for c in calls]
    extra_addrs = [instr_addr[id(c)] for c, _t in extra_calls]
    keys = [a + CALL_LENGTH for a in call_addrs + extra_addrs]
    ph = build_perfect_hash(keys, rng)
    if ph.size != m or len(ph.g) != g_size:
        raise EmbeddingError(
            "perfect hash geometry diverged from reserved layout"
        )
    end_addr = placed.labels[end_label]
    slots = [ph.evaluate(k) for k in keys]

    # Phase C: re-emit with final parameters; lengths are unchanged.
    spec = BranchFunctionSpec(
        mul=ph.mul, shift=ph.shift, g_mask=ph.g_mask,
        slot_mask=ph.slot_mask, g_base=g_base, t_base=t_base,
        lock_base=lock_base, helper_pad=pad,
    )
    prog.items[bf_start:] = emit_branch_function(spec)
    tamper_slots: List[Tuple[int, str, int]] = []
    for j, (idx, target_label) in enumerate(tamper_items):
        rec_addr = lock_base + slots[j] * 8
        prog.items[idx] = ni("jmp_a", Mem(disp=rec_addr))
        tamper_slots.append((slots[j], target_label, rec_addr))

    placed = layout(prog.items, image.text_base)
    final = lower(prog, placed)
    # Sanity: layout must not have moved between phases.
    instr_addr = dict(zip(map(id, prog.items), placed.addresses))
    if [instr_addr[id(c)] for c in calls] != call_addrs:
        raise EmbeddingError("layout shifted between phases")

    # Phase D: write the tables into the extended data section.
    extension = bytearray(4 * g_size + 4 * m + 8 * m)
    def put(addr: int, value: int) -> None:
        off = addr - data_cursor
        extension[off:off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    for b, disp in enumerate(ph.g):
        put(g_base + 4 * b, disp)
    junk_slots = set(range(m)) - set(slots)
    for s in junk_slots:
        put(t_base + 4 * s, rng.randrange(1 << 32))
    # Re-resolve targets against the final layout (identical to the
    # first: lengths did not change).
    final_targets = (
        call_addrs[1:] + [placed.labels[end_label]]
        + [placed.labels[t] for _c, t in extra_calls]
    )
    for k, t, s in zip(keys, final_targets, slots):
        put(t_base + 4 * s, k ^ t)
    for slot, target_label, rec_addr in tamper_slots:
        correct = placed.labels[target_label]
        patch = rng.randrange(1, 1 << 32)
        while patch == correct:
            patch = rng.randrange(1, 1 << 32)
        put(rec_addr, correct ^ patch)
        put(rec_addr + 4, patch)
    final.data.extend(extension)

    final.symbols["__wm_begin"] = call_addrs[0]
    final.symbols["__wm_end"] = end_addr
    return NativeEmbedding(
        image=final,
        watermark=watermark,
        width=width,
        begin=call_addrs[0],
        end=end_addr,
        bf_entry=placed.labels[ENTRY_LABEL],
        call_addresses=call_addrs,
        tamper_jumps=[rec for _s, _t, rec in tamper_slots],
        obfuscated_calls=extra_addrs,
        original_size=image.total_size(),
    )
