"""Recognition decrypts each distinct trace window once; embedding reads
a site table built in one pass over the trace points.

Both are pure work savings, so the oracle is the code they replaced:

* a naive per-window reference (one decrypt per window occurrence, kept
  here) must agree with :func:`extract_candidates`, :func:`symbol_votes`
  and :func:`recover` on candidates *and their order*, votes, clear
  winners, accepted statements, value and confidence, over bit-strings
  built from repeated segments the way a hot loop repeats trace bits;
* a looping program's gcrt, rs-8 and hybrid-4 recognitions decrypt
  exactly one block per distinct window, counting the blocks of
  ``decrypt_blocks`` calls as well as single ``decrypt_block`` calls;
* the site table (``eligible_sites``) and ``Trace.site_snapshots``
  return what the linear scan returned, never alias or go stale, and
  leave trace equality, the binary trace blob and the prepared-program
  pickle untouched.
"""

import io
import pickle
import random
import sys
import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.bytecode_wm.embedder import embed
from repro.bytecode_wm.keys import WatermarkKey
from repro.bytecode_wm.placement import eligible_sites
from repro.bytecode_wm.recognizer import recognize_bits, trace_bitstring
from repro.codec.base import open_symbol, seal_symbol
from repro.codec.hybrid import HYBRID_PARITY_TAG, HybridCodec
from repro.codec.rs import RS_SYMBOL_TAG, symbol_votes
from repro.core.bitstring import (
    int_to_bits_lsb_first,
    sliding_windows,
    window_multiset,
)
from repro.core.cipher import BlockCipher, cipher_for_secret
from repro.core.crt import generalized_crt
from repro.core.enumeration import StatementEnumeration
from repro.core.primes import choose_moduli
from repro.core.recovery import (
    _resolve_conflicts,
    apply_vote_filter,
    extract_candidates,
    hold_votes,
    open_windows,
    recover,
)
from repro.core.splitting import split
from repro.pipeline.prepare import prepare
from repro.vm.disassembler import disassemble
from repro.vm.interpreter import run_module
from repro.vm.trace_io import dump_trace
from repro.vm.tracing import TracePoint
from repro.workloads import collatz_module

CIPHER = cipher_for_secret(b"window-multiset")
BITS = 16
MODULI = choose_moduli(BITS)
ENUM = StatementEnumeration(MODULI)


# -- the per-window reference -------------------------------------------------


def naive_extract(bits, cipher, enumeration):
    candidates = Counter()
    inspected = 0
    for _, packed in sliding_windows(list(bits), 64):
        inspected += 1
        stmt = enumeration.decode(cipher.decrypt_block(packed))
        if stmt is not None:
            candidates[stmt] += 1
    return candidates, inspected


def naive_symbol_votes(bits, cipher, tag, positions):
    votes = {}
    hits = 0
    for _, packed in sliding_windows(list(bits), 64):
        opened = open_symbol(cipher, tag, packed, positions)
        if opened is not None:
            pos, sym = opened
            votes.setdefault(pos, Counter())[sym] += 1
            hits += 1
    return votes, hits


def naive_recover(bits, cipher, enumeration, use_voting, max_value):
    """Section 3.3 with one decrypt per window occurrence."""
    moduli = enumeration.moduli
    candidates, inspected = naive_extract(bits, cipher, enumeration)
    found = sum(candidates.values())
    votes, winners = {}, {}
    if use_voting and candidates:
        votes, winners = hold_votes(candidates, moduli, max_value)
        candidates = apply_vote_filter(candidates, winners, moduli)
    outcome = {
        "inspected": inspected,
        "found": found,
        "after_voting": sum(candidates.values()),
        "votes": votes,
        "winners": winners,
        "accepted": [],
        "congruence": None,
        "complete": False,
        "value": None,
        "confidence": 0.0,
    }
    accepted = (
        _resolve_conflicts(list(candidates), candidates, moduli)
        if candidates else []
    )
    if not accepted:
        return outcome
    congruence = generalized_crt(s.congruence(moduli) for s in accepted)
    covered = {idx for s in accepted for idx in (s.i, s.j)}
    outcome.update(accepted=accepted, congruence=congruence)
    if covered == set(range(len(moduli))):
        outcome.update(complete=True, value=congruence.value, confidence=1.0)
    else:
        outcome["confidence"] = len(covered) / len(moduli)
    return outcome


def ordered(votes):
    """Votes with every tally's insertion order made visible."""
    return [(k, list(tally.items())) for k, tally in votes.items()]


# -- bit-strings a hot loop would leave behind --------------------------------


@st.composite
def looped_bitstrings(draw, blocks):
    """Random bits around a random walk over segments, many repeated.

    Segments are encrypted pieces (``blocks``) and short junk runs; the
    walk revisits them like loop iterations, so windows recur, cross
    segment boundaries and sometimes overlap a piece partially.
    """
    junk = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=1, max_size=40),
        min_size=1, max_size=4,
    ))
    segments = [int_to_bits_lsb_first(b, 64) for b in blocks] + junk
    walk = draw(st.lists(st.integers(0, len(segments) - 1), max_size=40))
    bits = draw(st.lists(st.integers(0, 1), max_size=70))
    for idx in walk:
        bits.extend(segments[idx])
    bits.extend(draw(st.lists(st.integers(0, 1), max_size=70)))
    return bits


@st.composite
def statement_blocks(draw):
    """Genuine pieces of a mark, plus forged statements that disagree."""
    value = draw(st.integers(0, (1 << BITS) - 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    stmts = split(value, MODULI, draw(st.integers(len(MODULI) - 1, 10)), rng)
    forged = draw(st.lists(
        st.integers(0, ENUM.space_size - 1).map(ENUM.decode), max_size=3
    ))
    return [CIPHER.encrypt_block(ENUM.encode(s)) for s in stmts + forged]


@st.composite
def gcrt_bitstrings(draw):
    return draw(looped_bitstrings(draw(statement_blocks())))


@st.composite
def symbol_bitstrings(draw):
    """Sealed (position, symbol) pieces, conflicting ones included."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 255)),
        min_size=1, max_size=8,
    ))
    blocks = [seal_symbol(CIPHER, RS_SYMBOL_TAG, p, s) for p, s in pairs]
    return draw(looped_bitstrings(blocks))


# -- equivalence -------------------------------------------------------------


class TestMatchesPerWindowReference:
    @given(bits=st.lists(st.integers(0, 1), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_bits(self, bits):
        got = extract_candidates(bits, CIPHER, ENUM)
        want = naive_extract(bits, CIPHER, ENUM)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]

    @given(bits=gcrt_bitstrings())
    @settings(max_examples=80, deadline=None)
    def test_extract_candidates(self, bits):
        candidates, inspected = extract_candidates(bits, CIPHER, ENUM)
        ref, ref_inspected = naive_extract(bits, CIPHER, ENUM)
        assert list(candidates.items()) == list(ref.items())
        assert inspected == ref_inspected == max(0, len(bits) - 63)

    @given(bits=gcrt_bitstrings(), use_voting=st.booleans(),
           bounded=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_recover(self, bits, use_voting, bounded):
        max_value = 1 << BITS if bounded else None
        got = recover(bits, CIPHER, ENUM, use_voting, max_value)
        want = naive_recover(bits, CIPHER, ENUM, use_voting, max_value)
        assert got.windows_inspected == want["inspected"]
        assert got.distinct_windows == len(window_multiset(bits))
        assert got.candidates_found == want["found"]
        assert got.candidates_after_voting == want["after_voting"]
        assert ordered(got.votes) == ordered(want["votes"])
        assert got.clear_winners == want["winners"]
        assert got.accepted == want["accepted"]
        assert got.congruence == want["congruence"]
        assert (got.complete, got.value) == (want["complete"], want["value"])
        assert got.confidence == want["confidence"]

    @given(bits=symbol_bitstrings())
    @settings(max_examples=80, deadline=None)
    def test_symbol_votes(self, bits):
        votes, hits = symbol_votes(
            open_windows(bits, CIPHER), CIPHER, RS_SYMBOL_TAG, 14
        )
        ref_votes, ref_hits = naive_symbol_votes(
            bits, CIPHER, RS_SYMBOL_TAG, 14
        )
        assert ordered(votes) == ordered(ref_votes)
        assert hits == ref_hits

    def test_window_multiset_counts_every_occurrence(self):
        bits = [1, 0, 1, 1] * 40
        windows = window_multiset(bits)
        naive = Counter(w for _, w in sliding_windows(bits, 64))
        assert list(windows.items()) == list(naive.items())
        assert sum(windows.values()) == len(bits) - 63
        assert len(windows) == 4


# -- work counts -------------------------------------------------------------


class CountingCipher(BlockCipher):
    def __init__(self, key):
        super().__init__(key)
        self.decrypts = 0

    def decrypt_block(self, block):
        self.decrypts += 1
        return super().decrypt_block(block)

    def decrypt_blocks(self, blocks):
        blocks = list(blocks)
        self.decrypts += len(blocks)
        return super().decrypt_blocks(blocks)


class TestOneDecryptPerDistinctWindow:
    KEY = WatermarkKey(secret=b"looping", inputs=[27])

    def _bits(self, codec):
        marked = embed(collatz_module(), 0x2BAD, self.KEY,
                       watermark_bits=BITS, codec=codec).module
        return trace_bitstring(marked, self.KEY)

    def _count(self, monkeypatch, codec):
        bits = self._bits(codec)
        cipher = CountingCipher(self.KEY.cipher().key_words)
        monkeypatch.setattr(WatermarkKey, "cipher", lambda _self: cipher)
        result = recognize_bits(bits, self.KEY, BITS, codec=codec)
        assert result.complete and result.value == 0x2BAD
        windows = window_multiset(bits)
        # The loop repeats trace bits, so the saving is real here.
        assert result.windows_inspected == sum(windows.values())
        assert result.distinct_windows == len(windows)
        assert result.distinct_windows < result.windows_inspected
        return cipher.decrypts, len(windows)

    def test_gcrt(self, monkeypatch):
        decrypts, distinct = self._count(monkeypatch, "gcrt")
        assert decrypts == distinct

    def test_rs(self, monkeypatch):
        decrypts, distinct = self._count(monkeypatch, "rs-8")
        assert decrypts == distinct

    def test_hybrid_decrypts_once_for_both_channels(self, monkeypatch):
        decrypts, distinct = self._count(monkeypatch, "hybrid-4")
        assert decrypts == distinct

    def test_hybrid_matches_separate_channel_scans(self):
        bits = self._bits("hybrid-4")
        cipher = self.KEY.cipher()
        result = HybridCodec(4).decode(bits, BITS, cipher)
        gcrt = recover(bits, cipher, ENUM, max_value=1 << BITS)
        _, hits = naive_symbol_votes(bits, cipher, HYBRID_PARITY_TAG, 6)
        assert result.accepted == gcrt.accepted
        assert ordered(result.votes) == ordered(gcrt.votes)
        assert result.candidates_found == gcrt.candidates_found + hits
        assert result.windows_inspected == gcrt.windows_inspected


# -- the site index -----------------------------------------------------------


def _full_trace():
    return run_module(collatz_module(), [27], trace_mode="full").trace


def _blob(trace, module):
    buf = io.StringIO()
    dump_trace(trace, module, buf)
    return buf.getvalue()


def _key_counts(trace):
    return Counter(p.key for p in trace.points)


class TestSiteIndex:
    def test_same_ordered_lists_as_the_linear_scan(self):
        trace = _full_trace()
        table = eligible_sites(trace, collatz_module())
        keys = list(dict.fromkeys(p.key for p in trace.points))
        assert list(_key_counts(trace)) == keys
        assert list(table) == keys
        for key in keys:
            scan = [p for p in trace.points if p.key == key]
            assert trace.site_snapshots(key) == scan
            assert all(a is b for a, b in zip(trace.site_snapshots(key), scan))
            assert _key_counts(trace)[key] == len(scan)
            assert table[key].count == len(scan)
            assert table[key].first_locals == tuple(
                p.locals_snapshot for p in scan[:2]
            )

    def test_returned_list_does_not_alias_the_index(self):
        trace = _full_trace()
        key = trace.points[0].key
        first = trace.site_snapshots(key)
        expected = list(first)
        first.clear()
        assert trace.site_snapshots(key) == expected
        assert trace.site_snapshots(key) is not trace.site_snapshots(key)

    def test_never_stale_after_points_change(self):
        trace = _full_trace()
        key = trace.points[-1].key
        before = trace.site_snapshots(key)
        extra = TracePoint(key, (1, 2), ())
        trace.points.append(extra)
        assert trace.site_snapshots(key) == before + [extra]
        assert _key_counts(trace)[key] == len(before) + 1
        trace.points = trace.points[:1]
        assert trace.site_snapshots(key) == [
            p for p in trace.points if p.key == key
        ]
        trace.points = []
        assert trace.site_snapshots(key) == []
        assert _key_counts(trace) == {}
        assert eligible_sites(trace, collatz_module()) == {}

    def test_threads_sharing_a_trace_see_the_linear_scan(self):
        # The serving daemon's worker threads embed from one prepared
        # site table at once; each copy must come out as a serial one.
        key = WatermarkKey(secret=b"looping", inputs=[27])
        prepared = prepare(collatz_module(), key, BITS)
        marks = range(6)

        def mint(mark):
            return disassemble(embed(
                prepared.module, mark, key, pieces=prepared.pieces,
                watermark_bits=BITS, sites=prepared.sites,
            ).module)

        want = {mark: mint(mark) for mark in marks}
        bad = []

        def worker():
            for mark in marks:
                if mint(mark) != want[mark]:
                    bad.append(mark)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_equality_blob_and_pickle_ignore_the_index(self):
        module = collatz_module()
        trace = run_module(module, [27], trace_mode="full").trace
        twin = run_module(module, [27], trace_mode="full").trace
        blob, pickled = _blob(trace, module), pickle.dumps(trace)
        trace.site_snapshots(trace.points[0].key)
        eligible_sites(trace, module)
        assert trace == twin and twin == trace
        assert _blob(trace, module) == blob
        assert pickle.dumps(trace) == pickled
        clone = pickle.loads(pickled)
        assert _key_counts(clone) == _key_counts(trace)

    def test_prepared_program_pickle_is_unchanged(self):
        key = WatermarkKey(secret=b"looping", inputs=[27])
        prepared = prepare(collatz_module(), key, BITS)
        before = pickle.dumps(prepared)
        table = dict(prepared.sites)
        # Embedding copies reads the shared site table, never writes it.
        for mark in (0x1234, 0x4321):
            embed(prepared.module, mark, key, pieces=prepared.pieces,
                  watermark_bits=BITS, sites=prepared.sites)
        assert prepared.sites == table
        assert pickle.dumps(prepared) == before

