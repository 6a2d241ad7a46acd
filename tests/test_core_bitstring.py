"""Tests for the trace bit-string decoder (Section 3.1).

The decoder's defining property is invariance under the static attacks
the paper enumerates: code reordering, branch sense inversion, and
insertion of non-branch instructions. Those invariances are exercised
here abstractly (on event streams); the end-to-end versions on real VM
programs live in tests/test_attacks_bytecode.py.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitstring import (
    bits_to_int_lsb_first,
    decode_bits,
    int_to_bits_lsb_first,
    sliding_windows,
    window_multiset,
)


class TestDecodeBits:
    def test_empty(self):
        assert decode_bits([]) == []

    def test_first_occurrence_is_zero(self):
        assert decode_bits([("b1", "x")]) == [0]

    def test_same_follower_zero_else_one(self):
        events = [("b", "x"), ("b", "x"), ("b", "y"), ("b", "x")]
        assert decode_bits(events) == [0, 0, 1, 0]

    def test_independent_branches(self):
        events = [("a", "x"), ("b", "y"), ("a", "z"), ("b", "y")]
        assert decode_bits(events) == [0, 0, 1, 0]

    def test_none_follower_is_a_value(self):
        events = [("a", None), ("a", None), ("a", "x")]
        assert decode_bits(events) == [0, 0, 1]

    def test_branch_identity_renaming_invariance(self):
        """Renaming branch identities (code reordering) preserves bits."""
        events = [("a", "x"), ("b", "y"), ("a", "y"), ("b", "y")]
        renamed = [(f"moved-{b}", f) for b, f in events]
        assert decode_bits(events) == decode_bits(renamed)

    def test_sense_inversion_invariance(self):
        """Flipping a branch swaps its followers consistently: bits equal."""
        events = [("a", "T"), ("a", "F"), ("a", "T"), ("a", "F")]
        flipped = [("a", {"T": "F", "F": "T"}[f]) for _, f in events]
        assert decode_bits(events) == decode_bits(flipped)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=200
        )
    )
    def test_output_is_bits_and_same_length(self, events):
        bits = decode_bits(events)
        assert len(bits) == len(events)
        assert set(bits) <= {0, 1}

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=100)
    )
    def test_local_effect_of_branch_insertion(self, events):
        """Inserting a fresh branch's events adds bits without altering
        the bits contributed by existing events (the insertion is only
        local, as Section 3.1 claims)."""
        fresh = [("fresh-branch", 0), ("fresh-branch", 1)]
        cut = len(events) // 2
        spliced = events[:cut] + fresh + events[cut:]
        original = decode_bits(events)
        modified = decode_bits(spliced)
        assert modified[:cut] == original[:cut]
        assert modified[cut + len(fresh):] == original[cut:]


class TestBitPacking:
    def test_lsb_first(self):
        assert bits_to_int_lsb_first([0, 1, 0, 1]) == 0b1010
        assert int_to_bits_lsb_first(0b1010, 4) == [0, 1, 0, 1]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int_lsb_first([0, 2])

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits_lsb_first(16, 4)
        with pytest.raises(ValueError):
            int_to_bits_lsb_first(-1, 4)

    @given(st.integers(0, 2**64 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int_lsb_first(int_to_bits_lsb_first(value, 64)) == value


class TestSlidingWindows:
    def test_too_short_yields_nothing(self):
        assert list(sliding_windows([0, 1], 4)) == []

    def test_exact_width(self):
        assert list(sliding_windows([1, 0, 1, 0], 4)) == [(0, 0b0101)]

    def test_offsets_and_values(self):
        bits = [1, 1, 0, 0, 1]
        got = list(sliding_windows(bits, 3))
        assert got == [(0, 0b011), (1, 0b001), (2, 0b100)]

    @given(st.lists(st.integers(0, 1), min_size=64, max_size=300))
    def test_incremental_matches_naive(self, bits):
        naive = [
            (t, bits_to_int_lsb_first(bits[t:t + 64]))
            for t in range(len(bits) - 63)
        ]
        assert list(sliding_windows(bits, 64)) == naive

    def test_rejects_a_non_bit_after_the_first_window(self):
        # A bad bit past the first window must not pack into a window
        # wider than 64 bits.
        bits = [0] * 64 + [2, 1]
        with pytest.raises(ValueError, match="bit at index 64 is 2, not 0/1"):
            window_multiset(bits)
        with pytest.raises(ValueError, match="bit at index 64 is 2, not 0/1"):
            list(sliding_windows(bits, 64))

    @given(st.lists(st.integers(0, 1), max_size=150), st.data())
    def test_names_the_first_non_bit(self, bits, data):
        k = data.draw(st.integers(0, len(bits)))
        bad = data.draw(st.sampled_from([2, -1, 7, "1", None]))
        bits = bits[:k] + [bad] + bits[k:] + [bad]
        with pytest.raises(ValueError, match=f"bit at index {k} is "):
            window_multiset(bits)
