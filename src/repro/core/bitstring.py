"""Trace-to-bit-string decoding (paper Section 3.1).

The bit-string corresponding to a trace is defined dynamically, so it
survives static transformations:

    "For each conditional branch instruction i that occurs in the
    trace, we find its first occurrence, and find the block j that
    immediately follows that occurrence in the trace. Then we decode
    the trace into a string of bits by scanning the trace from
    beginning to end and writing down a 0 whenever a conditional branch
    is immediately followed by the same instruction by which it was
    first followed, and a 1 otherwise."

Consequences (all covered by unit/property tests):

* reordering code does not change the string (identity of a branch is
  the branch itself, not its address);
* inverting a branch's sense does not change the string (both the
  first follower and later followers flip together);
* inserting or deleting *non-branch* instructions does not change the
  string;
* adding or removing branches has only *local* effect.

The decoder is substrate-agnostic: it consumes ``(branch, follower)``
pairs, where ``branch`` is any hashable identity of the *static*
conditional branch instruction and ``follower`` any hashable identity
of the trace entry immediately following that execution of the branch.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Bit = int
BranchEvent = Tuple[Hashable, Hashable]


def decode_bits(events: Iterable[BranchEvent]) -> List[Bit]:
    """Decode a sequence of branch events into the trace bit-string.

    The first occurrence of each branch defines its 0-follower and thus
    itself emits a 0; every later occurrence emits 0 if it goes the same
    way and 1 otherwise.
    """
    first_follower: Dict[Hashable, Hashable] = {}
    bits: List[Bit] = []
    for branch, follower in events:
        seen = first_follower.get(branch, _UNSEEN)
        if seen is _UNSEEN:
            first_follower[branch] = follower
            bits.append(0)
        else:
            bits.append(0 if follower == seen else 1)
    return bits


class _Unseen:
    """Sentinel distinct from any follower value (including None)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unseen>"


_UNSEEN = _Unseen()


def bits_to_int_lsb_first(bits: List[Bit]) -> int:
    """Pack bits into an integer, index 0 becoming the least significant.

    This is the convention of the paper's loop generator (Section
    3.2.1), which shifts the piece constant right each iteration and so
    emits the least significant bit first.
    """
    value = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit at index {k} is {b!r}, not 0/1")
        value |= b << k
    return value


def int_to_bits_lsb_first(value: int, width: int) -> List[Bit]:
    """Unpack an integer into ``width`` bits, least significant first."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> k) & 1 for k in range(width)]


def sliding_windows(bits: List[Bit], width: int = 64) -> Iterable[Tuple[int, int]]:
    """Yield ``(offset, packed_window)`` for every width-bit window.

    Used by the recognizer: the embedded pieces may start at any bit
    offset in the trace string, so every alignment is tried. Packing is
    incremental (O(1) per window) so very long traces stay cheap. Every
    bit must be 0 or 1, else ``ValueError`` names the first one that is
    not.
    """
    n = len(bits)
    # Two C-level scans check every bit; only a bad string pays for the
    # Python-level search that names the first offender.
    if bits.count(0) + bits.count(1) != n:
        k, b = next((k, b) for k, b in enumerate(bits) if b not in (0, 1))
        raise ValueError(f"bit at index {k} is {b!r}, not 0/1")
    if n < width:
        return
    window = bits_to_int_lsb_first(bits[:width])
    yield 0, window
    top = width - 1
    for t in range(1, n - width + 1):
        window >>= 1
        window |= bits[t + top] << top
        yield t, window


def window_multiset(bits: Sequence[Bit], width: int = 64) -> Counter:
    """Every distinct width-bit window with its occurrence count.

    Keys are packed windows as :func:`sliding_windows` yields them, in
    first-occurrence order. A hot loop repeats the same trace bits, so
    a recognizer that decrypts each key once and weighs the result by
    its count sees exactly what a per-window loop sees, for a fraction
    of the cipher calls.
    """
    return Counter(packed for _, packed in sliding_windows(list(bits), width))
