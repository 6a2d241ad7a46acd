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
The WVM fast engine decodes the same string inside its traced run loop
(:attr:`repro.vm.tracing.Trace.bits`); :func:`decode_bits` is the
oracle it is checked against, and decodes every other trace.

Recognition reads the string through :func:`window_multiset`, which
packs every 64-bit window at C speed; :func:`sliding_windows` is the
reference scan it is tested against.
"""

from __future__ import annotations

import sys
from array import array
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


def _check_bits(bits: Sequence[Bit]) -> None:
    """Raise ``ValueError`` naming the first element that is not 0/1.

    Two C-level scans check every bit; only a bad string pays for the
    Python-level search that names the first offender.
    """
    if bits.count(0) + bits.count(1) != len(bits):
        k, b = next((k, b) for k, b in enumerate(bits) if b not in (0, 1))
        raise ValueError(f"bit at index {k} is {b!r}, not 0/1")


def sliding_windows(bits: Sequence[Bit], width: int = 64) -> Iterable[Tuple[int, int]]:
    """Yield ``(offset, packed_window)`` for every width-bit window.

    The reference window scan: the embedded pieces may start at any bit
    offset in the trace string, so every alignment is tried. Packing is
    incremental (O(1) per window) so very long traces stay cheap. Every
    bit must be 0 or 1, else ``ValueError`` names the first one that is
    not.
    """
    _check_bits(bits)
    n = len(bits)
    if n < width:
        return
    window = bits_to_int_lsb_first(bits[:width])
    yield 0, window
    top = width - 1
    for t in range(1, n - width + 1):
        window >>= 1
        window |= bits[t + top] << top
        yield t, window


#: Byte 0/1 -> ASCII "0"/"1", for packing a whole bit-string with int().
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")
_WORD = 64
_BIG_ENDIAN = sys.byteorder == "big"


def window_multiset(bits: Sequence[Bit]) -> Counter:
    """Every distinct 64-bit window with its occurrence count.

    Keys are packed windows as :func:`sliding_windows` yields them, in
    first-occurrence order. A hot loop repeats the same trace bits, so
    a recognizer that decrypts each key once and weighs the result by
    its count sees exactly what a per-window loop sees, for a fraction
    of the cipher calls.

    ``bits`` may be a list (or any sequence) of 0/1 or the ``bytes``
    of :attr:`repro.vm.tracing.Trace.bits`; the result is the same.
    Windows are packed at C speed: the whole string becomes one int,
    and its 64 shifts, read back as 64-bit words, hold the windows at
    offsets ``r, r + 64, r + 128, ...`` for each residue ``r``.
    Interleaved into one ``array('Q')`` they are every window in offset
    order, with no Python object per window until they are counted.
    """
    if not isinstance(bits, (bytes, bytearray)):
        bits = list(bits)
    _check_bits(bits)
    n = len(bits)
    if n < _WORD:
        return Counter()
    value = int(bytes(bits)[::-1].translate(_ASCII_BITS), 2)
    count = n - _WORD + 1
    span = 8 * ((n + _WORD - 1) // _WORD)
    windows = array("Q", bytes(8 * count))
    for r in range(min(_WORD, count)):
        words = array("Q", (value >> r).to_bytes(span, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        windows[r::_WORD] = words[:len(range(r, count, _WORD))]
    return Counter(windows)
