"""A 64-bit block cipher for watermark pieces (paper Section 3.2, step B).

    "each piece w_k is put through a block cipher. This step enables us
    to make randomness assumptions about any corrupted data when
    decoding."

The paper does not name its cipher; we implement **XTEA** (Needham &
Wheeler, 1997) from its public specification: a 64-round Feistel-style
cipher with a 128-bit key and 64-bit blocks. XTEA is small enough to
re-implement faithfully and strong enough for the purpose here — making
non-watermark 64-bit windows of the trace bit-string decrypt to values
indistinguishable from uniform, so that the enumeration-range check in
:mod:`repro.core.enumeration` rejects them with high probability.

Keys are derived from the user-facing secret (an arbitrary byte string
or the watermark key object) with :func:`derive_key`, a small
sponge-style KDF built on the cipher itself (Davies-Meyer chaining), so
the library has no external crypto dependencies.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, List, Sequence, Tuple

_MASK32 = 0xFFFFFFFF
_DELTA = 0x9E3779B9
_ROUNDS = 64  # 32 cycles = 64 Feistel rounds, the standard XTEA count.


class BlockCipher:
    """XTEA with a fixed 128-bit key, operating on 64-bit blocks.

    The public interface is integer-based because watermark pieces are
    integers: :meth:`encrypt_block` / :meth:`decrypt_block` map
    ``[0, 2**64)`` bijectively onto itself.
    """

    def __init__(self, key: Sequence[int]):
        key = tuple(int(k) & _MASK32 for k in key)
        if len(key) != 4:
            raise ValueError("XTEA key must be four 32-bit words")
        self._key: Tuple[int, int, int, int] = key  # type: ignore[assignment]
        # Precompute the round-key schedule: the (sum + key-word) values
        # depend only on the key, and recognition decrypts every distinct
        # 64-bit window of a potentially very long trace, so this pays off.
        self._schedule = []
        s = 0
        for _ in range(_ROUNDS // 2):
            first = (s + key[s & 3]) & _MASK32
            s = (s + _DELTA) & _MASK32
            second = (s + key[(s >> 11) & 3]) & _MASK32
            self._schedule.append((first, second))

    @property
    def key_words(self) -> Tuple[int, int, int, int]:
        return self._key  # type: ignore[return-value]

    def encrypt_block(self, block: int) -> int:
        """Encrypt a 64-bit integer block."""
        if not 0 <= block < (1 << 64):
            raise ValueError("block must be a 64-bit unsigned integer")
        v0 = (block >> 32) & _MASK32
        v1 = block & _MASK32
        for first, second in self._schedule:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first)) & _MASK32
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second)) & _MASK32
        return (v0 << 32) | v1

    def decrypt_block(self, block: int) -> int:
        """Decrypt a 64-bit integer block."""
        if not 0 <= block < (1 << 64):
            raise ValueError("block must be a 64-bit unsigned integer")
        v0 = (block >> 32) & _MASK32
        v1 = block & _MASK32
        for first, second in reversed(self._schedule):
            v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second)) & _MASK32
            v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first)) & _MASK32
        return (v0 << 32) | v1

    def encrypt_blocks(self, blocks: Iterable[int]) -> List[int]:
        """:meth:`encrypt_block` over many blocks in one lane-parallel pass."""
        v0, v1, ones, mask, n = _unpack_halves(blocks)
        for first, second in self._schedule:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first * ones)) & mask
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second * ones)) & mask
        return _pack_halves(v0, v1, n)

    def decrypt_blocks(self, blocks: Iterable[int]) -> List[int]:
        """:meth:`decrypt_block` over many blocks in one lane-parallel pass.

        Recognition decrypts every distinct window of a trace; doing it
        as whole-integer operations over all of them at once (see
        :func:`_unpack_halves`) costs a few big-int operations per round
        instead of a Python-level round per block.
        """
        v0, v1, ones, mask, n = _unpack_halves(blocks)
        bias = ones << 32
        for first, second in reversed(self._schedule):
            v1 = (v1 + bias - (
                ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second * ones) & mask
            )) & mask
            v0 = (v0 + bias - (
                ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first * ones) & mask
            )) & mask
        return _pack_halves(v0, v1, n)


def _unpack_halves(blocks: Iterable[int]) -> Tuple[int, int, int, int, int]:
    """Split blocks into lane-packed halves: ``(v0, v1, ones, mask, n)``.

    Lane ``k`` of an integer is its bits ``[64k, 64k + 64)``. ``v0`` and
    ``v1`` hold the high and low 32-bit half of block ``k`` in the low
    half of lane ``k``; ``ones`` has a 1 in every lane, so ``w * ones``
    replicates a 32-bit word into every lane and ``mask`` is
    ``_MASK32`` in every lane.

    The 32 spare bits of a lane absorb ``<< 4`` and the carry of an
    add. A ``>> 5`` spills a neighbour's low bits into a lane's top
    five, which no carry reaches. Masking the round function before a
    subtraction, and every half-round's result, leaves each lane
    holding exactly the scalar's 32-bit value. A subtraction first adds
    ``2**32`` per lane, so no borrow crosses into the next lane.

    Packing goes through ``array('Q')`` in the host's byte order, the
    order ``int.from_bytes(..., sys.byteorder)`` reads it back in.
    """
    try:
        words = array("Q", blocks)
    except OverflowError:
        raise ValueError("block must be a 64-bit unsigned integer") from None
    n = len(words)
    packed = int.from_bytes(words.tobytes(), sys.byteorder)
    ones = int.from_bytes(array("Q", [1]).tobytes() * n, sys.byteorder)
    mask = ones * _MASK32
    return (packed >> 32) & mask, packed & mask, ones, mask, n


def _pack_halves(v0: int, v1: int, n: int) -> List[int]:
    """Inverse of :func:`_unpack_halves`: the ``n`` blocks as a list."""
    words = array("Q")
    words.frombytes(((v0 << 32) | v1).to_bytes(8 * n, sys.byteorder))
    return words.tolist()


def derive_key(secret: bytes) -> Tuple[int, int, int, int]:
    """Derive a 128-bit XTEA key from an arbitrary byte string.

    Davies-Meyer construction over XTEA: absorb the secret in 8-byte
    blocks through two independently-seeded chains, then finalize. Not
    a general-purpose hash — merely a deterministic, well-mixed mapping
    from user secrets to cipher keys with no external dependencies.
    """
    if not isinstance(secret, (bytes, bytearray)):
        raise TypeError("secret must be bytes")
    padded = bytes(secret) + b"\x80"
    while len(padded) % 8 != 0:
        padded += b"\x00"
    # Length-extension guard: append the original length as a block.
    padded += len(secret).to_bytes(8, "big")

    chains = [0x0123456789ABCDEF, 0xFEDCBA9876543210,
              0xA5A5A5A55A5A5A5A, 0x3C3C3C3CC3C3C3C3]
    for i in range(0, len(padded), 8):
        m = int.from_bytes(padded[i:i + 8], "big")
        for c in range(4):
            key_words = (
                (chains[c] >> 32) & _MASK32,
                chains[c] & _MASK32,
                (chains[(c + 1) % 4] >> 32) & _MASK32,
                (c * 0x9E3779B9) & _MASK32,
            )
            enc = BlockCipher(key_words).encrypt_block(m)
            chains[c] ^= enc
    return (
        (chains[0] ^ chains[2]) & _MASK32,
        ((chains[0] ^ chains[2]) >> 32) & _MASK32,
        (chains[1] ^ chains[3]) & _MASK32,
        ((chains[1] ^ chains[3]) >> 32) & _MASK32,
    )


def cipher_for_secret(secret: bytes) -> BlockCipher:
    """Convenience: build the block cipher used for a given secret key."""
    return BlockCipher(derive_key(secret))
