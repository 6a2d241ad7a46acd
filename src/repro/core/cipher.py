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

from typing import Sequence, Tuple

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
