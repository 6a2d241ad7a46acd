"""Unit and property tests for the XTEA block cipher and KDF."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.cipher import BlockCipher, cipher_for_secret, derive_key

KEY = (0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210)


class TestBlockCipher:
    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            BlockCipher((1, 2, 3))

    def test_rejects_out_of_range_block(self):
        c = BlockCipher(KEY)
        with pytest.raises(ValueError):
            c.encrypt_block(1 << 64)
        with pytest.raises(ValueError):
            c.encrypt_block(-1)
        with pytest.raises(ValueError):
            c.decrypt_block(1 << 64)

    def test_known_permutation_properties(self):
        c = BlockCipher(KEY)
        assert c.encrypt_block(0) != 0
        assert c.encrypt_block(0) != c.encrypt_block(1)

    @given(st.integers(0, 2**64 - 1))
    def test_roundtrip(self, block):
        c = BlockCipher(KEY)
        assert c.decrypt_block(c.encrypt_block(block)) == block
        assert c.encrypt_block(c.decrypt_block(block)) == block

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_injective(self, a, b):
        c = BlockCipher(KEY)
        if a != b:
            assert c.encrypt_block(a) != c.encrypt_block(b)

    def test_key_sensitivity(self):
        c1 = BlockCipher(KEY)
        c2 = BlockCipher((KEY[0] ^ 1,) + KEY[1:])
        diffs = sum(
            1 for v in range(64) if c1.encrypt_block(v) != c2.encrypt_block(v)
        )
        assert diffs == 64

    def test_avalanche(self):
        """Flipping one plaintext bit flips roughly half the output bits."""
        c = BlockCipher(KEY)
        base = c.encrypt_block(0xDEADBEEFCAFEF00D)
        flipped = c.encrypt_block(0xDEADBEEFCAFEF00D ^ 1)
        hamming = bin(base ^ flipped).count("1")
        assert 16 <= hamming <= 48


blocks64 = st.lists(
    st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
    max_size=200,
)


class TestBatchedBlocks:
    """``decrypt_blocks``/``encrypt_blocks`` are the scalar map, batched."""

    @given(blocks64)
    def test_equals_the_scalar_map(self, blocks):
        c = BlockCipher(KEY)
        assert c.decrypt_blocks(blocks) == [c.decrypt_block(b) for b in blocks]
        assert c.encrypt_blocks(blocks) == [c.encrypt_block(b) for b in blocks]

    @given(blocks64)
    def test_roundtrip(self, blocks):
        c = BlockCipher(KEY)
        assert c.decrypt_blocks(c.encrypt_blocks(blocks)) == blocks
        assert c.encrypt_blocks(c.decrypt_blocks(blocks)) == blocks

    @pytest.mark.parametrize("blocks", [
        [],
        [0],
        [2**64 - 1],
        [0, 2**64 - 1, 0, 2**64 - 1],
        [0xDEADBEEFCAFEF00D] * 5,
        list(range(300)) + [2**64 - 1 - k for k in range(300)],
    ])
    def test_edge_cases(self, blocks):
        c = BlockCipher(KEY)
        assert c.decrypt_blocks(blocks) == [c.decrypt_block(b) for b in blocks]
        assert c.encrypt_blocks(blocks) == [c.encrypt_block(b) for b in blocks]

    def test_many_lanes(self):
        # Every lane boundary of a recognition-sized batch carries and
        # borrows correctly.
        rng = random.Random(7)
        blocks = [rng.getrandbits(64) for _ in range(5000)]
        blocks += [0, 2**64 - 1] + blocks[:50]
        c = BlockCipher(KEY)
        assert c.decrypt_blocks(blocks) == [c.decrypt_block(b) for b in blocks]
        assert c.encrypt_blocks(blocks) == [c.encrypt_block(b) for b in blocks]

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_rejects_out_of_range_block(self, bad):
        c = BlockCipher(KEY)
        for batch in (c.decrypt_blocks, c.encrypt_blocks):
            with pytest.raises(ValueError, match="64-bit unsigned"):
                batch([1, bad, 2])
            with pytest.raises(ValueError, match="64-bit unsigned"):
                batch([bad])


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"secret") == derive_key(b"secret")

    def test_distinct_secrets_distinct_keys(self):
        assert derive_key(b"secret-a") != derive_key(b"secret-b")

    def test_empty_secret_allowed(self):
        words = derive_key(b"")
        assert len(words) == 4
        assert all(0 <= w < 2**32 for w in words)

    def test_length_extension_guard(self):
        # A secret and the same secret + padding byte must differ.
        assert derive_key(b"abc") != derive_key(b"abc\x80")

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            derive_key("not-bytes")  # type: ignore[arg-type]

    @given(st.binary(max_size=64))
    def test_words_in_range(self, secret):
        words = derive_key(secret)
        assert len(words) == 4
        assert all(0 <= w < 2**32 for w in words)


def test_cipher_for_secret_roundtrip():
    c = cipher_for_secret(b"pldi-2004")
    assert c.decrypt_block(c.encrypt_block(42)) == 42
