"""The watermark codec protocol.

A codec sits between the watermark integer and the 64-bit blocks the
embedder plants in the trace bit-string. ``encode`` turns a value into
encrypted pieces; ``decode`` turns a candidate trace bit-string back
into a :class:`~repro.core.recovery.RecoveryResult` with a confidence
score. The embedding substrate (site picking, codegen, insertion) is
codec-agnostic: every codec emits opaque 64-bit ciphertext blocks.

Three implementations are registered (see :mod:`repro.codec`):

``gcrt``
    The paper's scheme — Generalized-CRT residue statements with
    majority voting — refactored behind the protocol byte-for-byte
    compatibly with pre-codec embeds. Stays the default.
``rs``
    Reed-Solomon over GF(256) with a tunable ``ec_bytes`` parity
    budget: the watermark is packed into a systematic codeword and
    embedded as position-addressed symbols, surviving loss of up to
    ``ec_bytes`` whole symbols (erasures) or ``ec_bytes // 2``
    corruptions.
``hybrid``
    GCRT residue statements plus RS parity symbols over the packed
    watermark: the GCRT channel narrows the candidate space even when
    coverage is partial, and the parity channel selects among the
    remaining candidates.

Junk-window validation is part of the protocol: every decode is passed
through :func:`validate_recovery`, which demotes any "complete"
recovery whose value falls outside ``[0, 2**watermark_bits)`` — the
phantom-mark guard that previously lived only in the GCRT recognizer
path.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.cipher import BlockCipher
from ..core.enumeration import Statement
from ..core.recovery import RecoveryResult

PIECE_BITS = 64
_MASK48 = (1 << 48) - 1


@dataclass(frozen=True)
class EncodedPiece:
    """One embeddable piece: a 64-bit ciphertext block plus provenance.

    ``statement`` is set for GCRT-channel pieces (the residue statement
    the block encrypts) and ``None`` for position-addressed symbol
    pieces; ``label`` names the piece for placement reports either way.
    """

    block: int
    statement: Optional[Statement]
    label: str


class WatermarkCodec(ABC):
    """Encode a watermark integer into pieces and decode it back."""

    name: str = "abstract"

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string (``resolve_codec(spec)`` round-trips)."""

    @abstractmethod
    def encode(
        self,
        value: int,
        watermark_bits: int,
        piece_count: int,
        cipher: BlockCipher,
        rng: Optional[random.Random] = None,
    ) -> List[EncodedPiece]:
        """Split ``value`` into ``piece_count`` encrypted pieces.

        ``rng`` drives any randomized redundancy layout (the GCRT
        splitter's pair shuffle); codecs that do not randomize must
        leave it untouched so RNG-stream contracts stay stable.
        """

    @abstractmethod
    def decode(
        self,
        bits: Sequence[int],
        watermark_bits: int,
        cipher: BlockCipher,
        use_voting: bool = True,
    ) -> RecoveryResult:
        """Recover the watermark from a candidate trace bit-string.

        ``use_voting`` toggles the GCRT vote prefilter for the ablation
        benches; codecs without a voting stage ignore it. Every decode
        must finish through :func:`validate_recovery`.
        """

    @abstractmethod
    def default_piece_count(self, watermark_bits: int) -> int:
        """Piece count used when the caller does not pass one."""

    @abstractmethod
    def min_piece_count(self, watermark_bits: int) -> int:
        """Smallest piece count from which recovery is possible at all."""

    @abstractmethod
    def success_probability(
        self, watermark_bits: int, pieces: int, piece_loss: float
    ) -> float:
        """P(recovery) when each piece independently dies w.p. ``piece_loss``.

        Must be monotone non-decreasing in ``pieces`` (the redundancy
        planner binary-searches on it).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.spec!r}>"


def validate_recovery(result: RecoveryResult, watermark_bits: int) -> RecoveryResult:
    """Demote phantom recoveries whose value exceeds the mark space.

    A legitimate mark is always below ``2**watermark_bits``, but junk
    windows decrypted under the wrong key occasionally form a mutually
    consistent statement set (or a decodable symbol set) whose combined
    value lands uniformly in a much larger space. Such a "recovery" is
    demoted to incomplete; partial diagnostics (congruence, votes) are
    kept. Idempotent, and applied by every codec's ``decode``.
    """
    if result.complete:
        assert result.value is not None
        if not 0 <= result.value < (1 << watermark_bits):
            result.complete = False
            result.value = None
            result.confidence = 0.0
    return result


def seal_symbol(cipher: BlockCipher, tag: int, pos: int, sym: int) -> int:
    """Encrypt one position-addressed codeword symbol into a 64-bit block.

    Layout of the plaintext block: ``check(48) | pos(8) | sym(8)`` where
    ``check`` is a keyed MAC of ``(tag, pos, sym)``. A random 64-bit
    window survives :func:`open_symbol` with probability about
    ``n / 256 * 2**-48`` — the junk-rejection bar the GCRT enumeration
    range check provides for residue pieces.
    """
    if not 0 <= pos < 256 or not 0 <= sym < 256:
        raise ValueError(f"symbol ({pos}, {sym}) outside GF(256) layout")
    inner = (tag << 16) | (pos << 8) | sym
    check = cipher.encrypt_block(inner) & _MASK48
    return cipher.encrypt_block((check << 16) | (pos << 8) | sym)


def open_symbol(
    cipher: BlockCipher, tag: int, block: int, positions: int
) -> Optional[tuple]:
    """Inverse of :func:`seal_symbol`; ``None`` for junk windows.

    ``positions`` bounds the valid position range (the codeword length
    ``n``), tightening junk rejection beyond the MAC check.
    """
    plain = cipher.decrypt_block(block)
    sym = plain & 0xFF
    pos = (plain >> 8) & 0xFF
    if pos >= positions:
        return None
    inner = (tag << 16) | (pos << 8) | sym
    if cipher.encrypt_block(inner) & _MASK48 != plain >> 16:
        return None
    return pos, sym


def check_symbols(
    cipher: BlockCipher, tag: int, plains: Sequence[int], positions: int
) -> List[Tuple[int, int, int]]:
    """The check of :func:`open_symbol` over many decrypted blocks at once.

    Returns ``(index, pos, sym)`` for each block of ``plains`` that
    opens, in order. The MAC inputs of every block with an in-range
    position are encrypted in one :meth:`~BlockCipher.encrypt_blocks`
    call.
    """
    in_range = [
        (k, plain) for k, plain in enumerate(plains)
        if (plain >> 8) & 0xFF < positions
    ]
    checks = cipher.encrypt_blocks(
        [(tag << 16) | (plain & 0xFFFF) for _, plain in in_range]
    )
    return [
        (k, (plain >> 8) & 0xFF, plain & 0xFF)
        for (k, plain), check in zip(in_range, checks)
        if check & _MASK48 == plain >> 16
    ]


def keyed_mac(cipher: BlockCipher, data: bytes, out_bytes: int) -> bytes:
    """Length-prefixed CBC-MAC over ``data`` with the embedding cipher.

    Binds the decoded payload to the key so an RS decode that lands on
    a wrong-but-valid codeword (possible beyond the error budget) is
    flagged instead of mis-reported.
    """
    state = cipher.encrypt_block(len(data) & ((1 << 64) - 1))
    for k in range(0, len(data), 8):
        chunk = data[k:k + 8].ljust(8, b"\x00")
        state = cipher.encrypt_block(state ^ int.from_bytes(chunk, "big"))
    return state.to_bytes(8, "big")[:out_bytes]
