"""Reed-Solomon watermark codec (position-addressed codeword symbols).

Layout: the watermark is packed big-endian into ``data_bytes =
ceil(bits / 8)`` symbols, extended with a 4-byte keyed MAC (so a decode
that lands on a wrong-but-valid codeword is flagged, not mis-reported),
and RS-encoded with ``ec_bytes`` parity symbols:

    codeword = [ data | mac(4) | parity(ec_bytes) ]      n <= 255

Each embedded piece carries one ``(position, symbol)`` pair sealed by
:func:`~repro.codec.base.seal_symbol` — a 48-bit keyed check inside the
encrypted block gives junk windows an acceptance probability around
``n / 2**56``, matching the GCRT enumeration range check's role.
``piece_count`` pieces cycle round-robin over the ``n`` positions, so
extra budget becomes extra copies per symbol (majority-voted at
decode; a tied vote erases the position rather than guessing).

Decoding collects per-position votes from every 64-bit trace window
(each distinct window decrypted once, its vote weighed by its count),
erases missing/ambiguous positions, runs errors-and-erasures RS
correction, and accepts only if the MAC re-verifies. ``confidence`` is
the fraction of codeword symbols recovered clean (no erasure, no
correction).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cipher import BlockCipher
from ..core.recovery import RecoveryResult, open_windows
from .base import (
    EncodedPiece,
    WatermarkCodec,
    check_symbols,
    keyed_mac,
    seal_symbol,
    validate_recovery,
)
from .gf256 import RSDecodeError, rs_correct, rs_encode

RS_SYMBOL_TAG = 0x5253  # "RS"
MAC_BYTES = 4
DEFAULT_EC_BYTES = 8


def symbol_votes(
    plaintexts: Counter, cipher: BlockCipher, tag: int, positions: int
) -> Tuple[Dict[int, Counter], int]:
    """Tally ``(position -> symbol votes)`` over decrypted trace windows.

    ``plaintexts`` maps each distinct decrypted window to its occurrence
    count (:func:`~repro.core.recovery.open_windows`), and every vote
    carries that count. Returns ``(votes, hits)``. Shared with the
    hybrid codec, which seals its parity symbols under a different tag.
    """
    counts = list(plaintexts.values())
    votes: Dict[int, Counter] = {}
    hits = 0
    for k, pos, sym in check_symbols(cipher, tag, list(plaintexts), positions):
        votes.setdefault(pos, Counter())[sym] += counts[k]
        hits += counts[k]
    return votes, hits


def elect_symbols(votes: Dict[int, Counter]) -> Dict[int, int]:
    """Plurality winner per position; tied positions are dropped.

    A tie means the trace contains equal support for two symbol values
    at one position (only possible under active forgery or extreme
    corruption) — treating it as an erasure keeps RS honest instead of
    letting dict ordering pick a winner.
    """
    elected: Dict[int, int] = {}
    for pos, tally in votes.items():
        ranked = tally.most_common(2)
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            continue
        elected[pos] = ranked[0][0]
    return elected


class ReedSolomonCodec(WatermarkCodec):
    """RS(n, data+mac) over GF(256) with a tunable parity budget."""

    name = "rs"

    def __init__(self, ec_bytes: int = DEFAULT_EC_BYTES):
        if ec_bytes < 2:
            raise ValueError("ec_bytes must be at least 2")
        self.ec_bytes = ec_bytes

    @property
    def spec(self) -> str:
        return f"rs-{self.ec_bytes}"

    def layout(self, watermark_bits: int) -> Tuple[int, int]:
        """``(data_bytes, n)`` for a given mark width."""
        data_bytes = max(1, (watermark_bits + 7) // 8)
        n = data_bytes + MAC_BYTES + self.ec_bytes
        if n > 255:
            raise ValueError(
                f"{watermark_bits}-bit marks with ec_bytes={self.ec_bytes} "
                f"need a {n}-symbol codeword; GF(256) caps at 255"
            )
        return data_bytes, n

    def codeword(self, value: int, watermark_bits: int, cipher: BlockCipher) -> List[int]:
        data_bytes, _ = self.layout(watermark_bits)
        data = value.to_bytes(data_bytes, "big")
        mac = keyed_mac(cipher, data, MAC_BYTES)
        return rs_encode(list(data + mac), self.ec_bytes)

    def encode(
        self,
        value: int,
        watermark_bits: int,
        piece_count: int,
        cipher: BlockCipher,
        rng: Optional[random.Random] = None,
    ) -> List[EncodedPiece]:
        if piece_count < self.min_piece_count(watermark_bits):
            raise ValueError(
                f"{piece_count} pieces cannot reach the RS erasure bound; "
                f"need at least {self.min_piece_count(watermark_bits)}"
            )
        _, n = self.layout(watermark_bits)
        word = self.codeword(value, watermark_bits, cipher)
        return [
            EncodedPiece(
                block=seal_symbol(cipher, RS_SYMBOL_TAG, k % n, word[k % n]),
                statement=None,
                label=f"rs[{k % n}]",
            )
            for k in range(piece_count)
        ]

    def decode(
        self,
        bits: Sequence[int],
        watermark_bits: int,
        cipher: BlockCipher,
        use_voting: bool = True,
    ) -> RecoveryResult:
        data_bytes, n = self.layout(watermark_bits)
        plaintexts = open_windows(bits, cipher)
        votes, hits = symbol_votes(plaintexts, cipher, RS_SYMBOL_TAG, n)
        elected = elect_symbols(votes)
        result = RecoveryResult(
            complete=False,
            value=None,
            congruence=None,
            windows_inspected=sum(plaintexts.values()),
            distinct_windows=len(plaintexts),
            candidates_found=hits,
            candidates_after_voting=sum(
                votes[pos].most_common(1)[0][1] for pos in elected
            ),
            votes={pos: Counter(t) for pos, t in votes.items()},
            clear_winners=dict(elected),
            codec=self.spec,
        )
        erasures = [pos for pos in range(n) if pos not in elected]
        if len(erasures) > self.ec_bytes:
            return result
        word = [elected.get(pos, 0) for pos in range(n)]
        try:
            corrected, errata = rs_correct(word, self.ec_bytes, erase_pos=erasures)
        except RSDecodeError:
            return result
        data = bytes(corrected[:data_bytes])
        mac = bytes(corrected[data_bytes:data_bytes + MAC_BYTES])
        if keyed_mac(cipher, data, MAC_BYTES) != mac:
            return result
        result.complete = True
        result.value = int.from_bytes(data, "big")
        result.confidence = (n - len(errata)) / n
        return validate_recovery(result, watermark_bits)

    def default_piece_count(self, watermark_bits: int) -> int:
        # Two copies of every codeword symbol, mirroring the GCRT
        # default of twice the minimum-coverage budget.
        _, n = self.layout(watermark_bits)
        return 2 * n

    def min_piece_count(self, watermark_bits: int) -> int:
        # Round-robin assignment reaches ``pieces`` distinct positions,
        # and RS tolerates at most ``ec_bytes`` erased positions.
        _, n = self.layout(watermark_bits)
        return n - self.ec_bytes

    def success_probability(
        self, watermark_bits: int, pieces: int, piece_loss: float
    ) -> float:
        """P(at most ``ec_bytes`` positions lose every copy).

        Pieces cycle round-robin, so positions split into two classes
        (``base + 1`` vs ``base`` copies); position survival is
        independent and the erasure count is a sum of two binomials.
        Symbol *corruption* is neglected: the 48-bit sealed check makes
        a wrong accepted symbol astronomically unlikely, so loss — not
        corruption — is the operative threat model (ties that erase a
        position are already covered by treating it as lost).
        """
        from math import comb

        _, n = self.layout(watermark_bits)
        if pieces <= 0:
            return 0.0
        base, extra = divmod(pieces, n)
        q_extra = piece_loss ** (base + 1)
        q_base = piece_loss ** base if base else 1.0
        total = 0.0
        for a in range(extra + 1):
            if a > self.ec_bytes:
                break
            p_a = comb(extra, a) * q_extra ** a * (1 - q_extra) ** (extra - a)
            for b in range(n - extra + 1):
                if a + b > self.ec_bytes:
                    break
                p_b = (
                    comb(n - extra, b)
                    * q_base ** b
                    * (1 - q_base) ** (n - extra - b)
                )
                total += p_a * p_b
        return total
