"""Hybrid codec: GCRT residue statements rescued by RS parity symbols.

The GCRT channel degrades *gracefully* — even when voting and the
consistency graphs cannot cover every modulus, the surviving
statements pin the watermark to ``W = v (mod M)``, leaving only
``ceil(2**bits / M)`` candidates. The RS channel carries an
independent, position-addressed signal. The hybrid embeds both:

* a GCRT share — residue statements exactly as the ``gcrt`` codec
  (same splitter, same enumeration, same encryption), and
* a parity share — the ``ec_bytes`` Reed-Solomon parity symbols of the
  packed watermark, sealed under a hybrid-specific tag so the channels
  cannot cross-talk.

Decoding decrypts each distinct trace window once for both channels
and runs the full GCRT pipeline first. A complete in-range recovery
wins outright (parity agreement folds into ``confidence``).
Otherwise the candidate set of the partial congruence — or, for mark
spaces up to ``MAX_CANDIDATES``, the whole space — is scored against
the collected parity symbols; only a *unique* candidate matching
*every* collected symbol is accepted. Parity symbols are individually
MAC-sealed (forging one requires the key), and the uniqueness rule
fails safe: an ambiguous match reports nothing rather than guessing.
This is the regime where pure GCRT voting fails and the hybrid still
answers — the fig5/fig8c codec sweeps exercise exactly that window.

Unlike the pure ``rs`` codec the parity word carries no embedded MAC
bytes: candidate scoring recomputes the parity of every candidate
(cheap GF(256) work), and a keyed MAC inside the codeword would make
that loop two orders of magnitude more expensive for no extra safety —
acceptance already requires full agreement with key-sealed symbols.

The piece budget is split deterministically: half to parity, capped at
two copies per parity symbol, with GCRT coverage restored first.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cipher import BlockCipher
from ..core.crt import Congruence
from ..core.enumeration import StatementEnumeration
from ..core.primes import choose_moduli
from ..core.recovery import (
    RecoveryResult,
    decode_candidates,
    open_windows,
    recover_candidates,
)
from ..core.splitting import split
from .base import EncodedPiece, WatermarkCodec, seal_symbol, validate_recovery
from .gf256 import rs_encode
from .rs import elect_symbols, symbol_votes

HYBRID_PARITY_TAG = 0x4859  # "HY"
DEFAULT_EC_BYTES = 4
MAX_CANDIDATES = 1 << 16
MIN_PARITY_MATCHES = 2
MIN_BLIND_MATCHES = 3


class HybridCodec(WatermarkCodec):
    """GCRT statements plus RS parity over the packed watermark."""

    name = "hybrid"

    def __init__(self, ec_bytes: int = DEFAULT_EC_BYTES):
        if ec_bytes < MIN_PARITY_MATCHES:
            raise ValueError(
                f"ec_bytes must be at least {MIN_PARITY_MATCHES} for the "
                "parity channel to discriminate candidates"
            )
        self.ec_bytes = ec_bytes

    @property
    def spec(self) -> str:
        return f"hybrid-{self.ec_bytes}"

    def layout(self, watermark_bits: int) -> Tuple[int, int]:
        """``(data_bytes, n)``: codeword is ``data | parity(ec_bytes)``."""
        data_bytes = max(1, (watermark_bits + 7) // 8)
        n = data_bytes + self.ec_bytes
        if n > 255:
            raise ValueError(
                f"{watermark_bits}-bit marks with ec_bytes={self.ec_bytes} "
                f"need a {n}-symbol codeword; GF(256) caps at 255"
            )
        return data_bytes, n

    def parity_of(self, value: int, watermark_bits: int) -> List[int]:
        data_bytes, _ = self.layout(watermark_bits)
        data = list(value.to_bytes(data_bytes, "big"))
        return rs_encode(data, self.ec_bytes)[data_bytes:]

    def split_budget(self, watermark_bits: int, piece_count: int) -> Tuple[int, int]:
        """``(gcrt_pieces, parity_pieces)`` for a total budget.

        Half the budget goes to parity, capped at two copies per parity
        symbol; GCRT minimum coverage is restored first if the split
        would starve it.
        """
        r = len(choose_moduli(watermark_bits))
        parity = min(2 * self.ec_bytes, piece_count // 2)
        gcrt = piece_count - parity
        if gcrt < r - 1:
            gcrt = min(piece_count, r - 1)
            parity = piece_count - gcrt
        return gcrt, parity

    def encode(
        self,
        value: int,
        watermark_bits: int,
        piece_count: int,
        cipher: BlockCipher,
        rng: Optional[random.Random] = None,
    ) -> List[EncodedPiece]:
        moduli = choose_moduli(watermark_bits)
        gcrt_count, parity_count = self.split_budget(watermark_bits, piece_count)
        statements = split(value, moduli, gcrt_count, rng)
        enumeration = StatementEnumeration(moduli)
        pieces = [
            EncodedPiece(
                block=cipher.encrypt_block(enumeration.encode(stmt)),
                statement=stmt,
                label=f"gcrt[{stmt.i},{stmt.j}]",
            )
            for stmt in statements
        ]
        data_bytes, _ = self.layout(watermark_bits)
        parity = self.parity_of(value, watermark_bits)
        for k in range(parity_count):
            slot = k % self.ec_bytes
            pos = data_bytes + slot
            pieces.append(
                EncodedPiece(
                    block=seal_symbol(cipher, HYBRID_PARITY_TAG, pos, parity[slot]),
                    statement=None,
                    label=f"parity[{pos}]",
                )
            )
        return pieces

    def _candidates(
        self, congruence: Optional[Congruence], watermark_bits: int
    ) -> Optional[range]:
        """Values under ``2**bits`` satisfying the partial congruence."""
        limit = 1 << watermark_bits
        if congruence is None or congruence.modulus <= 1:
            return None
        modulus = congruence.modulus
        if -(-limit // modulus) > MAX_CANDIDATES:
            return None
        return range(congruence.value % modulus, limit, modulus)

    def _score_candidates(
        self,
        candidates: Sequence[int],
        parity: Dict[int, int],
        watermark_bits: int,
    ) -> Optional[int]:
        """The unique candidate matching every collected parity symbol."""
        match: Optional[int] = None
        for value in candidates:
            word = self.parity_of(value, watermark_bits)
            if all(word[slot] == sym for slot, sym in parity.items()):
                if match is not None:
                    return None
                match = value
        return match

    def decode(
        self,
        bits: Sequence[int],
        watermark_bits: int,
        cipher: BlockCipher,
        use_voting: bool = True,
    ) -> RecoveryResult:
        # One window scan, and one decryption per distinct window, feed
        # both the GCRT statements and the parity symbols.
        moduli = choose_moduli(watermark_bits)
        plaintexts = open_windows(bits, cipher)
        candidates = decode_candidates(plaintexts, StatementEnumeration(moduli))
        result = recover_candidates(candidates, plaintexts, moduli, use_voting,
                                    max_value=1 << watermark_bits)
        result.codec = self.spec
        data_bytes, n = self.layout(watermark_bits)
        votes, parity_hits = symbol_votes(plaintexts, cipher, HYBRID_PARITY_TAG, n)
        # Collected ``parity slot -> symbol`` map.
        parity = {
            pos - data_bytes: sym
            for pos, sym in elect_symbols(votes).items()
            if pos >= data_bytes
        }
        result.candidates_found += parity_hits
        # Demote a phantom "complete" (junk statements can cover every
        # modulus) before deciding which channel answers.
        validate_recovery(result, watermark_bits)

        if result.complete:
            assert result.value is not None
            if parity:
                word = self.parity_of(result.value, watermark_bits)
                matched = sum(
                    1 for slot, sym in parity.items() if word[slot] == sym
                )
                result.confidence = (1.0 + matched / len(parity)) / 2.0
            return result

        # Partial GCRT information: enumerate the congruence's candidate
        # set and let the parity symbols pick the mark.
        rescued: Optional[int] = None
        if len(parity) >= MIN_PARITY_MATCHES:
            candidates = self._candidates(result.congruence, watermark_bits)
            if candidates is not None:
                rescued = self._score_candidates(candidates, parity, watermark_bits)
        # No usable congruence (all statements lost, or a junk one): for
        # small mark spaces, scan the whole space — the stricter match
        # minimum keeps the false-accept expectation below 1e-2 even at
        # the full 2**16 candidate cap.
        if (
            rescued is None
            and len(parity) >= MIN_BLIND_MATCHES
            and (1 << watermark_bits) <= MAX_CANDIDATES
        ):
            rescued = self._score_candidates(
                range(1 << watermark_bits), parity, watermark_bits
            )
        if rescued is not None:
            result.complete = True
            result.value = rescued
            result.confidence = len(parity) / self.ec_bytes
        return validate_recovery(result, watermark_bits)

    def default_piece_count(self, watermark_bits: int) -> int:
        # The full GCRT default plus two copies of every parity symbol,
        # so the GCRT channel is never weaker than a default pure-GCRT
        # embed of the same mark.
        r = len(choose_moduli(watermark_bits))
        return 2 * r + 2 * self.ec_bytes

    def min_piece_count(self, watermark_bits: int) -> int:
        return len(choose_moduli(watermark_bits)) - 1

    def success_probability(
        self, watermark_bits: int, pieces: int, piece_loss: float
    ) -> float:
        """Conservative bound: the GCRT channel alone, on its share.

        The parity-rescue channel only adds success mass on top of
        this, so plans sized from the bound are safe (never too few
        pieces); modelling the rescue exactly would couple the two
        channels' loss patterns.
        """
        from ..core.planner import success_probability_for_pieces

        gcrt_count, _ = self.split_budget(watermark_bits, pieces)
        n = len(choose_moduli(watermark_bits))
        return success_probability_for_pieces(n, gcrt_count, piece_loss)
