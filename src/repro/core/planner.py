"""Redundancy planning: how many pieces does a deployment need?

The paper leaves the piece count as a knob ("To increase robustness we
make the pieces redundant") and quantifies its effect empirically in
Figures 5 and 8(c). This module closes the loop: given the watermark
width and a threat model — the probability ``q`` that any individual
embedded piece is destroyed — it uses the Eq. (1) machinery to choose
a piece count meeting a target recovery probability.

Model: ``k`` pieces are embedded by cycling through the distinct pair
statements (the splitter's behaviour); a piece survives independently
with probability ``1 - q``; a *statement* (edge of K_n) survives if
any of its copies does; recovery succeeds iff the surviving edges
cover all n moduli. With ``c = k / pairs`` copies per statement the
per-edge deletion probability is ``q**c``, so Eq. (1) applies with
``q_edge = q**copies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import List

from .primes import choose_moduli
from .probability import success_probability_deletion


@dataclass(frozen=True)
class RedundancyPlan:
    """The planner's answer.

    ``codec`` names the redundancy scheme the plan was sized for; the
    moduli/pair fields describe the GCRT channel and are kept for all
    codecs (they still parameterize the hybrid's GCRT share, and are
    informational for pure RS).
    """

    watermark_bits: int
    moduli_count: int
    pair_count: int
    pieces: int
    piece_loss_probability: float
    expected_success: float
    codec: str = "gcrt"


def success_probability_for_pieces(
    n: int, pieces: int, piece_loss: float
) -> float:
    """P(recovery) for ``pieces`` embedded pieces cycled over K_n edges.

    The splitter assigns pieces round-robin over the ``C(n,2)`` edges,
    so each edge gets ``floor`` or ``ceil`` copies; we account for the
    mixture exactly by treating the two edge classes with their own
    survival probabilities and taking the weighted Eq. (1) value at
    the blended edge-deletion rate (the rates differ by one factor of
    ``piece_loss``, so the blend is tight for realistic parameters).
    """
    edges = comb(n, 2)
    if pieces <= 0:
        return 0.0
    base, extra = divmod(pieces, edges)
    # Edge deletion probabilities for the two classes.
    q_low = piece_loss ** (base + 1) if base or extra else 1.0
    q_hi = piece_loss ** base if base else 1.0
    blended = (extra * q_low + (edges - extra) * q_hi) / edges
    return success_probability_deletion(n, blended)


@lru_cache(maxsize=256)
def plan_redundancy(
    watermark_bits: int,
    piece_loss_probability: float,
    target_success: float = 0.99,
    max_pieces: int = 4096,
    codec: str = "gcrt",
) -> RedundancyPlan:
    """Smallest piece count meeting ``target_success`` under the model.

    Raises :class:`ValueError` when the target is unreachable within
    ``max_pieces`` (e.g. piece loss of 1.0).

    ``codec`` selects whose survival model sizes the plan — each codec
    provides a ``success_probability`` monotone in the piece count (the
    hybrid's is a conservative bound, see its docstring), and the
    search also respects the codec's ``min_piece_count``.

    Memoized: the plan is a pure function of its arguments and the
    batch pipeline resolves it once per (width, threat model, codec) no
    matter how many copies are minted; the returned plan is frozen, so
    sharing the instance is safe. ``codec`` must be a spec *string* so
    the cache key stays hashable.
    """
    # Late import: repro.codec depends on core modules; the planner is
    # the one core module that consults codecs, so it binds lazily.
    from ..codec import resolve_codec

    if not 0.0 <= piece_loss_probability < 1.0:
        raise ValueError("piece loss probability must be in [0, 1)")
    if not 0.0 < target_success < 1.0:
        raise ValueError("target success must be in (0, 1)")
    codec_impl = resolve_codec(codec)
    moduli = choose_moduli(watermark_bits)
    n = len(moduli)
    pairs = comb(n, 2)

    def success(pieces: int) -> float:
        return codec_impl.success_probability(
            watermark_bits, pieces, piece_loss_probability
        )

    lo = max(1, codec_impl.min_piece_count(watermark_bits))
    hi = max_pieces
    if success(hi) < target_success:
        raise ValueError(
            f"target {target_success} unreachable with {max_pieces} pieces "
            f"at piece loss {piece_loss_probability}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if success(mid) >= target_success:
            hi = mid
        else:
            lo = mid + 1
    return RedundancyPlan(
        watermark_bits=watermark_bits,
        moduli_count=n,
        pair_count=pairs,
        pieces=lo,
        piece_loss_probability=piece_loss_probability,
        expected_success=success(lo),
        codec=codec_impl.spec,
    )


def plan_table(
    watermark_bits: int,
    losses: List[float],
    target: float = 0.99,
    codec: str = "gcrt",
) -> List[RedundancyPlan]:
    """Plans across a sweep of threat levels (for reports/tools)."""
    return [
        plan_redundancy(watermark_bits, q, target, codec=codec)
        for q in losses
    ]
