"""Retry policy: capped exponential backoff with deterministic jitter.

One policy object serves every retry loop in the system — the batch
executor resubmitting work lost to a dead worker, and the HTTP client
backing off a 429/503. Delays grow ``base_delay * 2**(attempt-1)`` up
to ``max_delay``, then shrink by a seeded jitter fraction so a fleet
of clients (or a pool of workers) does not retry in lockstep. The
jitter draws from the policy's own :class:`random.Random`, so a given
``(seed, attempt)`` pair always yields the same delay — tests can
assert on schedules instead of sleeping through them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class RetryPolicy:
    """How many times to try, and how long to wait between tries.

    ``max_attempts`` counts *total* attempts including the first
    (``max_attempts=1`` means never retry). ``jitter`` is the fraction
    of each delay that is randomized away: ``0.0`` keeps the raw
    exponential schedule, ``0.5`` uniformly shaves up to half off.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self._rng = random.Random(self.seed)

    def retries_left(self, attempt: int) -> bool:
        """May another attempt follow attempt number ``attempt``?"""
        return attempt < self.max_attempts

    def delay(
        self, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based).

        A server's ``retry_after`` (seconds) wins over a shorter
        private backoff; the jitter draw happens either way, so a
        seeded schedule does not depend on which answers named one.
        """
        if attempt < 1:
            raise ValueError("attempts count from 1")
        raw = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if self.jitter != 0.0:
            raw *= 1.0 - self.jitter * self._rng.random()
        return raw if retry_after is None else max(raw, retry_after)

    def schedule(self) -> List[float]:
        """Every backoff delay the policy would produce, in order.

        Consumes the same RNG stream as :meth:`delay`, so call it on a
        fresh policy (tests) rather than one mid-flight.
        """
        return [self.delay(n) for n in range(1, self.max_attempts)]
