"""Frequency-weighted placement of watermark pieces (Section 3.2).

    "We insert code for each piece in a random location weighted
    inversely with respect to its frequency in the trace. Thus, code
    is less likely to be inserted in program hotspots than in
    infrequently executed code."

A *site* is a traced basic-block boundary (function entry or label)
that executed at least once on the secret input — executing at all is
a hard requirement, otherwise the piece would never reach the trace.
Sites are weighted 1/frequency. The ablation bench
(``benchmarks/test_ablation_placement.py``) swaps in uniform
placement to show why Figure 8(a)'s CaffeineMark curve bends.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

from ..core.errors import EmbeddingError
from ..vm.program import Module
from ..vm.tracing import SiteKey, Trace


class Site(NamedTuple):
    """What embedding reads about one eligible site.

    ``count`` is how often the site ran on the key input (its placement
    weight); ``first_locals`` holds the locals of its first two
    executions at most, the priming and generating runs that
    condition-based pieces are built from.
    """

    count: int
    first_locals: Tuple[Tuple[int, ...], ...]


def eligible_sites(trace: Trace, module: Module) -> Dict[SiteKey, Site]:
    """Trace sites usable for insertion, in first-seen order.

    One pass over the trace points. Sites must belong to a function
    that still exists in the module (defensive for attacked modules);
    every traced site executed at least once.
    """
    counts: Dict[SiteKey, int] = {}
    firsts: Dict[SiteKey, List[Tuple[int, ...]]] = {}
    for point in trace.points:
        seen = counts.get(point.key, 0)
        counts[point.key] = seen + 1
        if seen < 2:
            firsts.setdefault(point.key, []).append(point.locals_snapshot)
    return {
        key: Site(count, tuple(firsts[key]))
        for key, count in counts.items()
        if key.function in module.functions
    }


class SitePicker:
    """Random site selection under a pluggable weighting policy."""

    def __init__(
        self,
        sites: Dict[SiteKey, Site],
        rng: random.Random,
        policy: str = "inverse",
    ):
        if not sites:
            raise EmbeddingError("trace contains no usable insertion sites")
        if policy not in ("inverse", "uniform"):
            raise ValueError(f"unknown placement policy {policy!r}")
        self._rng = rng
        self._keys: List[SiteKey] = sorted(
            sites, key=lambda k: (k.function, k.site)
        )
        if policy == "inverse":
            self._weights = [1.0 / sites[k].count for k in self._keys]
        else:
            self._weights = [1.0] * len(self._keys)
        self._total = sum(self._weights)

    def pick(self) -> SiteKey:
        """Draw one site (with replacement) under the policy."""
        x = self._rng.random() * self._total
        acc = 0.0
        for key, w in zip(self._keys, self._weights):
            acc += w
            if x < acc:
                return key
        return self._keys[-1]

    def pick_many(self, n: int) -> List[SiteKey]:
        return [self.pick() for _ in range(n)]
