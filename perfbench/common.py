"""Shared pieces of the benchmark: op outcomes, seeded streams, statistics.

Every workload module (``wl_mint``, ``wl_serve``, ``wl_native``) exposes
the same small interface, which :mod:`run` drives:

* ``NAME``, ``SETUP_REPEATS`` and ``CYCLE_SECONDS`` (the nominal length
  of one op cycle in seconds at the reference host speed of
  :mod:`hostspeed`, which sizes a run);
* ``setup(seed, workdir) -> state`` and ``close(state)``;
* ``cycle(state, c) -> [Op]``: the seeded ops of cycle ``c``;
* ``verify(state, records)``: the checks too slow for the timed loop,
  run after it; returns each marked copy's code and step growth in
  percent, whose medians are ``code_growth_pct`` and ``step_growth_pct``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


def seeded(*parts: Any) -> random.Random:
    """A deterministic RNG stream named by ``parts`` (workload, seed, ...).

    String seeds hash through SHA-512, so the stream is the same in
    every process and on every platform.
    """
    return random.Random("/".join(str(p) for p in parts))


@dataclass
class Outcome:
    """What one op did, as judged by the benchmark.

    ``failed`` follows the failure rule: an HTTP error, a timeout, a
    clean copy not recovered exactly, a self-check or output mismatch,
    or a native extract that misses. ``false_mark`` is any reported mark
    that is not the one embedded (or any mark on a negative); it makes
    the whole run incorrect. ``keep`` carries the op's output to
    ``verify``.
    """

    failed: bool = False
    false_mark: bool = False
    wrong_output: bool = False
    recovered: Optional[bool] = None  # attacked suspects only
    status: Optional[int] = None  # HTTP status, serve only
    response_bytes: int = 0
    note: str = ""
    keep: Any = None


@dataclass
class Op:
    """One unit of closed-loop work: ``run()`` performs it and judges it."""

    kind: str
    program: str
    release: str
    run: Callable[[], Outcome]
    negative: bool = False
    attacked: bool = False
    codec: Optional[str] = None  # the codec recognition decodes with


@dataclass
class OpRecord:
    """An executed op: its wall-clock latency, its outcome, (traced) its
    layer stats and the index of the host-speed probe taken before it."""

    op: Op
    seconds: float
    outcome: Outcome
    cycle: int
    stats: Any = None
    probe: int = 0


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the op-latency tail.

    The tail is the highest percentile that still has at least ten
    samples beyond it: the eleventh-largest latency. With ten or fewer
    samples no percentile qualifies, and the maximum is reported with
    zero samples beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def growth_pct(marked: int, unmarked: int) -> float:
    return 100.0 * (marked - unmarked) / unmarked
