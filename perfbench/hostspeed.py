"""How fast the host runs Python right now, measured between ops.

The benchmark shares a few cores of a busy host, whose speed flips at
sub-second scale and drifts by up to about 2x over minutes as its
neighbours' load comes and goes; a wall-clock run that happens to fall
in a slow phase reads as a regression. :func:`probe` times a fixed
piece of pure-Python work of the kind the program does (32-bit
block-cipher rounds, lookups in a tuple-keyed dict of a few MB, an
integer loop), which does not touch the program. :class:`SpeedLog`
keeps a run's probe samples in order, and :meth:`SpeedLog.adjust`
turns a wall time into seconds at the reference speed: the wall time
scaled by ``REFERENCE_PROBE_S`` over the samples taken around it. A
change that makes the program faster or slower moves the adjusted time
by the same share as the wall time; a change of host speed moves the
probe too and cancels out.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import List

#: About the probe's median time on the reference host (2 vCPUs of a
#: shared x86-64 host, CPython 3.11). Adjusted seconds are wall seconds
#: on a host running the probe in this time.
REFERENCE_PROBE_S = 0.025

# The sizes of the probe's three parts, which take roughly equal shares
# of it.
BLOCKS = 250
TABLE = 60000
LOOP = 100000


def _rounds(v0: int, v1: int) -> int:
    """32 rounds of a 64-bit Feistel cipher on 32-bit halves."""
    key = (0x9E3779B9, 0x7F4A7C15, 0x85EBCA6B, 0xC2B2AE35)
    total = 0
    for _ in range(32):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1)
                    ^ (total + key[total & 3]))) & 0xFFFFFFFF
        total = (total + 0x9E3779B9) & 0xFFFFFFFF
        v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0)
                    ^ (total + key[(total >> 11) & 3]))) & 0xFFFFFFFF
    return (v0 << 32) | v1


# The dict the probe reads, built once so that the probe allocates
# almost nothing: its time must not depend on the state of the heap,
# which the program's own allocations change.
_BLOCKS = [_rounds(i, 0x5EED) for i in range(BLOCKS)]
_TABLE = {
    ((i * 7919) % 30011, i & 7): _BLOCKS[i % BLOCKS] for i in range(TABLE)
}
_KEYS = [((i * 7919) % 30011, i & 7) for i in range(0, TABLE, 2)]


def _work() -> int:
    acc = 0
    for i in range(BLOCKS):
        acc ^= _rounds(i, acc & 0xFFFFFFFF)
    for key in _KEYS:
        acc ^= _TABLE[key]
    for i in range(LOOP):
        acc += i * i % 7
    return acc


def probe() -> float:
    """Seconds one fixed piece of pure-Python work takes right now.

    The collector is off while it runs, so the program's heap, whose
    size a change to the program may alter, does not enter the time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


probe()  # the first call warms the caches; it is not a sample


class SpeedLog:
    """The probe samples of one run, in the order they were taken.

    A sample is taken before every timed span and once after the last.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def mark(self, repeats: int = 1) -> int:
        """Take a sample, the median of ``repeats`` probes; returns its
        index. Set-up, timed a few times per run, takes several."""
        self.samples.append(statistics.median(probe() for _ in range(repeats)))
        return len(self.samples) - 1

    def adjust(self, seconds: float, index: int) -> float:
        """The wall time of the span that began right after sample
        ``index``, in seconds at the reference speed. The host's speed
        is taken as the median of the two samples before the span and
        the two after it, so one disturbed sample does not count."""
        near = self.samples[max(0, index - 1):index + 3]
        return seconds * REFERENCE_PROBE_S / statistics.median(near)
