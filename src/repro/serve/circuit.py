"""A per-route circuit breaker for the serving daemon's local jobs.

When a route's worker jobs start dying in a row — a poisoned artifact
that segfaults every worker, a pool that cannot be rebuilt, a machine
out of memory — continuing to queue requests onto it just burns the
queue and multiplies the damage. The breaker watches consecutive
failures per route and trips *open* after ``threshold`` of them: from
then on requests fail fast with ``503`` (plus a ``Retry-After`` hint)
without ever touching the pool. After ``reset_after`` seconds one
probe request is let through (*half-open*); its success closes the
circuit, its failure re-opens it for another full window.

The clock is injectable so tests drive the state machine with a fake
instead of sleeping through reset windows. State transitions feed the
ambient metrics registry
(``repro_http_circuit_transitions_total{route,state}``) — unless the
owner supplies ``on_transition``, which replaces the route-flavoured
telemetry entirely. That is how the fleet's per-worker health state
machine (:class:`~repro.serve.dispatch.HealthMonitor`) reuses these
exact semantics while reporting in worker vocabulary instead.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..obs.journal import emit as emit_event
from ..obs.metrics import get_registry

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker: closed -> open -> half-open -> ...

    ``allow()`` asks permission before dispatching; ``record_success``
    / ``record_failure`` report how the dispatch went. Each ``allow()``
    that returned True owes exactly one report: a half-open probe that
    never reports keeps every later caller out, so an owner asks only
    once nothing else can refuse the request. The breaker is
    not thread-safe by itself: its owners call it under their own lock
    (:class:`~repro.serve.dispatch.LocalDispatcher` from submitting
    threads and pool callbacks, :class:`~repro.serve.dispatch.
    HealthMonitor` from the prober and send threads).
    """

    def __init__(
        self,
        threshold: int = 5,
        reset_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
        on_transition: Optional[Callable[[str], None]] = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if reset_after <= 0:
            raise ValueError("reset_after must be positive")
        self.threshold = threshold
        self.reset_after = reset_after
        self.name = name
        self._on_transition = on_transition
        self._clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed reset window."""
        if self._state == OPEN and self._window_elapsed():
            return HALF_OPEN
        return self._state

    @property
    def failures(self) -> int:
        return self._failures

    def _window_elapsed(self) -> bool:
        return self._clock() - self._opened_at >= self.reset_after

    def _transition(self, state: str) -> None:
        self._state = state
        if self._on_transition is not None:
            self._on_transition(state)
            return
        get_registry().counter(
            "repro_http_circuit_transitions_total",
            "Circuit breaker state transitions",
        ).inc(route=self.name or "-", state=state)
        emit_event("circuit", self.name or "-",
                   route=self.name or "-", state=state)

    def allow(self) -> bool:
        """May a request dispatch right now?

        In the open state this is the fast-fail path; once the reset
        window elapses exactly one caller gets True (the half-open
        probe) until its outcome is recorded.
        """
        if self._state == CLOSED:
            return True
        if self._state == OPEN and self._window_elapsed():
            self._transition(HALF_OPEN)
            self._probing = True
            return True
        if self._state == HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._probing = False
        if self._state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self._probing = False
        if self._state == HALF_OPEN:
            # The probe failed: back to a full open window.
            self._failures = self.threshold
            self._opened_at = self._clock()
            self._transition(OPEN)
            return
        self._failures += 1
        if self._state == CLOSED and self._failures >= self.threshold:
            self._opened_at = self._clock()
            self._transition(OPEN)

    def retry_after(self) -> float:
        """Seconds until the next half-open probe (>= 0)."""
        if self._state == CLOSED:
            return 0.0
        return max(0.0, self._opened_at + self.reset_after - self._clock())
