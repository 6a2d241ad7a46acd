"""Service-level objectives evaluated over the telemetry journal.

The paper measures the watermark with explicit, numeric criteria —
recovery probability per attack cell, slowdown per benchmark — and
this module applies the same discipline to the service around it. An
:class:`Objective` is a declarative statement of acceptable behavior
("p95 embed latency under 30 s", "recognition recovery at least
99%"), an :class:`SLOStatus` is that statement judged against a
window of journal events, and :class:`SLOEngine` runs a whole set of
objectives — in the daemon (``/v1/obs/slo`` and ``/healthz``), in the
``repro obs slo`` CLI gate, and in CI, where an injected fault plan
must flip the gate to failing.

Objective kinds
---------------

Each kind is one row of :data:`_KINDS`: p95 of ``seconds`` on HTTP
requests (``latency_p95``) or fleet sends (``dispatch_p95``); the
fraction of HTTP requests with status >= 500 (``error_rate``) or of
*terminal* fleet dispatches not ``ok`` (``fleet_error_rate``;
``requeued`` and ``superseded`` sends are the self-healing machinery
at work and do not count); the fraction of complete recognitions
(``recovery_rate``, at least the target); and the summed ``count`` of
batch retries (``retry_budget``). The burn rate is spend over
allowance: samples over a p95 target against a 5% tail allowance, a
rate against its target, a miss rate against ``1 - target``. Only the
HTTP and fleet kinds filter by ``route``; a route on another kind is a
spec error.

An objective with no events in its window reports ``no data`` and
counts as met — absence of traffic is not an outage — but carries
``samples == 0`` so dashboards can tell the two apart.

Specs are JSON documents (``{"objectives": [{...}, ...]}``) so a
deployment can pin its own targets; :func:`default_objectives` is the
set the daemon and CI gate use out of the box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .journal import Event

__all__ = [
    "Objective",
    "SLOStatus",
    "SLOEngine",
    "default_objectives",
    "evaluate_objectives",
    "load_objectives",
    "percentile",
]

#: Tail allowance for latency objectives: up to this fraction of
#: requests may exceed the p95 target before the burn rate passes 1.
_LATENCY_ALLOWANCE = 0.05


@dataclass(frozen=True)
class _Kind:
    """How one objective kind reads the journal and judges it.

    ``shape`` is one of ``p95`` (p95 of ``seconds`` at most the
    target), ``bad`` (fraction of ``hit`` events at most the target),
    ``good`` (fraction of ``hit`` events at least the target) or
    ``sum`` (summed ``count`` at most the target), over the ``reads``
    events that ``keep`` (``None``: all of them) accepts. ``detail`` is
    formatted with ``value``, ``target``, ``samples`` and ``hits`` (the
    ``hit`` events, or for ``p95`` the samples over target).
    """

    reads: str
    shape: str
    detail: str
    unit_target: bool = False
    by_route: bool = False
    keep: Optional[Callable[[Event], bool]] = None
    hit: Callable[[Event], bool] = lambda e: False


_KINDS: Dict[str, _Kind] = {
    "latency_p95": _Kind(
        "http.request", "p95",
        "p95 {value:.3f}s vs {target:g}s over {samples} request(s)",
        by_route=True,
    ),
    "error_rate": _Kind(
        "http.request", "bad",
        "{hits}/{samples} request(s) failed "
        "({value:.1%} vs {target:.1%} budget)",
        unit_target=True, by_route=True,
        hit=lambda e: int(e.attrs.get("status", 0)) >= 500,
    ),
    "recovery_rate": _Kind(
        "recognize", "good",
        "{hits}/{samples} recognition(s) complete "
        "({value:.1%} vs {target:.1%} floor)",
        unit_target=True,
        hit=lambda e: bool(e.attrs.get("complete")),
    ),
    "retry_budget": _Kind(
        "batch.retry", "sum",
        "{value:g} retried cop(ies) vs budget {target:g}",
    ),
    "dispatch_p95": _Kind(
        "fleet.dispatch", "p95",
        "dispatch p95 {value:.3f}s vs {target:g}s over {samples} send(s)",
        by_route=True,
    ),
    "fleet_error_rate": _Kind(
        "fleet.dispatch", "bad",
        "{hits}/{samples} terminal dispatch(es) failed "
        "({value:.1%} vs {target:.1%} budget)",
        unit_target=True, by_route=True,
        keep=lambda e: str(e.attrs.get("outcome"))
        not in ("requeued", "superseded"),
        hit=lambda e: str(e.attrs.get("outcome")) != "ok",
    ),
}


@dataclass(frozen=True)
class Objective:
    """One declarative service-level objective."""

    name: str
    kind: str
    target: float
    route: Optional[str] = None
    window_seconds: float = 3600.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a name")
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(
                f"unknown objective kind {self.kind!r} "
                f"(have: {', '.join(_KINDS)})"
            )
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if kind.unit_target:
            if not 0.0 <= self.target <= 1.0:
                raise ValueError(f"{self.kind} target must be in [0, 1]")
        elif self.target <= 0:
            raise ValueError(f"{self.kind} target must be positive")
        if self.route is not None and not kind.by_route:
            raise ValueError(f"{self.kind} takes no route")

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "window_seconds": self.window_seconds,
        }
        if self.route is not None:
            doc["route"] = self.route
        if self.description:
            doc["description"] = self.description
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Objective":
        return Objective(
            name=doc["name"],
            kind=doc["kind"],
            target=float(doc["target"]),
            route=doc.get("route"),
            window_seconds=float(doc.get("window_seconds", 3600.0)),
            description=doc.get("description", ""),
        )


@dataclass
class SLOStatus:
    """One objective judged against a window of events."""

    objective: Objective
    met: bool
    value: Optional[float]
    samples: int
    burn_rate: float
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective.to_dict(),
            "met": self.met,
            "value": self.value,
            "samples": self.samples,
            "burn_rate": self.burn_rate,
            "detail": self.detail,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _burn(observed: float, allowed: float) -> float:
    """Observed over allowed; with no allowance, any spend is ``inf``."""
    if allowed > 0:
        return observed / allowed
    return 0.0 if observed == 0 else math.inf


def _judge(
    objective: Objective, events: Sequence[Event], cutoff: float
) -> SLOStatus:
    """Judge one objective over the events at or after ``cutoff``."""
    kind = _KINDS[objective.kind]
    route, target = objective.route, objective.target
    reads, keep = kind.reads, kind.keep
    kept = [
        e for e in events
        if e.kind == reads and e.unix >= cutoff
        and (keep is None or keep(e))
        and (route is None or str(e.attrs.get("route", e.name)) == route)
    ]
    samples: Sequence[Any] = kept
    if kind.shape == "p95":
        samples = [
            float(e.attrs["seconds"]) for e in kept
            if isinstance(e.attrs.get("seconds"), (int, float))
        ]
    if not samples:
        return SLOStatus(
            objective=objective, met=True, value=None, samples=0,
            burn_rate=0.0, detail="no data in window",
        )
    n = len(samples)
    hits = 0
    if kind.shape == "p95":
        value = percentile(samples, 0.95)
        hits = sum(1 for v in samples if v > target)
        met, burn = value <= target, _burn(hits / n, _LATENCY_ALLOWANCE)
    elif kind.shape == "sum":
        value = float(sum(float(e.attrs.get("count", 1)) for e in kept))
        met, burn = value <= target, _burn(value, target)
    else:
        hits = sum(map(kind.hit, kept))
        value = hits / n
        if kind.shape == "bad":
            met, burn = value <= target, _burn(value, target)
        else:
            met, burn = value >= target, _burn(1.0 - value, 1.0 - target)
    return SLOStatus(
        objective=objective, met=met, value=value, samples=n,
        burn_rate=burn,
        detail=kind.detail.format(
            value=value, target=target, hits=hits, samples=n
        ),
    )


def evaluate_objectives(
    objectives: Sequence[Objective],
    events: Sequence[Event],
    now: Optional[float] = None,
) -> List[SLOStatus]:
    """Judge every objective over its own window ending at ``now``.

    ``now`` defaults to the newest event's timestamp, so evaluating a
    historical journal does not see every window empty.
    """
    if now is None:
        now = max((e.unix for e in events), default=0.0)
    return [
        _judge(objective, events, now - objective.window_seconds)
        for objective in objectives
    ]


def default_objectives() -> List[Objective]:
    """The out-of-the-box objective set for the serving daemon."""
    return [
        Objective(
            name="embed-latency-p95",
            kind="latency_p95",
            target=30.0,
            route="/v1/embed",
            description="p95 embed request latency stays under 30s",
        ),
        Objective(
            name="embed-error-rate",
            kind="error_rate",
            target=0.02,
            route="/v1/embed",
            description="at most 2% of embed requests may fail (5xx)",
        ),
        Objective(
            name="recognize-error-rate",
            kind="error_rate",
            target=0.02,
            route="/v1/recognize",
            description="at most 2% of recognize requests may fail (5xx)",
        ),
        Objective(
            name="recognition-recovery",
            kind="recovery_rate",
            target=0.99,
            description="at least 99% of recognitions recover a mark",
        ),
        Objective(
            name="batch-retry-budget",
            kind="retry_budget",
            target=25.0,
            description="at most 25 copies resubmitted per window",
        ),
        Objective(
            name="fleet-dispatch-p95",
            kind="dispatch_p95",
            target=30.0,
            description="p95 fleet send latency stays under 30s",
        ),
        Objective(
            name="fleet-error-rate",
            kind="fleet_error_rate",
            target=0.02,
            description=(
                "at most 2% of terminal fleet dispatches may fail"
            ),
        ),
    ]


def load_objectives(path: str) -> List[Objective]:
    """Parse a declarative SLO spec file.

    The format is ``{"objectives": [{...}, ...]}``; each entry feeds
    :meth:`Objective.from_dict`. Raises ``ValueError`` on a malformed
    document so a bad spec fails loudly at startup, not at scrape
    time.
    """
    with open(path) as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or not isinstance(
        doc.get("objectives"), list
    ):
        raise ValueError(
            f"{path}: SLO spec must be {{'objectives': [...]}}"
        )
    objectives: List[Objective] = []
    for entry in doc["objectives"]:
        try:
            objectives.append(Objective.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad objective {entry!r}: {exc}")
    if not objectives:
        raise ValueError(f"{path}: spec declares no objectives")
    return objectives


class SLOEngine:
    """A set of objectives plus the machinery to report on them."""

    def __init__(self, objectives: Optional[Sequence[Objective]] = None):
        self.objectives = list(
            objectives if objectives is not None else default_objectives()
        )
        if not self.objectives:
            raise ValueError("SLOEngine needs at least one objective")

    def evaluate(
        self, events: Sequence[Event], now: Optional[float] = None
    ) -> List[SLOStatus]:
        return evaluate_objectives(self.objectives, events, now=now)

    def report(
        self, events: Sequence[Event], now: Optional[float] = None
    ) -> Dict[str, Any]:
        """The JSON document ``/v1/obs/slo`` serves: every status plus
        the overall verdict and the worst burn rate."""
        statuses = self.evaluate(events, now=now)
        return {
            "met": all(s.met for s in statuses),
            "breached": [s.objective.name for s in statuses if not s.met],
            "max_burn_rate": max(
                (s.burn_rate for s in statuses), default=0.0
            ),
            "objectives": [s.to_dict() for s in statuses],
        }

    @staticmethod
    def summary(statuses: Sequence[SLOStatus]) -> str:
        """Aligned human-readable table for the CLI."""
        lines: List[str] = []
        width = max((len(s.objective.name) for s in statuses), default=4)
        for status in statuses:
            flag = "ok " if status.met else "FAIL"
            lines.append(
                f"{flag} {status.objective.name:<{width}}  "
                f"burn={status.burn_rate:5.2f}  {status.detail}"
            )
        return "\n".join(lines)
