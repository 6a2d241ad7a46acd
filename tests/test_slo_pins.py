"""Pinned SLO output: every objective kind's verdict, value, burn rate
and detail text, byte for byte.

Each scenario judges a fixed set of objectives over a synthetic event
stream and pins the sha256 of the ``/v1/obs/slo`` document
(``json.dumps(engine.report(events), sort_keys=True)``) and of the CLI
table (``SLOEngine.summary``). Together the scenarios cover, for every
kind: no data, a zero-allowance target with bad events (burn ``inf``),
a value exactly at the target, and route filtering where the kind
filters by route. A change to how an objective is judged, or to the
wording it reports, changes a digest.
"""

import hashlib
import json
import random

import pytest

from repro.obs.journal import Event
from repro.obs.slo import Objective, SLOEngine

ROUTES = ("/v1/embed", "/v1/recognize", "/healthz")
FLEET_ROUTES = ("/v1/embed", "/v1/recognize")


def http(route, status, seconds, unix):
    attrs = {"route": route, "method": "POST", "status": status}
    if seconds is not None:
        attrs["seconds"] = seconds
    return Event(kind="http.request", name=route, unix=unix, attrs=attrs)


def dispatch(route, outcome, seconds, unix):
    attrs = {"route": route, "outcome": outcome}
    if seconds is not None:
        attrs["seconds"] = seconds
    return Event(kind="fleet.dispatch", name="job", unix=unix, attrs=attrs)


def recognize(complete, unix):
    return Event(kind="recognize", name="d", unix=unix,
                 attrs={"complete": complete})


def retry(count, unix):
    return Event(kind="batch.retry", name="round", unix=unix,
                 attrs={"count": count})


def seeded_stream(seed=2004, n=240):
    """A mixed journal: every event kind an objective reads, plus
    noise no objective reads, at one event per second."""
    rng = random.Random(seed)
    events = []
    for i in range(n):
        unix = 1000.0 + i
        pick = rng.random()
        if pick < 0.4:
            seconds = (
                None if rng.random() < 0.1
                else round(rng.expovariate(4.0), 4)
            )
            status = rng.choice((200, 200, 200, 422, 500, 503))
            events.append(http(rng.choice(ROUTES), status, seconds, unix))
        elif pick < 0.7:
            outcome = rng.choice(("ok", "ok", "ok", "error", "requeued",
                                  "superseded", "brownout", "shed"))
            seconds = (
                None if outcome in ("brownout", "shed")
                else round(rng.expovariate(2.0), 4)
            )
            events.append(dispatch(rng.choice(FLEET_ROUTES), outcome,
                                   seconds, unix))
        elif pick < 0.85:
            events.append(recognize(rng.random() < 0.9, unix))
        elif pick < 0.92:
            events.append(retry(rng.randint(1, 4), unix))
        else:
            events.append(Event(kind="fault", name="daemon.job",
                                unix=unix, attrs={"action": "raise"}))
    return events


def objective(name, kind, target, route=None, window=3600.0):
    return Objective(name=name, kind=kind, target=target, route=route,
                     window_seconds=window)


SEEDED = [
    objective("lat", "latency_p95", 0.25),
    objective("lat-embed", "latency_p95", 0.25, route="/v1/embed"),
    objective("lat-health-recent", "latency_p95", 0.1,
              route="/healthz", window=60.0),
    objective("err", "error_rate", 0.1),
    objective("err-recognize", "error_rate", 0.2, route="/v1/recognize"),
    objective("err-recent", "error_rate", 0.05, window=30.0),
    objective("rec", "recovery_rate", 0.95),
    objective("rec-recent", "recovery_rate", 0.8, window=45.0),
    objective("retries", "retry_budget", 40.0),
    objective("retries-recent", "retry_budget", 3.0, window=50.0),
    objective("disp", "dispatch_p95", 1.0),
    objective("disp-embed", "dispatch_p95", 2.5, route="/v1/embed"),
    objective("fleet", "fleet_error_rate", 0.1),
    objective("fleet-recognize", "fleet_error_rate", 0.3,
              route="/v1/recognize"),
]

# Every kind, against a stream that holds nothing it reads (a fault
# event anchors the window) and against a route nothing was sent on.
NO_DATA = [
    objective("lat", "latency_p95", 1.0),
    objective("lat-none", "latency_p95", 1.0, route="/v1/none"),
    objective("err", "error_rate", 0.0),
    objective("err-none", "error_rate", 0.5, route="/v1/none"),
    objective("rec", "recovery_rate", 1.0),
    objective("retries", "retry_budget", 1.0),
    objective("disp", "dispatch_p95", 1.0),
    objective("disp-none", "dispatch_p95", 1.0, route="/v1/none"),
    objective("fleet", "fleet_error_rate", 0.0),
    objective("fleet-none", "fleet_error_rate", 0.0, route="/v1/none"),
]

# No allowance at all: one bad event burns at infinity, none burns 0.
ZERO_ALLOWANCE = [
    objective("err-zero", "error_rate", 0.0),
    objective("err-zero-clean", "error_rate", 0.0, route="/healthz"),
    objective("rec-all", "recovery_rate", 1.0),
    objective("fleet-zero", "fleet_error_rate", 0.0),
    objective("fleet-zero-clean", "fleet_error_rate", 0.0,
              route="/v1/recognize"),
    objective("lat-tiny", "latency_p95", 1e-9),
    objective("disp-tiny", "dispatch_p95", 1e-9),
    objective("retries-tiny", "retry_budget", 1e-9),
]


def zero_allowance_stream():
    return [
        http("/v1/embed", 500, 0.2, 1.0),
        http("/v1/embed", 200, 0.1, 2.0),
        http("/healthz", 200, 0.01, 3.0),
        recognize(True, 4.0),
        recognize(False, 5.0),
        dispatch("/v1/embed", "error", 0.3, 6.0),
        dispatch("/v1/embed", "requeued", 0.3, 7.0),
        dispatch("/v1/recognize", "ok", 0.4, 8.0),
        retry(1, 9.0),
    ]


# Each value lands exactly on its target.
AT_TARGET = [
    objective("lat", "latency_p95", 0.4),
    objective("lat-embed", "latency_p95", 0.3, route="/v1/embed"),
    objective("err", "error_rate", 0.25),
    objective("err-embed", "error_rate", 0.5, route="/v1/embed"),
    objective("rec", "recovery_rate", 0.9),
    objective("rec-97", "recovery_rate", 0.97, window=99.5),
    objective("rec-70", "recovery_rate", 0.7, window=9.5),
    objective("retries", "retry_budget", 5.0),
    objective("disp", "dispatch_p95", 0.8),
    objective("disp-recognize", "dispatch_p95", 0.5,
              route="/v1/recognize"),
    objective("fleet", "fleet_error_rate", 0.25),
    objective("fleet-embed", "fleet_error_rate", 0.5, route="/v1/embed"),
]


def at_target_stream():
    events = [
        http("/v1/embed", 200, 0.1, 1.0),
        http("/v1/embed", 500, 0.3, 2.0),
        http("/v1/recognize", 200, 0.2, 3.0),
        http("/v1/recognize", 200, 0.4, 4.0),
        dispatch("/v1/embed", "ok", 0.8, 5.0),
        dispatch("/v1/embed", "error", 0.2, 6.0),
        dispatch("/v1/recognize", "ok", 0.5, 7.0),
        dispatch("/v1/recognize", "ok", 0.1, 8.0),
        dispatch("/v1/recognize", "requeued", 0.1, 9.0),
        retry(2, 10.0),
        retry(3, 11.0),
    ]
    # 97 of the last 100 recognitions complete, 7 of the last 10.
    outcomes = [False] * 4 + [True] * 90 + [
        True, False, True, True, False, True, True, False, True, True,
    ]
    for i, complete in enumerate(outcomes):
        events.append(recognize(complete, 12.0 + i))
    return events


SCENARIOS = {
    "seeded": (SEEDED, seeded_stream),
    "no-data": (NO_DATA, lambda: [Event(kind="fault", name="x",
                                        unix=5.0)]),
    "empty": (NO_DATA, lambda: []),
    "zero-allowance": (ZERO_ALLOWANCE, zero_allowance_stream),
    "at-target": (AT_TARGET, at_target_stream),
}

# An empty journal and one that holds nothing any objective reads
# judge alike.
PINS = {
    "at-target": (
        "15e500c29426a5192988af06349d0f5c9932112ee3581abd548e044397c92006",
        "d5df3ebda70f8be6533e9dd2e2d8cafcf21cfe255459c991100f6f94eb37e9ee",
    ),
    "empty": (
        "8851e817a55c0e2363217b55326d27b3336609cbb71ebb8f5ccf89c6ecb108c5",
        "7d09b86488dd826739504b87fe3497f2d5af0ac6b2cd5ce34e933a9119b4efa1",
    ),
    "no-data": (
        "8851e817a55c0e2363217b55326d27b3336609cbb71ebb8f5ccf89c6ecb108c5",
        "7d09b86488dd826739504b87fe3497f2d5af0ac6b2cd5ce34e933a9119b4efa1",
    ),
    "seeded": (
        "6f1e66c6c01b676fdb9d129fb02e59553849077e1620703ec8140cfb07d43618",
        "8b74b83234aa1223ac6cb940d8c1a26c86a8bd081bc3aae9043c2bce1bdb351a",
    ),
    "zero-allowance": (
        "4f28e2aafbb9640d8f18bdb41d19a763260474af2f4699c19c81109cc2ad0317",
        "28d70fe0f392b128a41122f9730c5c76a42cf9cf1eaf29c9ecb184113c5c8c29",
    ),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_slo_output_is_pinned(scenario):
    objectives, stream = SCENARIOS[scenario]
    events = stream()
    engine = SLOEngine(objectives)
    report = json.dumps(engine.report(events), sort_keys=True)
    summary = SLOEngine.summary(engine.evaluate(events))
    assert (digest(report), digest(summary)) == PINS[scenario], (
        report + "\n" + summary
    )
