"""A resilient stdlib client for the fingerprinting daemon.

The other half of the daemon's backpressure contract: the server says
*when* to come back (``429``/``503`` + ``Retry-After``), this client
actually does so. Built on ``http.client`` only, retrying with the
same capped, seeded :class:`~repro.faults.retry.RetryPolicy` the batch
executor uses — when the server supplies ``Retry-After`` the client
honors it (taking the larger of the header and the policy's backoff),
otherwise the policy's jittered exponential schedule applies.

What retries: connection failures (daemon restarting), ``429``
(queue full), ``503`` (draining, circuit open, pool died). What does
not: every other status — ``400``/``404``/``422`` are the caller's
problem and ``504`` already cost a full request timeout, so hammering
it again unprompted is exactly what a loaded server does not need.

``sleep`` is injectable so tests assert on the produced schedule
instead of waiting through it::

    naps = []
    client = ServiceClient(url, retry=RetryPolicy(max_attempts=3),
                           sleep=naps.append)
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Any, Callable, Dict, Optional, Tuple

from ..faults.retry import RetryPolicy

__all__ = ["ServiceClient", "ServiceError"]

#: Statuses worth retrying: the server explicitly said "later".
_RETRYABLE_STATUSES = frozenset({429, 503})

#: Statuses whose body is the answer to a path; any other is an error.
#: A 422 from ``/v1/recognize`` is an incomplete recovery, a result.
_RESULT_STATUSES: Dict[str, Tuple[int, ...]] = {"/v1/recognize": (200, 422)}


class ServiceError(Exception):
    """The daemon answered with an error status (after any retries).

    ``status`` is the HTTP status; ``doc`` is the parsed JSON error
    body when there was one. ``retry_after`` carries the final
    response's ``Retry-After`` seconds when the server sent one (a 503
    circuit-open or 429 queue-full answer says *when* to come back) —
    callers scheduling their own requeue, like the fleet dispatcher,
    must honor the server's number instead of guessing with private
    backoff.
    """

    def __init__(self, status: int, message: str,
                 doc: Optional[Dict[str, Any]] = None,
                 retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.doc = doc or {}
        self.retry_after = retry_after


class ServiceClient:
    """Synchronous client: embed/recognize/health against one daemon.

    One instance per base URL; connections are per-request (the daemon
    closes after each response anyway). Retry behaviour is wholly
    owned by the ``retry`` policy — pass
    ``RetryPolicy(max_attempts=1)`` to disable retries.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self._sleep = sleep

    # -- transport ---------------------------------------------------------

    def _once(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                payload,
            )
        finally:
            conn.close()

    def request(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One logical request, retried per the policy.

        Returns ``(status, parsed_body)`` for any non-retryable
        outcome (including error statuses — the typed helpers below
        decide what to raise). Exhausted retries return the last
        retryable status; a connection that never succeeds re-raises
        the last ``OSError``.
        """
        status, doc_out, _ = self.request_ex(method, path, doc)
        return status, doc_out

    def request_ex(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """:meth:`request`, plus the final response's ``Retry-After``.

        The header used to vanish here: it fed the *internal* retry
        sleeps but was dropped from the exhausted-retries return, so a
        dispatcher requeueing the job fell back to its own backoff and
        hammered a server that had named its price. The third element
        is the last response's ``Retry-After`` in seconds (``None``
        when absent or unparseable).
        """
        body = (
            json.dumps(doc).encode() if doc is not None else None
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                status, headers, payload = self._once(method, path, body)
            except (OSError, http.client.HTTPException):
                if not self.retry.retries_left(attempt):
                    raise
                self._sleep(self.retry.delay(attempt))
                continue
            retry_after: Optional[float] = None
            header = headers.get("retry-after")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            if status in _RETRYABLE_STATUSES and self.retry.retries_left(
                attempt
            ):
                self._sleep(self.retry.delay(attempt, retry_after))
                continue
            return status, _parse_json(payload), retry_after

    def _call(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """:meth:`request_ex`, answered by :func:`answer`."""
        return answer(path, *self.request_ex(method, path, doc))

    # -- typed endpoints ---------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def metrics(self) -> str:
        status, headers, payload = self._once("GET", "/metrics", None)
        if status != 200:
            raise ServiceError(status, "metrics unavailable")
        return payload.decode()

    def artifacts(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/artifacts")

    def obs_events(
        self,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        route: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Tail the daemon's telemetry ring (``GET /v1/obs/events``)."""
        params: Dict[str, str] = {}
        if limit is not None:
            params["limit"] = str(limit)
        if kind is not None:
            params["kind"] = kind
        if name is not None:
            params["name"] = name
        if route is not None:
            params["route"] = route
        path = "/v1/obs/events"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self._call("GET", path)

    def obs_spans(self) -> Dict[str, Any]:
        """Recent trace trees (``GET /v1/obs/spans``)."""
        return self._call("GET", "/v1/obs/spans")

    def obs_slo(self) -> Dict[str, Any]:
        """The SLO engine's verdict (``GET /v1/obs/slo``)."""
        return self._call("GET", "/v1/obs/slo")

    def embed(
        self,
        artifact: str,
        copy_id: str,
        watermark: int,
        seed: int = 0,
        self_check: Optional[bool] = None,
        codec: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Mint one fingerprinted copy; returns the response document.

        ``codec`` overrides the artifact's redundancy scheme for this
        copy (e.g. ``"rs-8"``); recognition must then name the same
        codec.
        """
        doc: Dict[str, Any] = {
            "artifact": artifact,
            "copy_id": copy_id,
            "watermark": watermark,
            "seed": seed,
        }
        if self_check is not None:
            doc["self_check"] = self_check
        if codec is not None:
            doc["codec"] = codec
        return self._call("POST", "/v1/embed", doc)

    def recognize(
        self,
        artifact: str,
        module_text: str,
        codec: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Recover a mark; 422 (incomplete recovery) is a result, not
        an error — check ``doc["complete"]``. ``codec`` must match the
        embedding codec when it overrode the artifact's default."""
        doc: Dict[str, Any] = {"artifact": artifact, "module": module_text}
        if codec is not None:
            doc["codec"] = codec
        return self._call("POST", "/v1/recognize", doc)


def answer(
    path: str, status: int, doc: Dict[str, Any],
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """The document of an answer to ``path``, or the
    :class:`ServiceError` it is: any status outside the path's result
    statuses (``200``, and ``422`` for ``/v1/recognize``) raises, with
    the answer's ``Retry-After``."""
    if status not in _RESULT_STATUSES.get(path, (200,)):
        raise ServiceError(
            status, str(doc.get("error", "")), doc, retry_after=retry_after
        )
    return doc


def _parse_json(payload: bytes) -> Dict[str, Any]:
    if not payload:
        return {}
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {"raw": payload.decode("utf-8", "replace")}
    return doc if isinstance(doc, dict) else {"raw": doc}
