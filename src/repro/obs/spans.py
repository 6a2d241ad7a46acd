"""Spans: hierarchical wall-time intervals with cross-process lineage.

A *span* is one named interval of work ("prepare.trace", "copy.embed")
with a start time, a duration, free-form attributes and a position in
a tree. The tree is what makes a batch run legible: one root span per
CLI invocation, a ``prepare`` subtree for the shared work, and one
``copy`` subtree per fingerprinted copy — including copies embedded in
``ProcessPoolExecutor`` workers, whose spans are recorded in the
worker process and grafted back under the batch span by the parent.

The design is deliberately minimal and dependency-free:

* the *ambient* current span lives in a :mod:`contextvars` variable,
  so nesting works across threads and ``async`` alike;
* a :class:`SpanContext` is a picklable ``(trace_id, span_id)`` pair —
  the only thing that must travel to another process. The receiving
  side either parents new spans under it (:func:`attach`) or passes it
  to :meth:`Tracer.span` explicitly;
* finished spans are plain data (:meth:`Span.to_dict` /
  :meth:`Span.from_dict`), exported as JSON lines and re-importable,
  which is how worker spans return home (:meth:`Tracer.adopt`).

A span's duration is the program's one clock: stage timings, copy
and cell wall times and request latencies are all read from the span
that wraps their interval. So a span measures its interval even when
tracing is disabled. :func:`span` then goes through a
:class:`NullTracer`, which yields a :class:`TimedSpan` — two
``perf_counter`` reads, no ids, no context switch, never recorded.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Union,
)


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


#: Module-level fan-out for finished spans. The telemetry hub
#: (:mod:`repro.obs.journal`) installs its journal writer here so
#: every span any tracer finishes — or adopts from a worker — also
#: lands in the event journal. ``None`` (the default) costs one load
#: and one test per finished span.
_SPAN_SINK: Optional[Callable[["Span"], None]] = None


def set_span_sink(
    sink: Optional[Callable[["Span"], None]],
) -> Optional[Callable[["Span"], None]]:
    """Install (or clear) the finished-span sink; returns the old one."""
    global _SPAN_SINK
    previous = _SPAN_SINK
    _SPAN_SINK = sink
    return previous


@dataclass(frozen=True)
class SpanContext:
    """Picklable lineage of a span: enough to parent work elsewhere."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One finished (or in-flight) interval of named work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_unix: float
    duration: float = 0.0
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span while it is open."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Span":
        return Span(
            name=doc["name"],
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            parent_id=doc.get("parent_id"),
            start_unix=doc.get("start_unix", 0.0),
            duration=doc.get("duration", 0.0),
            status=doc.get("status", "ok"),
            attributes=dict(doc.get("attributes", {})),
        )


#: The ambient current span context. Module-level so every tracer (and
#: :func:`attach`) agrees on what "the current span" means.
_CURRENT: contextvars.ContextVar[Optional[SpanContext]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_context() -> Optional[SpanContext]:
    """The ambient span context, if any (picklable; ship it to workers)."""
    return _CURRENT.get()


@contextmanager
def attach(parent: Optional[SpanContext]) -> Iterator[None]:
    """Make ``parent`` the ambient context without opening a span.

    The worker-process half of cross-process propagation: the pool
    initializer attaches the batch span's context so every span the
    worker opens parents under it.
    """
    token = _CURRENT.set(parent)
    try:
        yield
    finally:
        _CURRENT.reset(token)


class TimedSpan:
    """What :class:`NullTracer` yields: a span that only keeps time.

    It has a ``duration`` (set when the interval closes, also when
    the body raises) and accepts attributes, which it drops.
    """

    __slots__ = ("duration",)

    def __init__(self) -> None:
        self.duration = 0.0

    def set(self, **attributes: Any) -> None:
        pass


class NullTracer:
    """Tracing disabled: spans keep time but record nothing."""

    enabled = False

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        **attributes: Any,
    ) -> Iterator[TimedSpan]:
        sp = TimedSpan()
        start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.duration = time.perf_counter() - start

    def drain(self) -> List[Span]:
        return []


class Tracer:
    """Records finished spans of one trace tree.

    Spans parent under the ambient context by default; pass ``parent``
    to graft under an explicit :class:`SpanContext` (e.g. one received
    from another process).
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or _new_id()
        self.finished: List[Span] = []

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        if parent is None:
            parent = _CURRENT.get()
        sp = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=_new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_unix=time.time(),
            attributes=dict(attributes),
        )
        token = _CURRENT.set(sp.context)
        start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.status = "error"
            raise
        finally:
            sp.duration = time.perf_counter() - start
            _CURRENT.reset(token)
            self.finished.append(sp)
            if _SPAN_SINK is not None:
                _SPAN_SINK(sp)

    # -- collection plumbing ------------------------------------------------

    def adopt(self, spans: Iterable[Union[Span, Dict[str, Any]]]) -> None:
        """Graft spans recorded elsewhere (e.g. a pool worker) into
        this tracer's record. Dicts are accepted as they travel."""
        for sp in spans:
            span = sp if isinstance(sp, Span) else Span.from_dict(sp)
            self.finished.append(span)
            if _SPAN_SINK is not None:
                _SPAN_SINK(span)

    def drain(self) -> List[Span]:
        """Remove and return every finished span (worker hand-off)."""
        out = self.finished
        self.finished = []
        return out

    # -- export -------------------------------------------------------------

    def write_jsonl(self, fp: TextIO) -> None:
        """One ``{"kind": "span", ...}`` JSON object per line."""
        for sp in self.finished:
            doc = {"kind": "span"}
            doc.update(sp.to_dict())
            fp.write(json.dumps(doc, sort_keys=True))
            fp.write("\n")

    def render_tree(self) -> str:
        """Human-readable span tree, children indented under parents.

        Spans whose parent never reported (a worker died, or the
        parent is still open) render as roots rather than vanishing.
        """
        return render_span_tree(self.finished)


#: The ambient tracer. A ``NullTracer`` until :func:`enable_tracing`
#: swaps a recording one in — library code calls :func:`span`
#: unconditionally and records nothing while disabled.
_ACTIVE: Union[Tracer, NullTracer] = NullTracer()


def get_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (check ``.enabled`` to see which kind)."""
    return _ACTIVE


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a recording tracer as the ambient one."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable_tracing() -> None:
    """Restore the non-recording ambient tracer."""
    global _ACTIVE
    _ACTIVE = NullTracer()


def span(
    name: str,
    parent: Optional[SpanContext] = None,
    **attributes: Any,
) -> AbstractContextManager:
    """Open a span on the ambient tracer; its ``duration`` is set on
    exit whether or not tracing is enabled."""
    return _ACTIVE.span(name, parent=parent, **attributes)


@contextmanager
def hand_off(
    parent: Optional[SpanContext], drain: bool
) -> Iterator[List[Span]]:
    """Run a job's body under ``parent``; yield the list its spans land in.

    The worker half of cross-process propagation. ``parent=None`` runs
    the body untraced and the list stays empty. With a parent, the body
    runs with it as the ambient context. ``drain=False`` (thread-pool
    mode) records into the shared ambient tracer and leaves the list
    empty. ``drain=True`` (process-pool mode) records on a local tracer
    and, on exit, moves the job's finished spans into the list for the
    parent process to adopt; leftovers of an earlier job are dropped
    first so they cannot leak in.
    """
    spans: List[Span] = []
    if parent is None:
        yield spans
        return
    tracer = _ACTIVE
    if drain:
        if not tracer.enabled:
            tracer = enable_tracing()
        tracer.drain()
    try:
        with attach(parent):
            yield spans
    finally:
        if drain:
            spans.extend(tracer.drain())


def render_span_tree(spans: List[Span]) -> str:
    by_id = {sp.span_id: sp for sp in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)
    for sibs in children.values():
        sibs.sort(key=lambda s: s.start_unix)

    lines: List[str] = []

    def walk(sp: Span, depth: int) -> None:
        status = "" if sp.status == "ok" else f"  !{sp.status}"
        attrs = ""
        if sp.attributes:
            attrs = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(sp.attributes.items())
            )
        lines.append(
            f"{'  ' * depth}{sp.name}  {sp.duration * 1000:.1f}ms"
            f"{status}{attrs}"
        )
        for child in children.get(sp.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
