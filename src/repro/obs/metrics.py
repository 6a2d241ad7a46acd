"""A small metrics registry: counters, gauges, histograms, exporters.

Prometheus-shaped but dependency-free. Metrics are created through a
:class:`MetricsRegistry` (creation is idempotent: asking twice for the
same name returns the same instrument; asking with a different type is
an error). Every instrument supports labels passed as keyword
arguments at observation time::

    reg = MetricsRegistry()
    copies = reg.counter("repro_copies_total", "Copies embedded")
    copies.inc(status="ok")
    stage = reg.histogram("repro_stage_seconds", "Stage wall time")
    stage.observe(0.125, stage="trace")

Two exporters:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP``/``# TYPE`` headers, cumulative
  histogram buckets with ``+Inf``, escaped label values), suitable for
  a scrape endpoint or a textfile collector;
* :meth:`MetricsRegistry.write_jsonl` / :meth:`samples` — one JSON
  object per sample, for the ``--obs-out`` JSON-lines stream.

The module-level :func:`get_registry` registry is the ambient default
that library code (pipeline stage timings, recognizers) records into;
processes that want isolation construct their own registry.
"""

from __future__ import annotations

import json
import re
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in seconds: spans four orders of
#: magnitude around the pipeline's stage times (sub-ms site mining up
#: to multi-second traces).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Request-latency buckets, in seconds: tighter at the low end than
#: :data:`DEFAULT_BUCKETS` (an admission rejection is microseconds, a
#: queued embed can be seconds) and topping out at a serving timeout.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"bad label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_labels(labels: LabelSet, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing sum, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def samples(self) -> Iterator[Dict[str, Any]]:
        for labels, value in sorted(self._values.items()):
            yield {
                "kind": "metric",
                "type": self.kind,
                "name": self.name,
                "labels": dict(labels),
                "value": value,
            }

    def expose(self) -> List[str]:
        return [
            f"{self.name}{_fmt_labels(labels)} {_fmt_value(value)}"
            for labels, value in sorted(self._values.items())
        ]


class Gauge(Counter):
    """A value that can go anywhere (pool sizes, cache occupancy)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: Any) -> None:
        self._values[_labelset(labels)] = float(value)


class Histogram:
    """Bucketed distribution with sum and count, per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.help = help
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # per label set: (bucket counts parallel to bounds, sum, count)
        self._series: Dict[LabelSet, Tuple[List[int], List[float]]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _labelset(labels)
        series = self._series.get(key)
        if series is None:
            series = ([0] * len(self.bounds), [0.0, 0.0])
            self._series[key] = series
        counts, agg = series
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        agg[0] += value
        agg[1] += 1.0

    def count(self, **labels: Any) -> int:
        series = self._series.get(_labelset(labels))
        return int(series[1][1]) if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_labelset(labels))
        return series[1][0] if series else 0.0

    def _cumulative(self, counts: List[int], total: int) -> List[int]:
        out: List[int] = []
        acc = 0
        for c in counts:
            acc += c
            out.append(acc)
        out.append(total)  # +Inf bucket == count
        return out

    def samples(self) -> Iterator[Dict[str, Any]]:
        for labels, (counts, agg) in sorted(self._series.items()):
            cum = self._cumulative(counts, int(agg[1]))
            yield {
                "kind": "metric",
                "type": self.kind,
                "name": self.name,
                "labels": dict(labels),
                "sum": agg[0],
                "count": int(agg[1]),
                "buckets": {
                    _fmt_value(b): c for b, c in zip(self.bounds, cum)
                },
            }

    def expose(self) -> List[str]:
        lines: List[str] = []
        for labels, (counts, agg) in sorted(self._series.items()):
            cum = self._cumulative(counts, int(agg[1]))
            for bound, c in zip(self.bounds, cum[:-1]):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_fmt_labels(labels, ('le', _fmt_value(bound)))} {c}"
                )
            lines.append(
                f"{self.name}_bucket{_fmt_labels(labels, ('le', '+Inf'))} "
                f"{cum[-1]}"
            )
            lines.append(
                f"{self.name}_sum{_fmt_labels(labels)} {_fmt_value(agg[0])}"
            )
            lines.append(
                f"{self.name}_count{_fmt_labels(labels)} {int(agg[1])}"
            )
        return lines


class MetricsRegistry:
    """Owns a namespace of instruments and renders them for export."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        metric = self._get(Histogram, name, help, buckets=buckets)
        if buckets is not None and tuple(sorted(buckets)) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return metric

    # -- export -------------------------------------------------------------

    def samples(self) -> Iterator[Dict[str, Any]]:
        for name in sorted(self._metrics):
            yield from self._metrics[name].samples()

    def write_jsonl(self, fp: TextIO) -> None:
        for sample in self.samples():
            fp.write(json.dumps(sample, sort_keys=True))
            fp.write("\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, scrape-valid."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")


#: The ambient registry library code records into by default.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the ambient registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
