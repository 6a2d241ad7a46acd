"""Prometheus text-exposition conformance checking.

``MetricsRegistry.to_prometheus`` claims to emit scrape-valid text;
this module is the auditor that holds it to that claim without
needing ``promtool`` installed. :func:`check_exposition` parses an
exposition document and returns a list of human-readable problems —
empty means conformant. It is used three ways: by the unit tests in
``tests/test_metrics_exposition.py``, by the CI obs gate against a
live daemon's ``/metrics``, and available to operators as
``repro.obs.promcheck.check_exposition`` for scrape debugging.

Checked invariants (the subset of the exposition format this
codebase can violate):

* every sample line parses: valid metric name, well-formed label
  pairs with correctly escaped values, a numeric value;
* at most one ``# TYPE`` per metric family, declared before its
  samples, with a known type — and the type must match the
  instrument (a ``Gauge`` exposing ``counter`` is the classic
  subclassing bug this audit exists to catch);
* every sample belongs to a declared family: bare name for counters
  and gauges, ``_bucket``/``_sum``/``_count`` suffixes for
  histograms;
* histogram series are complete and coherent: bucket counts are
  cumulative (monotone non-decreasing in ``le`` order), the final
  bucket is ``le="+Inf"`` and equals ``_count``, and ``_count`` and
  ``_sum`` are present for every label set.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

__all__ = ["check_exposition"]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\\n]|\\.)*)"'
)
_KNOWN_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"}
)
_ESCAPES = frozenset({"\\", '"', "n"})


def _parse_labels(
    body: str, where: str, problems: List[str]
) -> Optional[Dict[str, str]]:
    """Parse a ``{...}`` label body, validating escapes; None on error."""
    labels: Dict[str, str] = {}
    position = 0
    while position < len(body):
        match = _LABEL_PAIR.match(body, position)
        if match is None:
            problems.append(f"{where}: malformed label body {body!r}")
            return None
        value = match.group("value")
        index = 0
        while index < len(value):
            if value[index] == "\\":
                if index + 1 >= len(value) or value[index + 1] not in _ESCAPES:
                    problems.append(
                        f"{where}: bad escape in label value {value!r}"
                    )
                    return None
                index += 2
            else:
                index += 1
        key = match.group("key")
        if key in labels:
            problems.append(f"{where}: duplicate label {key!r}")
            return None
        labels[key] = value
        position = match.end()
        if position < len(body):
            if body[position] != ",":
                problems.append(f"{where}: malformed label body {body!r}")
                return None
            position += 1
    return labels


def _parse_value(text: str, where: str, problems: List[str]) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        problems.append(f"{where}: non-numeric sample value {text!r}")
        return float("nan")


def _family_of(
    name: str, types: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """Resolve a sample name to its declared (family, type)."""
    if name in types:
        return name, types[name]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base, "histogram"
    return None


def check_exposition(text: str) -> List[str]:
    """Audit one exposition document; returns problems (empty = ok)."""
    problems: List[str] = []
    types: Dict[str, str] = {}
    sampled: Dict[str, bool] = {}
    # histogram series keyed by (family, labels-sans-le):
    # buckets as (le, count), plus observed _sum/_count values.
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                  List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    sums: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    for number, line in enumerate(text.splitlines(), 1):
        where = f"line {number}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"{where}: malformed TYPE line {line!r}")
                continue
            _, _, name, kind = parts
            if not _METRIC_NAME.match(name):
                problems.append(f"{where}: bad metric name {name!r}")
                continue
            if kind not in _KNOWN_TYPES:
                problems.append(
                    f"{where}: unknown type {kind!r} for {name}"
                )
                continue
            if name in types:
                problems.append(
                    f"{where}: duplicate # TYPE for {name} "
                    f"(already {types[name]})"
                )
                continue
            if sampled.get(name):
                problems.append(
                    f"{where}: # TYPE for {name} after its samples"
                )
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_NAME.match(parts[2]):
                problems.append(f"{where}: malformed HELP line {line!r}")
            continue
        if line.startswith("#"):
            continue  # free-form comment

        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"{where}: unparsable sample line {line!r}")
            continue
        name = match.group("name")
        label_body = match.group("labels")
        labels = (
            _parse_labels(label_body, where, problems)
            if label_body is not None
            else {}
        )
        if labels is None:
            continue
        value = _parse_value(match.group("value"), where, problems)

        resolved = _family_of(name, types)
        if resolved is None:
            problems.append(
                f"{where}: sample {name!r} has no preceding # TYPE"
            )
            # Remember the bare name: a # TYPE declared further down
            # gets the more precise "after its samples" diagnosis.
            sampled[name] = True
            continue
        family, kind = resolved
        sampled[family] = True
        if kind == "histogram":
            if name == family:
                problems.append(
                    f"{where}: histogram {family} exposes a bare "
                    f"sample (want _bucket/_sum/_count)"
                )
                continue
            series_labels = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            key = (family, series_labels)
            if name.endswith("_bucket"):
                le_text = labels.get("le")
                if le_text is None:
                    problems.append(
                        f"{where}: {family}_bucket without an 'le' label"
                    )
                    continue
                le = _parse_value(le_text, where, problems)
                buckets.setdefault(key, []).append((le, value))
            elif name.endswith("_count"):
                counts[key] = value
            else:
                sums[key] = value
        else:
            if name != family:
                problems.append(
                    f"{where}: sample {name!r} does not match its "
                    f"family {family!r}"
                )
            if "le" in labels:
                problems.append(
                    f"{where}: non-histogram {family} uses the "
                    f"reserved 'le' label"
                )
            if kind == "counter" and value < 0:
                problems.append(
                    f"{where}: counter {family} has negative value"
                )

    # -- cross-line histogram coherence -------------------------------------
    for key, series in buckets.items():
        family, series_labels = key
        label_text = "{" + ",".join(
            f'{k}="{v}"' for k, v in series_labels
        ) + "}"
        where = f"{family}{label_text}"
        ordered = sorted(series, key=lambda pair: pair[0])
        les = [le for le, _ in ordered]
        if len(set(les)) != len(les):
            problems.append(f"{where}: duplicate bucket bounds")
        if not ordered or ordered[-1][0] != float("inf"):
            problems.append(f"{where}: no le=\"+Inf\" bucket")
        cumulative = [count for _, count in ordered]
        if any(
            later < earlier
            for earlier, later in zip(cumulative, cumulative[1:])
        ):
            problems.append(
                f"{where}: bucket counts are not cumulative "
                f"(monotone non-decreasing)"
            )
        if key not in counts:
            problems.append(f"{where}: missing {family}_count sample")
        elif ordered and ordered[-1][0] == float("inf") and (
            ordered[-1][1] != counts[key]
        ):
            problems.append(
                f"{where}: +Inf bucket ({ordered[-1][1]:g}) disagrees "
                f"with _count ({counts[key]:g})"
            )
        if key not in sums:
            problems.append(f"{where}: missing {family}_sum sample")
    for key in counts:
        if key not in buckets:
            family, _ = key
            problems.append(
                f"{family}: _count sample without any _bucket samples"
            )
    return problems


def assert_conformant(text: str) -> None:
    """Raise ``AssertionError`` listing every problem found."""
    problems = check_exposition(text)
    if problems:
        raise AssertionError(
            "exposition is not conformant:\n" + "\n".join(problems)
        )


if __name__ == "__main__":  # pragma: no cover
    import sys

    issues = check_exposition(sys.stdin.read())
    for issue in issues:
        print(issue, file=sys.stderr)
    sys.exit(1 if issues else 0)
