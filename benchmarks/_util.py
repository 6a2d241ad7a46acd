"""Shared helpers for the benchmark/figure reproduction harness.

Every ``benchmarks/test_fig*.py`` / ``test_tab*.py`` file regenerates
one table or figure from the paper: it computes the series, prints the
rows (so ``pytest benchmarks/ --benchmark-only -s`` shows the data the
paper plots), asserts the qualitative *shape* the paper reports, and
wraps the heavy computation in ``benchmark.pedantic`` with a single
round so pytest-benchmark records one honest timing per experiment.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]):
    """Render one reproduction table to stdout."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def monotone_nondecreasing(xs: Sequence[float], slack: float = 0.0) -> bool:
    return all(b >= a - slack for a, b in zip(xs, xs[1:]))
