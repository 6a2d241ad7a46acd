"""The repository's benchmark: mint, serve and native, end to end.

    python3 perfbench/run.py --workload mint --seed 0 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/``.
A run sets the workload up (``SETUP_REPEATS`` times when untraced,
reporting the median as ``setup_s``), then runs whole cycles of seeded
ops in a closed loop with one client: as many cycles as ``--seconds``
holds at the workload's nominal cycle length, so a run's work depends
only on ``--seconds`` and ``--seed``, never on the speed of the code.
Every op is checked; the checks too slow for the loop run after it.

The host's speed drifts by up to about 2x over minutes, so every timing
among the end-to-end metrics is in seconds at a reference host speed: a
fixed pure-Python probe (:mod:`hostspeed`) runs before every op
(``SETUP_PROBES`` times before every set-up) and after the last, and
each wall time is scaled by the reference probe time over the probe
times around it. The wall-clock figures are printed on the summary line
before the result.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones: the traced run wraps the program's public
functions (see :mod:`probes`), runs every op of cycle 0 also unwrapped
to price the tracing itself, and restores every function before it
ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
op reported a mark it should not have or changed a program's output,
and 2 when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mint", "serve", "native")
#: Host-speed probes per sample around a set-up: set-ups are few and
#: long, so one disturbed probe would move ``setup_s``.
SETUP_PROBES = 5


def _measure(wl: Any, seed: int, seconds: float, trace: bool,
             workdir: str) -> Dict[str, Any]:
    from common import OpRecord, tail
    from hostspeed import SpeedLog
    from probes import Probes

    probes = Probes()
    speed = SpeedLog()
    setup_times: List[tuple] = []  # (wall seconds, index of the probe before)
    state = None
    records: List[OpRecord] = []
    reference: List[OpRecord] = []
    cycles = max(1, round(seconds / wl.CYCLE_SECONDS))
    try:
        if trace:
            probes.install()
        for rep in range(1 if trace else wl.SETUP_REPEATS):
            if state is not None:
                wl.close(state)
                state = None
            before = speed.mark(SETUP_PROBES)
            start = perf_counter()
            state = wl.setup(seed, os.path.join(workdir, f"setup-{rep}"))
            setup_times.append((perf_counter() - start, before))
        speed.mark(SETUP_PROBES)
        setup_stats = probes.take()
        gc.collect()  # set-up's garbage is not the ops' to collect

        def run_op(op: Any, c: int, out: List[OpRecord]) -> None:
            before = speed.mark()
            start = perf_counter()
            outcome = op.run()
            elapsed = perf_counter() - start
            out.append(OpRecord(op, elapsed, outcome, c,
                                probes.take() if trace else None, before))

        def wrapped(on: bool) -> None:
            if on:
                probes.install()
                probes.take()
            else:
                probes.uninstall()
                probes.assert_pristine()

        first = 0
        if trace:
            # Every op of cycle 0 runs twice, unwrapped and wrapped, in
            # alternating order: the untraced reference that prices the
            # tracing itself.
            for i, op in enumerate(wl.cycle(state, 0)):
                for on in ((False, True) if i % 2 == 0 else (True, False)):
                    wrapped(on)
                    run_op(op, 0, records if on else reference)
            wrapped(True)
            first = 1
        for c in range(first, cycles):
            for op in wl.cycle(state, c):
                run_op(op, c, records)
        speed.mark()
        probes.uninstall()
        probes.assert_pristine()
        code_growth, step_growth = wl.verify(state, records)
    finally:
        probes.uninstall()
        if state is not None:
            wl.close(state)

    wall = [rec.seconds for rec in records]
    latencies = [speed.adjust(rec.seconds, rec.probe) for rec in records]
    tail_s, tail_pct, beyond = tail(latencies)
    judged = records + reference
    negatives = [r for r in records if r.op.negative]
    attacked = [r for r in records if r.op.attacked]
    facts = {
        "ops": len(records),
        "cycles": cycles,
        "fail_rate": sum(r.outcome.failed for r in records) / len(records),
        "false_mark_rate": (
            sum(r.outcome.false_mark for r in negatives) / len(negatives)
            if negatives else None
        ),
        "attacked_recovery_rate": (
            sum(bool(r.outcome.recovered) for r in attacked) / len(attacked)
            if attacked else None
        ),
        "op_tail_pct": tail_pct,
        "op_tail_beyond": beyond,
        "step_growth_pct": statistics.median(step_growth),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_s": statistics.median(wall),
        "wall_setup_s": statistics.median(t for t, _ in setup_times),
        "probe_s": statistics.median(speed.samples),
        "failing": Counter(r.outcome.note for r in records if r.outcome.failed),
    }
    result = {
        "correct": not any(
            r.outcome.false_mark or r.outcome.wrong_output for r in judged
        ),
        "attempted": len(judged),
        "failed": sum(r.outcome.failed for r in judged),
        "facts": facts,
    }
    if trace:
        from layers import per_layer

        result["values"] = per_layer(
            wl.NAME, setup_stats, records, reference, facts
        )
    else:
        result["values"] = {
            "setup_s": statistics.median(
                speed.adjust(t, before) for t, before in setup_times
            ),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
            "code_growth_pct": statistics.median(code_growth),
        }
    return result


def _summary(workload: str, seed: int, trace: bool, result: Dict[str, Any]) -> str:
    facts = result["facts"]
    rates = ", ".join(
        f"{name}={'n/a' if facts[name] is None else format(facts[name], '.4f')}"
        for name in ("fail_rate", "false_mark_rate", "attacked_recovery_rate")
    )
    line = (
        f"perfbench {workload} seed={seed} trace={int(trace)}: "
        f"{facts['ops']} ops in {facts['cycles']} cycles, {rates}, "
        f"op_tail_s at p{facts['op_tail_pct']:.1f} with "
        f"{facts['op_tail_beyond']} samples beyond, "
        f"step_growth_pct={facts['step_growth_pct']:.4f}; wall clock: "
        f"ops_per_s={facts['wall_ops_per_s']:.4f}, "
        f"op_p50_s={facts['wall_op_p50_s']:.4f}, "
        f"setup_s={facts['wall_setup_s']:.4f}, "
        f"median probe {facts['probe_s']:.4f} s"
    )
    failing = "; ".join(
        f"{note} x{n}" for note, n in sorted(facts["failing"].items())
    )
    return line + (f"\n  failed ops: {failing}" if failing else "")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
            spec = json.load(fp)
        wl = importlib.import_module(f"wl_{args.workload}")
        # The program under test is this checkout's, never an installed one.
        if not sys.modules["repro"].__file__.startswith(src + os.sep):
            raise ImportError(f"repro imported from outside {src}")
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json under "
              f"{ROOT}: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    # Anything the program puts in a temporary file stays in the checkout.
    tempfile.tempdir = workdir
    try:
        result = _measure(wl, args.seed, args.seconds, bool(args.trace),
                          workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    values = result.pop("values")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} produced no {', '.join(missing)}",
              file=sys.stderr)
        return 2
    print(_summary(args.workload, args.seed, bool(args.trace), result))
    result.pop("facts")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
