#!/usr/bin/env python
"""CI-gated benchmark regression harness for the WVM engine.

Runs the interpreter micro-benchmarks (fast engine vs the seed
reference engine, interleaved in the same process), reference-scan vs
packed window counting over one recognition's trace bits, scalar vs
batched window decryption over one recognition's windows, a hooked
vs a plain N32 run of marked bzip2, a hooked vs a plain profiled run
of marked bzip2, a plain N32 run vs a native extraction of marked
bzip2, a cold vs a warm native embed of bzip2,
plus, with ``--figures``, the ``benchmarks/test_*``
figure reproductions under pytest-benchmark, and writes a
schema-versioned ``BENCH_<date>.json`` report with per-benchmark
median, IQR and steps/sec.

Gating philosophy
-----------------

Absolute wall-clock numbers swing by ±20% or more between runner
machines (and between runs on the *same* machine), so comparing a
fresh timing against a committed absolute number would flake
constantly. Every gated metric is therefore a **ratio measured inside
one process with the two sides interleaved** — fast-engine throughput
over reference-engine throughput, scanned over packed window counting
time, scalar over batched decryption time, hooked over plain N32 run
and profile time, plain-run over extraction time, cold over warm native
embedding time — which cancels the
machine out. Raw seconds and steps/sec are still recorded (they are
what humans read) but never gated.

Usage::

    PYTHONPATH=src python benchmarks/regression.py              # run + gate
    PYTHONPATH=src python benchmarks/regression.py --figures    # + figures
    PYTHONPATH=src python benchmarks/regression.py --rebaseline # refresh
    PYTHONPATH=src python benchmarks/regression.py --no-check   # report only

Exit status is non-zero when any gated metric regresses more than
``--tolerance`` (default 0.20) below/above its committed baseline in
``benchmarks/baseline.json``, when the fast engine's trace is not
byte-identical to the reference engine's (with a cold and with a warm
tier-2 block cache), when the bits it decodes in its run loop differ
from the reference decode, when a warm untraced run's steps or output
differ from the reference's, when the packed window counts differ
from the reference scan's, when a batched window decryption differs
from the scalar cipher's, when a plain N32 run's output or steps differ
from a hooked run's, when a profile differs from a hooked run's profile,
when the native extraction misses its mark, or
when a warm native embed's image differs from a cold one's (also
into an image of equal content whose symbols are renamed).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import io
import itertools
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import faults  # noqa: E402
from repro.bytecode_wm import (  # noqa: E402
    WatermarkKey,
    embed,
    trace_bitstring,
)
from repro.core.bitstring import (  # noqa: E402
    decode_bits,
    sliding_windows,
    window_multiset,
)
from repro.core.cipher import BlockCipher  # noqa: E402
from repro.native.image import BinaryImage  # noqa: E402
from repro.native.machine import Machine, run_image  # noqa: E402
from repro.native.profiler import Profile, profile_image  # noqa: E402
from repro.native_wm import (  # noqa: E402
    clear_native_releases,
    embed_native,
    extract_native,
)
from repro.vm import tier2  # noqa: E402
from repro.vm._reference import run_module_reference  # noqa: E402
from repro.vm.interpreter import run_module  # noqa: E402
from repro.vm.trace_io import dump_trace  # noqa: E402
from repro.workloads.caffeinemark import (  # noqa: E402
    DEFAULT_INPUT as CAFFEINE_INPUT,
    caffeinemark_module,
)
from repro.workloads.jesslike import (  # noqa: E402
    DEFAULT_INPUT as JESS_INPUT,
    jess_module,
)
from repro.workloads.spec import (  # noqa: E402
    TRAIN_INPUT as SPEC_TRAIN_INPUT,
    spec_native,
)

SCHEMA = "wvm-bench/1"
DEFAULT_BASELINE = os.path.join(HERE, "baseline.json")
DEFAULT_TOLERANCE = 0.20


# -- measurement -------------------------------------------------------------


def _median_iqr(values: List[float]) -> Tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 4:
        return med, max(values) - min(values)
    qs = statistics.quantiles(values, n=4)
    return med, qs[2] - qs[0]


def _time_run(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _engine_pair(
    name: str,
    module_factory: Callable[[], object],
    inputs: List[int],
    trace_mode: Optional[str],
    repeats: int,
    results: Dict[str, dict],
) -> None:
    """Benchmark fast vs reference on one workload/mode, interleaved.

    Interleaving matters: CPU frequency drifts over seconds, so
    alternating ref/fast runs exposes both engines to the same drift
    and keeps the per-repeat ratio honest.
    """
    module = module_factory()
    ref_times: List[float] = []
    fast_times: List[float] = []
    steps = 0
    for _ in range(repeats):
        t_ref, res_ref = _time_run(
            lambda: run_module_reference(module, inputs, trace_mode=trace_mode)
        )
        t_fast, res_fast = _time_run(
            lambda: run_module(module, inputs, trace_mode=trace_mode)
        )
        assert res_ref.steps == res_fast.steps, "engines disagree on steps"
        assert res_ref.output == res_fast.output, "engines disagree on output"
        steps = res_fast.steps
        ref_times.append(t_ref)
        fast_times.append(t_fast)

    mode = trace_mode or "untraced"
    for engine, times in (("reference", ref_times), ("fast", fast_times)):
        med, iqr = _median_iqr(times)
        results[f"vm.{name}.{mode}.{engine}"] = {
            "unit": "seconds",
            "median": med,
            "iqr": iqr,
            "repeats": repeats,
            "steps": steps,
            "steps_per_sec": steps / med,
            "gate": None,
        }
    ratios = [r / f for r, f in zip(ref_times, fast_times)]
    med, iqr = _median_iqr(ratios)
    results[f"vm.{name}.{mode}.speedup"] = {
        "unit": "ratio",
        "median": med,
        "iqr": iqr,
        "repeats": repeats,
        "gate": "min",
    }


def _trace_identity_checks() -> Tuple[bool, bool, bool]:
    """The fast engine must match the reference on jess and CaffeineMark.

    Each program and trace mode runs on the fast engine twice: with a
    cold tier-2 block cache, then warm. Returns whether every trace
    dump was byte-identical, whether the bits the fast engine decodes
    in its run loop equalled the reference decode of the reference
    engine's events, and whether a warm untraced run gave the
    reference's steps and output.
    """
    identical = bits_exact = untraced_exact = True
    for factory, inputs in (
        (jess_module, JESS_INPUT),
        (caffeinemark_module, CAFFEINE_INPUT),
    ):
        module = factory()
        for mode in ("branch", "full"):
            ref = run_module_reference(module, inputs, trace_mode=mode)
            ref_buf = io.StringIO()
            dump_trace(ref.trace, module, ref_buf)
            want = bytes(decode_bits(ref.trace.branch_pairs()))
            tier2.clear_cache()
            for _ in ("cold", "warm"):
                fast = run_module(module, inputs, trace_mode=mode)
                fast_buf = io.StringIO()
                dump_trace(fast.trace, module, fast_buf)
                identical = (identical
                             and ref_buf.getvalue() == fast_buf.getvalue())
                bits_exact = bits_exact and fast.trace.bits == want
        ref = run_module_reference(module, inputs)
        fast = run_module(module, inputs)  # warm from the runs above
        untraced_exact = untraced_exact and (
            (fast.steps, fast.output) == (ref.steps, ref.output)
        )
    return identical, bits_exact, untraced_exact


def _interleaved_pair(
    name: str,
    sides: Tuple[str, str],
    slow: Callable[[], object],
    fast: Callable[[], object],
    repeats: int,
    results: Dict[str, dict],
    same: Callable[[object, object], bool] = operator.eq,
    **extra: object,
) -> bool:
    """Time a slow and a fast implementation of one job, interleaved.

    Interleaved like the engines, so both see the same CPU drift. Each
    side's times land in ``results`` as ``<name>.<side>`` and the
    per-repeat slow/fast ratio as the gated ``<name>.speedup``;
    ``extra`` fields annotate the per-side entries. Returns whether
    ``same(fast result, slow result)`` held on every repeat.
    """
    slow_times: List[float] = []
    fast_times: List[float] = []
    exact = True
    for _ in range(repeats):
        t_slow, want = _time_run(slow)
        t_fast, got = _time_run(fast)
        exact = exact and same(got, want)
        slow_times.append(t_slow)
        fast_times.append(t_fast)
    for side, times in zip(sides, (slow_times, fast_times)):
        med, iqr = _median_iqr(times)
        results[f"{name}.{side}"] = {
            "unit": "seconds",
            "median": med,
            "iqr": iqr,
            "repeats": repeats,
            **extra,
            "gate": None,
        }
    med, iqr = _median_iqr([s / f for s, f in zip(slow_times, fast_times)])
    results[f"{name}.speedup"] = {
        "unit": "ratio",
        "median": med,
        "iqr": iqr,
        "repeats": repeats,
        "gate": "min",
    }
    return exact


def _window_multiset_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """Reference-scan vs packed window counting.

    The bits are one 64-bit jess recognition's: its copy's trace
    string, which every recognition of it slides its windows over.
    Returns whether every packed count equalled the scan's, keys in
    the same order.
    """
    key = WatermarkKey(b"window-multiset", list(JESS_INPUT))
    marked = embed(
        jess_module(), 0x0123456789ABCDEF, key, watermark_bits=64
    ).module
    bits = trace_bitstring(marked, key)
    return _interleaved_pair(
        "bitstring.window_multiset",
        ("scan", "packed"),
        lambda: Counter(w for _, w in sliding_windows(list(bits))),
        lambda: window_multiset(bits),
        repeats,
        results,
        same=lambda got, want: list(got.items()) == list(want.items()),
        bits=len(bits),
    )


def _recognition_windows() -> Tuple[BlockCipher, List[int]]:
    """The distinct trace windows one recognition decrypts, and its cipher.

    A 64-bit mark in CaffeineMark: its self-check recognition opens
    about 4.7k distinct windows, the mint workload's typical batch.
    """
    key = WatermarkKey(b"decrypt-batch", list(CAFFEINE_INPUT))
    marked = embed(
        caffeinemark_module(), 0x0123456789ABCDEF, key, watermark_bits=64
    ).module
    windows = window_multiset(trace_bitstring(marked, key))
    return key.cipher(), list(windows)


def _decrypt_batch_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """Scalar vs batched window decryption.

    Returns whether every batch equalled the scalar map block for block.
    """
    cipher, windows = _recognition_windows()
    return _interleaved_pair(
        "cipher.decrypt_batch",
        ("scalar", "batch"),
        lambda: [cipher.decrypt_block(w) for w in windows],
        lambda: cipher.decrypt_blocks(windows),
        repeats,
        results,
        blocks=len(windows),
    )


def _noop_hook(machine: Machine, eip: int, instr: object) -> None:
    """A ``step_hook`` that observes nothing: its run stays in tier 1."""


def _marked_bzip2() -> BinaryImage:
    return embed_native(
        spec_native("bzip2"), 0x00000000FFFFFFFF, 64, SPEC_TRAIN_INPUT,
        rng_seed=15,
    ).image


def _native_run_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """A hooked vs a plain run of marked bzip2.

    A run with a ``step_hook``, even a no-op one, calls it before every
    step, so it runs wholly in tier 1; a plain run runs hot
    straight-line text as generated Python (``repro.native.tier2``).
    The ratio therefore measures tier 2 over tier 1 plus the hook's
    call: about 5.5. Returns whether every plain run's output and steps
    equalled the hooked run's.
    """
    image = _marked_bzip2()

    def hooked() -> Tuple[List[int], int]:
        result = run_image(image, SPEC_TRAIN_INPUT, step_hook=_noop_hook)
        return result.output, result.steps

    def plain() -> Tuple[List[int], int]:
        result = run_image(image, SPEC_TRAIN_INPUT)
        return result.output, result.steps

    return _interleaved_pair(
        "native.run",
        ("hooked", "run"),
        hooked,
        plain,
        repeats,
        results,
        kernel="bzip2",
    )


def _native_profile_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """A hooked vs a plain profiled run of marked bzip2.

    The hooked run counts every step in tier 1; ``profile_image`` runs
    hot text in tier 2 and counts per stretch. Returns whether every
    profile's counts, first steps, steps and output equalled the hooked
    run's.
    """
    image = _marked_bzip2()

    def hooked() -> tuple:
        profile = Profile()
        result = Machine(image).run(
            SPEC_TRAIN_INPUT, _noop_hook, profile=profile
        )
        return profile.counts, profile.first_seen, result.steps, result.output

    def profiled() -> tuple:
        profile = profile_image(image, SPEC_TRAIN_INPUT)
        return (profile.counts, profile.first_seen, profile.total_steps,
                profile.output)

    return _interleaved_pair(
        "native.profile",
        ("hooked", "profile"),
        hooked,
        profiled,
        repeats,
        results,
        kernel="bzip2",
    )


def _native_extract_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """A plain run of marked bzip2 vs an extraction of its mark.

    Extraction records one run's calls and returns through its handler
    table, and a :class:`CallRecord` leaves only calls, returns and
    the instructions around its entry to tier 1, so both sides run hot
    text in tier 2 and the ratio reads about 1; two runs, or a
    per-instruction hook, would halve it. Returns whether every
    extraction recovered the mark.
    """
    mark, width = 0x00000000FFFFFFFF, 64
    emb = embed_native(
        spec_native("bzip2"), mark, width, SPEC_TRAIN_INPUT, rng_seed=15
    )
    return _interleaved_pair(
        "native.extract",
        ("run", "extract"),
        lambda: run_image(emb.image, SPEC_TRAIN_INPUT).steps,
        lambda: extract_native(
            emb.image, width, emb.begin, emb.end, SPEC_TRAIN_INPUT
        ).watermark,
        repeats,
        results,
        same=lambda got, _steps: got == mark,
        kernel="bzip2",
    )


def _native_release_pair(repeats: int, results: Dict[str, dict]) -> bool:
    """A cold vs a warm ``embed_native`` of bzip2.

    The cold side clears the kept releases first, so it profiles,
    analyses loops, ranks begin edges and lifts the text; the warm side
    reuses that release, makes its program from the kept lifted text
    without decoding the image, places the chain and lowers. Every
    other warm embed goes into an image of equal content whose symbols
    are renamed, so the warm side must anchor the caller's own symbols.
    The ratio reads about 7 (it read 11-15 while the cold side's
    profile ran in tier 1); the gate stays at 1.5. Returns whether
    every warm image's text, data and symbol addresses were identical
    to the cold one's.
    """
    image = spec_native("bzip2")
    renamed = image.copy()
    renamed.symbols = {f"renamed_{n}": a for n, a in image.symbols.items()}
    targets = itertools.cycle((image, renamed))

    def embed(target: BinaryImage) -> Tuple[bytes, bytes, List[int]]:
        emb = embed_native(
            target, 0x00000000FFFFFFFF, 64, SPEC_TRAIN_INPUT, rng_seed=15
        )
        out = emb.image
        return out.text, bytes(out.data), sorted(out.symbols.values())

    def cold() -> Tuple[bytes, bytes, List[int]]:
        clear_native_releases()
        return embed(image)

    return _interleaved_pair(
        "native.embed.release",
        ("cold", "warm"),
        cold,
        lambda: embed(next(targets)),
        repeats,
        results,
        kernel="bzip2",
    )


def _fault_hook_inertness_check() -> dict:
    """Disarmed fault hooks must be free.

    The injection sites sit on production paths (pipeline workers,
    store writes, daemon jobs), which is only acceptable if a process
    with no plan armed pays nothing for them: ``filter_bytes`` must
    hand back the identical object (no copy), and both hooks must
    amortize to a single ``is None`` test. The nanosecond ceilings are
    ~40x what the test machines measure — they catch someone adding
    real work to the disarmed path, not scheduler noise.
    """
    faults.clear()
    payload = b"x" * 4096
    identity = faults.filter_bytes("bench.site", payload) is payload
    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        faults.check("bench.site")
    check_ns = (time.perf_counter() - t0) / calls * 1e9
    t0 = time.perf_counter()
    for _ in range(calls):
        faults.filter_bytes("bench.site", payload)
    filter_ns = (time.perf_counter() - t0) / calls * 1e9
    return {
        "inert": identity and check_ns < 2000.0 and filter_ns < 2000.0,
        "identity_preserved": identity,
        "check_ns_per_call": round(check_ns, 1),
        "filter_ns_per_call": round(filter_ns, 1),
    }


def _figure_benchmarks(results: Dict[str, dict]) -> None:
    """Run the ``benchmarks/test_*`` figure suite under pytest-benchmark.

    Each figure experiment records one honest round; their medians are
    reported for trend-watching but not gated (single rounds on shared
    runners are too noisy for a hard threshold).
    """
    out = os.path.join(HERE, "_figures_bench.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            HERE,
            "-q",
            "--benchmark-only",
            f"--benchmark-json={out}",
        ],
        cwd=REPO,
        env=env,
    )
    if proc.returncode != 0:
        raise SystemExit("figure benchmark suite failed")
    try:
        with open(out) as fp:
            doc = json.load(fp)
    finally:
        if os.path.exists(out):
            os.remove(out)
    for bench in doc.get("benchmarks", []):
        stats = bench["stats"]
        results[f"figures.{bench['name']}"] = {
            "unit": "seconds",
            "median": stats["median"],
            "iqr": stats["iqr"],
            "repeats": stats["rounds"],
            "gate": None,
        }


# -- reporting / gating ------------------------------------------------------


def run_benchmarks(repeats: int, figures: bool) -> dict:
    results: Dict[str, dict] = {}
    print("== interpreter micro-benchmarks ==", flush=True)
    _engine_pair("jess", jess_module, JESS_INPUT, None, repeats, results)
    _engine_pair("jess", jess_module, JESS_INPUT, "branch", repeats, results)
    _engine_pair("jess", jess_module, JESS_INPUT, "full", repeats, results)
    _engine_pair(
        "caffeinemark",
        caffeinemark_module,
        CAFFEINE_INPUT,
        None,
        repeats,
        results,
    )
    trace_identical, bits_exact, untraced_exact = _trace_identity_checks()
    print("== window counting ==", flush=True)
    windows_exact = _window_multiset_pair(repeats, results)
    print("== window decryption ==", flush=True)
    decrypt_exact = _decrypt_batch_pair(repeats, results)
    print("== native runs ==", flush=True)
    run_exact = _native_run_pair(repeats, results)
    print("== native profiles ==", flush=True)
    profile_exact = _native_profile_pair(repeats, results)
    print("== native extraction ==", flush=True)
    extract_exact = _native_extract_pair(repeats, results)
    print("== native releases ==", flush=True)
    release_exact = _native_release_pair(repeats, results)
    fault_hooks = _fault_hook_inertness_check()
    if figures:
        print("== figure reproduction benchmarks ==", flush=True)
        _figure_benchmarks(results)
    return {
        "schema": SCHEMA,
        "generated": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": results,
        "checks": {
            "trace_byte_identical": trace_identical,
            "trace_bits_exact": bits_exact,
            "untraced_exact": untraced_exact,
            "window_multiset_exact": windows_exact,
            "decrypt_batch_exact": decrypt_exact,
            "native_run_exact": run_exact,
            "native_profile_exact": profile_exact,
            "native_extract_exact": extract_exact,
            "native_release_exact": release_exact,
            "fault_hooks": fault_hooks,
        },
    }


def print_report(report: dict) -> None:
    rows = sorted(report["benchmarks"].items())
    width = max(len(name) for name, _ in rows)
    print()
    print(f"{'benchmark'.ljust(width)}  {'median':>12}  {'iqr':>10}  gated")
    for name, entry in rows:
        if entry["unit"] == "ratio":
            med = f"{entry['median']:.2f}x"
        else:
            med = f"{entry['median'] * 1000:.1f}ms"
            if "steps_per_sec" in entry:
                med += f" ({entry['steps_per_sec'] / 1e6:.2f}M st/s)"
        gated = entry["gate"] or "-"
        print(
            f"{name.ljust(width)}  {med:>12}  {entry['iqr']:>10.4f}  {gated}"
        )
    print()
    ident = report["checks"]["trace_byte_identical"]
    print(f"trace byte-identical vs reference engine: {ident}")
    bits = report["checks"]["trace_bits_exact"]
    print(f"in-loop trace bits equal the reference decode: {bits}")
    untraced = report["checks"]["untraced_exact"]
    print(f"warm untraced runs match the reference: {untraced}")
    windows = report["checks"]["window_multiset_exact"]
    print(f"packed window counts equal the reference scan: {windows}")
    exact = report["checks"]["decrypt_batch_exact"]
    print(f"batched window decryption equals the scalar cipher: {exact}")
    ran = report["checks"]["native_run_exact"]
    print(f"plain N32 runs match hooked ones: {ran}")
    profiled = report["checks"]["native_profile_exact"]
    print(f"N32 profiles match hooked runs' profiles: {profiled}")
    extracted = report["checks"]["native_extract_exact"]
    print(f"native extraction recovers marked bzip2's mark: {extracted}")
    release = report["checks"]["native_release_exact"]
    print(
        "warm native embeds (also into a renamed-symbol image) equal cold"
        f" ones byte for byte: {release}"
    )
    hooks = report["checks"].get("fault_hooks")
    if hooks:
        print(
            f"fault hooks inert when disarmed: {hooks['inert']} "
            f"(check {hooks['check_ns_per_call']}ns, "
            f"filter {hooks['filter_ns_per_call']}ns per call)"
        )


def compare_to_baseline(
    report: dict, baseline: dict, tolerance: float
) -> List[str]:
    failures: List[str] = []
    if not report["checks"]["trace_byte_identical"]:
        failures.append(
            "fast engine's trace is not byte-identical to the reference"
        )
    if not report["checks"]["trace_bits_exact"]:
        failures.append(
            "fast engine's trace bits differ from the reference decode"
        )
    if not report["checks"]["untraced_exact"]:
        failures.append(
            "fast engine's warm untraced run differs from the reference"
        )
    if not report["checks"]["window_multiset_exact"]:
        failures.append("packed window counts differ from the reference scan")
    if not report["checks"]["decrypt_batch_exact"]:
        failures.append(
            "batched window decryption differs from the scalar cipher"
        )
    if not report["checks"]["native_run_exact"]:
        failures.append("a plain N32 run differs from a hooked one")
    if not report["checks"]["native_profile_exact"]:
        failures.append("an N32 profile differs from a hooked run's")
    if not report["checks"]["native_extract_exact"]:
        failures.append("native extraction missed marked bzip2's mark")
    if not report["checks"]["native_release_exact"]:
        failures.append("a warm native embed differs from a cold one")
    hooks = report["checks"].get("fault_hooks", {})
    if not hooks.get("inert", True):
        failures.append(
            "disarmed fault hooks are no longer free: "
            f"identity={hooks.get('identity_preserved')}, "
            f"check={hooks.get('check_ns_per_call')}ns, "
            f"filter={hooks.get('filter_ns_per_call')}ns per call"
        )
    for name, base in baseline.get("benchmarks", {}).items():
        gate = base.get("gate")
        if not gate:
            continue
        current = report["benchmarks"].get(name)
        if current is None:
            failures.append(f"{name}: benchmark missing from this run")
            continue
        base_med, cur_med = base["median"], current["median"]
        if gate == "min" and cur_med < base_med * (1.0 - tolerance):
            failures.append(
                f"{name}: {cur_med:.3f} regressed more than "
                f"{tolerance:.0%} below baseline {base_med:.3f}"
            )
        elif gate == "max" and cur_med > base_med * (1.0 + tolerance):
            failures.append(
                f"{name}: {cur_med:.3f} regressed more than "
                f"{tolerance:.0%} above baseline {base_med:.3f}"
            )
    return failures


def write_baseline(report: dict, path: str) -> None:
    """Commit only the gated, machine-independent metrics."""
    gated = {
        name: {
            "unit": entry["unit"],
            "median": round(entry["median"], 4),
            "gate": entry["gate"],
        }
        for name, entry in report["benchmarks"].items()
        if entry["gate"]
    }
    doc = {
        "schema": SCHEMA,
        "generated": report["generated"],
        "note": (
            "Gated ratio metrics only; absolute timings are "
            "machine-dependent and deliberately excluded. Refresh with "
            "`python benchmarks/regression.py --rebaseline`."
        ),
        "benchmarks": gated,
    }
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="measurement repeats per engine"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression of gated medians (default 0.20)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, help="committed baseline path"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="report path (default BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--figures",
        action="store_true",
        help="also run the benchmarks/test_* figure suite (slow)",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="write the report without gating against the baseline",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite the committed baseline from this run's medians",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats, args.figures)
    print_report(report)

    out_path = args.output or os.path.join(
        REPO, f"BENCH_{_dt.date.today().isoformat()}.json"
    )
    with open(out_path, "w") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"report written to {out_path}")

    if args.rebaseline:
        write_baseline(report, args.baseline)
        print(f"baseline rewritten at {args.baseline}")
        return 0
    if args.no_check:
        return 0

    try:
        with open(args.baseline) as fp:
            baseline = json.load(fp)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --rebaseline first")
        return 1
    failures = compare_to_baseline(report, baseline, args.tolerance)
    if failures:
        print("\nREGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall gated metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
