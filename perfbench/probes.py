"""Per-layer timing from outside the program.

:class:`Probes` wraps named public functions of the program's modules,
records a span around each call (thread-local nesting, so the serving
daemon's worker thread keeps its own stack) and counts work at the same
boundaries. ``uninstall`` puts every original back, and
``assert_pristine`` checks, by identity, that nothing wrapped remains.
Nothing under ``src/`` changes: a function is wrapped in every module
that holds it (the program's and the workload modules), because modules
bind imported names at import time.

Span names are ``<layer>.<operation>``. A span's *self* time is its time
minus the time of the wrapped calls nested directly inside it; time in
no span at all is the op's *unattributed* time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

MARK = "_perfbench_probe"


class Stats:
    """Span times, self times, call counts and work counts of one op."""

    def __init__(self) -> None:
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        #: Time inside outermost spans (any thread).
        self.covered = 0.0


# -- what gets wrapped -------------------------------------------------------


def _run_mode(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("trace_mode", args[2] if len(args) > 2 else None)
    return f"vm.run_{mode or 'plain'}"


def _after_run_module(probe, name, args, kwargs, result) -> None:
    if result is not None:
        probe.stats.count[f"{name}.steps"] += result.steps


def _after_site_snapshots(probe, name, args, kwargs, result) -> None:
    probe.stats.count["vm.site_snapshots_points_scanned"] += len(args[0].points)


def _piece_counter(metric: str) -> Callable:
    def after(probe, name, args, kwargs, result) -> None:
        if result is not None:
            probe.stats.count[metric] += 1
    return after


def _after_recognize_bits(probe, name, args, kwargs, result) -> None:
    """Window counts from the bits handed to ``recognize_bits``, and the
    candidate funnel from its result."""
    bits = bytes(args[0])
    count = probe.stats.count
    windows = max(0, len(bits) - 63)
    count["core.windows"] += windows
    count["core.distinct_windows"] += len(
        {bits[i:i + 64] for i in range(windows)}
    )
    if result is not None:
        count["core.candidates"] += result.candidates_found
        count["core.candidates_after_voting"] += result.candidates_after_voting
        count["core.accepted"] += len(result.accepted)


def _after_machine_run(probe, name, args, kwargs, result) -> None:
    probe.stats.count["native.steps"] += args[0].steps
    if probe.inside("native_wm.extract"):
        probe.stats.count["native_wm.extract_runs"] += 1


def _decode_name(args: tuple, kwargs: dict) -> str:
    return f"codec.decode.{args[0].spec}"


#: (module, attribute or Class.method, span name, after-hook, only in module).
#: A span name ``None`` makes a count-only wrapper instead, counting into
#: the name in the hook's place: for calls too frequent to time one by one.
TARGETS: List[Tuple[str, str, Any, Optional[Callable], bool]] = [
    ("repro.lang.codegen_vm", "compile_source", "lang.compile", None, False),
    ("repro.lang.codegen_native", "compile_source_native", "lang.compile",
     None, False),
    ("repro.vm.interpreter", "run_module", _run_mode, _after_run_module, False),
    ("repro.vm.tracing", "Trace.site_snapshots", "vm.site_snapshots",
     _after_site_snapshots, False),
    ("repro.vm.verifier", "verify_module", "vm.verify", None, False),
    ("repro.vm.rewriter", "insert_at_site", "vm.insert", None, False),
    ("repro.vm.disassembler", "disassemble", "vm.disassemble", None, False),
    ("repro.vm.assembler", "assemble", "vm.assemble", None, False),
    ("repro.bytecode_wm.embedder", "embed", "bytecode_wm.embed", None, False),
    ("repro.bytecode_wm.condition_codegen", "generate_condition_piece",
     "bytecode_wm.codegen", _piece_counter("bytecode_wm.pieces_condition"),
     False),
    ("repro.bytecode_wm.loop_codegen", "generate_loop_piece",
     "bytecode_wm.codegen", _piece_counter("bytecode_wm.pieces_loop"), False),
    ("repro.bytecode_wm.recognizer", "recognize", "bytecode_wm.recognize",
     None, False),
    ("repro.bytecode_wm.recognizer", "recognize_bits",
     "bytecode_wm.recognize_bits", _after_recognize_bits, False),
    ("repro.core.bitstring", "decode_bits", "bytecode_wm.decode_bits", None,
     False),
    ("repro.codec.gcrt", "GcrtCodec.encode", "codec.encode", None, False),
    ("repro.codec.rs", "ReedSolomonCodec.encode", "codec.encode", None, False),
    ("repro.codec.gcrt", "GcrtCodec.decode", _decode_name, None, False),
    ("repro.codec.rs", "ReedSolomonCodec.decode", _decode_name, None, False),
    ("repro.core.recovery", "recover", "core.recover", None, False),
    ("repro.core.recovery", "extract_candidates", "core.extract_candidates",
     None, False),
    ("repro.core.recovery", "hold_votes", "core.vote", None, False),
    ("repro.core.recovery", "apply_vote_filter", "core.vote", None, False),
    # Splitting also combines by CRT; only recognition's CRT is timed.
    ("repro.core.recovery", "generalized_crt", "core.crt", None, True),
    ("repro.core.cipher", "BlockCipher.decrypt_block", None, "core.decrypts",
     False),
    ("repro.pipeline.prepare", "prepare", "pipeline.prepare", None, False),
    ("repro.pipeline.batch", "embed_copy", "pipeline.embed_copy", None, False),
    ("repro.pipeline.batch", "load_prepared_artifact",
     "pipeline.load_artifact", None, False),
    ("repro.serve.store", "ArtifactStore.load", "pipeline.artifact_load",
     None, False),
    ("repro.pipeline.batch", "service_embed_copy", "serve.job", None, False),
    ("repro.pipeline.batch", "service_recognize", "serve.job", None, False),
    ("repro.native.machine", "Machine.run", "native.run", _after_machine_run,
     False),
    ("repro.native.profiler", "profile_image", "native.profile", None, False),
    ("repro.native.rewriter", "lift", "native.lift", None, False),
    ("repro.native.rewriter", "lower", "native.lower", None, False),
    ("repro.native_wm.embedder", "embed_native", "native_wm.embed", None,
     False),
    ("repro.native_wm.extractor", "identify_branch_function",
     "native_wm.identify", None, False),
    ("repro.native_wm.extractor", "extract_native", "native_wm.extract", None,
     False),
]


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, original object) of one target."""
    owner: Any = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, vars(owner)[attr]


def _holder_modules() -> List[Any]:
    """The program's modules, and the benchmark's own workload modules,
    which call the program through names they imported."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (
            name == "repro" or name.startswith("repro.")
            or name.startswith("wl_")
        )
    ]


class Probes:
    """Install, collect and remove the wrappers of :data:`TARGETS`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.stats = Stats()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Every target's original, resolved before anything is wrapped.
        self.originals = [_resolve(t[0], t[1]) for t in TARGETS]

    # -- collection ---------------------------------------------------------

    def take(self) -> Stats:
        """Hand over what was recorded since the last call and start afresh."""
        stats, self.stats = self.stats, Stats()
        return stats

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open on this thread?"""
        return any(frame[0] == name for frame in self._stack())

    def _span(self, fn: Callable, name: Any, after: Optional[Callable]) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            stack = probe._stack()
            frame = [label, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats = probe.stats
                stats.time[label] += elapsed
                stats.self_time[label] += elapsed - frame[1]
                stats.calls[label] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    stats.covered += elapsed
                if after is not None:
                    after(probe, label, args, kwargs, result)

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, fn: Callable, metric: str) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            probe.stats.count[metric] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        modules = _holder_modules()
        for target, (owner, attr, original) in zip(TARGETS, self.originals):
            _module, _attr, name, after, local_only = target
            if name is None:
                wrapper = self._counter(original, after)
            else:
                wrapper = self._span(original, name, after)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                scope = [owner] if local_only else modules
                holders = [
                    (mod, key) for mod in scope
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []
        # A module first imported while the probes were in place bound
        # wrappers of its own; unwrap those too.
        for holder, key, value in self._leftovers():
            setattr(holder, key, value.__wrapped__)

    def _leftovers(self) -> List[Tuple[Any, str, Any]]:
        holders = _holder_modules() + [
            owner for owner, _a, _o in self.originals if isinstance(owner, type)
        ]
        return [
            (holder, key, value)
            for holder in holders
            for key, value in list(vars(holder).items())
            if getattr(value, MARK, False) is True
        ]

    def assert_pristine(self) -> None:
        """Every target is its original function, by identity, and no
        wrapper is left anywhere in the program's modules."""
        changed = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.originals
            if vars(owner)[attr] is not original
        ]
        changed += [
            f"{getattr(holder, '__name__', holder)}.{key}"
            for holder, key, _v in self._leftovers()
        ]
        if changed:
            raise RuntimeError(
                "functions not restored after tracing: " + ", ".join(changed)
            )
