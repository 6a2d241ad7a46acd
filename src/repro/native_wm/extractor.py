"""Native watermark extraction (paper Section 4.2.3).

    "We use a tracer tool that uses hardware single-stepping to obtain
    a dynamic trace of the instructions executed between the time
    control reaches `begin` and when it subsequently reaches `end`.
    This trace is then analyzed to identify the branch function f_w,
    by observing functions that do not return to the instruction
    following the call instruction."

Two tracers are provided, mirroring the discussion of attack 5
(Section 5.2.2):

* :class:`SimpleTracer` — identifies each ``a_i`` as the address of
  the instruction that transferred control *into* the branch
  function's entry. Defeated by the rerouting attack (a trampoline
  ``Y: jmp bf`` makes every transfer-in come from ``Y``).
* :class:`SmartTracer` — reads the branch function's *hash input*
  (the return address at the top of the stack on entry) instead:
  ``a_i = k - 5``. "By constructing a tracer that tracks the value of
  the hash input to the branch function each time it executes [...]
  the original mapping can be easily retrieved."

Both then pair each entry with the address control resumes at when
the branch function's own frame unwinds (``b_i``), and decode bits by
comparing consecutive chain addresses: forward = 1, backward = 0.

One run serves a whole extraction: the machine records its calls and
returns (:class:`~repro.native.machine.CallRecord`), and identifying
the branch function, both tracers' passes and the chain all come from
that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from ..obs.recognition import RecognitionReport

from ..native.image import BinaryImage
from ..native.machine import (
    CALL, CALL_A, ENTRY, CallRecord, record_calls,
)
from .embedder import CALL_LENGTH


@dataclass
class BranchFunctionEvent:
    """One observed pass through the branch function."""

    source: int          # a_i as deduced by the tracer
    resumed_at: int      # b_i: where control resumed after the return


@dataclass
class ExtractionResult:
    """Outcome of one extraction attempt.

    ``events`` holds the *selected chain* (not the full event stream);
    the diagnostic counters describe the stream it was selected from:
    ``events_observed`` passes through the branch function overall,
    split into ``runs_found`` maximal linked runs of the recorded
    ``run_lengths``. A healthy watermark shows one run of length
    ``width + 1`` towering over length-1 obfuscation noise.
    """

    watermark: Optional[int]
    width: int
    events: List[BranchFunctionEvent] = field(default_factory=list)
    bf_entry: Optional[int] = None
    events_observed: int = 0
    runs_found: int = 0
    run_lengths: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.watermark is not None


class SimpleTracer:
    """a_i := address of the instruction that jumped/called into bf."""

    @staticmethod
    def source(arrival: tuple) -> int:
        came_from = arrival[1]
        return came_from if came_from is not None else 0


class SmartTracer:
    """a_i := hash input - 5 (the return address the bf will consume)."""

    @staticmethod
    def source(arrival: tuple) -> int:
        return arrival[3] - CALL_LENGTH


_TRACERS = {"simple": SimpleTracer, "smart": SmartTracer}
_CALLS = (CALL, CALL_A)


def _passes(
    record: CallRecord, bf_entry: int, tracer: str
) -> List[BranchFunctionEvent]:
    """The branch function's passes: each arrival at ``bf_entry``
    paired with where control resumed when its frame unwound.

    A record that watched ``bf_entry`` has its arrivals by address, so
    a trampoline's ``jmp bf`` counts; otherwise the arrivals are the
    calls that landed there. The smart tracer reads the hash input at
    each arrival, and a run in which that read faults would have ended
    there.
    """
    source = _TRACERS[tracer].source
    events = record.events
    if record.entry == bf_entry:
        if tracer == "smart":
            cut = next((i for i, ev in enumerate(events)
                        if ev[0] == ENTRY and ev[3] is None), len(events))
            events = events[:cut]

        def opens(ev: tuple) -> bool:
            return ev[0] == ENTRY
    else:
        def opens(ev: tuple) -> bool:
            return ev[0] in _CALLS and ev[4] == bf_entry
    return [
        BranchFunctionEvent(source(arrival), ret[3])
        for arrival, ret in record.unwind(opens, bf_entry, events)
    ]


def _most_exposed(record: CallRecord) -> Optional[int]:
    """The call target whose calls most often do not return normally:
    a ``ret`` that unwinds the call's frame resumes somewhere other
    than its return address, and the program goes on running there."""
    exposed: Dict[int, int] = {}
    for call, ret in record.unwind(lambda ev: ev[0] in _CALLS):
        if ret[3] != call[3] and record.continued_after(ret):
            exposed[call[4]] = exposed.get(call[4], 0) + 1
    if not exposed:
        return None
    return max(exposed.items(), key=lambda kv: kv[1])[0]


def identify_branch_function(
    image: BinaryImage,
    inputs: Sequence[int],
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Find the routine whose calls do not return normally.

    Follows the call stack of one run; a ret that pops a *different*
    address than its call pushed exposes the callee as a branch
    function. Returns the most frequently exposed call target.
    """
    return _most_exposed(record_calls(image, inputs, max_steps))


def _linked_runs(
    events: List[BranchFunctionEvent],
) -> List[List[BranchFunctionEvent]]:
    """Split events into maximal chains where each pass resumes exactly
    at the next pass's source — the linkage property of a watermark
    chain (``b_i = a_{i+1}``). Obfuscated non-watermark transfers
    through the branch function resume at ordinary code, so they fall
    into runs of length 1."""
    runs: List[List[BranchFunctionEvent]] = []
    current: List[BranchFunctionEvent] = []
    for ev in events:
        if current and current[-1].resumed_at != ev.source:
            runs.append(current)
            current = []
        current.append(ev)
    if current:
        runs.append(current)
    return runs


#: Picks the chain to decode from the passes and their linked runs:
#: returns (chain, width to report, whether the chain has the shape
#: of a watermark).
_Select = Callable[
    [List[BranchFunctionEvent], List[List[BranchFunctionEvent]]],
    Tuple[List[BranchFunctionEvent], int, bool],
]


def _extract(
    image: BinaryImage,
    inputs: Sequence[int],
    width: int,
    tracer: str,
    bf_entry: Optional[int],
    max_steps: Optional[int],
    select: _Select,
) -> ExtractionResult:
    """One traced run, then chain selection and decoding.

    ``bf_entry`` is discovered from the same run when not given;
    ``width`` is the one reported if none is found.
    Consecutive passes decode forward = 1, backward = 0, and only a
    chain in which every pass resumes at the next one's call site does.
    """
    if tracer not in _TRACERS:
        raise ValueError(f"unknown tracer {tracer!r}")
    # A broken (attacked) program may still have yielded events.
    record = record_calls(image, inputs, max_steps, bf_entry)
    if bf_entry is None:
        bf_entry = _most_exposed(record)
        if bf_entry is None:
            return ExtractionResult(None, width)
    events = _passes(record, bf_entry, tracer)
    runs = _linked_runs(events)
    chain, width, shaped = select(events, runs)
    result = ExtractionResult(
        None, width, chain, bf_entry,
        events_observed=len(events),
        runs_found=len(runs),
        run_lengths=[len(r) for r in runs],
    )
    links = list(zip(chain, chain[1:]))
    if shaped and all(a.resumed_at == b.source for a, b in links):
        result.watermark = sum(
            1 << k for k, (a, b) in enumerate(links) if b.source > a.source
        )
    return result


def extract_native_auto(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    width: Optional[int] = None,
    tracer: str = "smart",
    bf_entry: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> ExtractionResult:
    """Extraction with automatic framing (the paper's future work).

    Section 4.2.3 notes the begin/end bracket is "currently supplied
    manually; however, we expect to augment the implementation in the
    near future to use a framing scheme that would allow these
    addresses to be identified automatically". The watermark chain
    identifies *itself*: it is the unique maximal run of branch-
    function passes in which every pass resumes exactly at the next
    pass's call site. We trace, split the event stream into such
    linked runs, and decode the longest (or the one of the expected
    ``width + 1`` length when ``width`` is given).
    """
    def select(events, runs):
        if not runs:
            return [], width or 0, False
        chain = max(runs, key=len)
        if width is not None:
            chain = next((r for r in runs if len(r) == width + 1), chain)
        found = len(chain) - 1
        return chain, width or found, found >= 1 and width in (None, found)

    return _extract(image, inputs, width or 0, tracer, bf_entry, max_steps,
                    select)


def extract_native(
    image: BinaryImage,
    width: int,
    begin: int,
    end: int,
    inputs: Sequence[int] = (),
    tracer: str = "smart",
    bf_entry: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> ExtractionResult:
    """Extract a ``width``-bit watermark.

    ``begin``/``end`` bracket the watermark region ("currently, these
    are supplied manually" — Section 4.2.3). ``bf_entry`` may be given
    or is discovered from the traced run.
    """
    def select(events, runs):
        # The passes from the one starting at `begin` until control
        # resumes at `end`.
        chain: List[BranchFunctionEvent] = []
        for ev in events:
            if chain or ev.source == begin:
                chain.append(ev)
                if ev.resumed_at == end:
                    break
        shaped = (bool(chain) and len(chain) == width + 1
                  and chain[-1].resumed_at == end)
        return chain, width, shaped

    return _extract(image, inputs, width, tracer, bf_entry, max_steps, select)


def native_recognition_report(result: ExtractionResult) -> "RecognitionReport":
    """Structured diagnostics for a native extraction attempt."""
    from ..obs.recognition import RecognitionReport

    report = RecognitionReport(
        scheme="native",
        complete=result.complete,
        value=result.watermark,
        events_observed=result.events_observed,
        runs_found=result.runs_found,
        run_lengths=list(result.run_lengths),
        chain_length=len(result.events),
        bf_entry=result.bf_entry,
        width=result.width,
    )
    if result.bf_entry is None:
        report.notes.append(
            "branch function not identified - no call was observed "
            "returning somewhere other than its fall-through"
        )
    elif not result.events_observed:
        report.notes.append(
            "branch function identified but never passed through on "
            "this input"
        )
    elif not result.complete and result.events:
        want = result.width + 1
        report.notes.append(
            f"selected chain has {len(result.events)} passes but "
            f"{want} are needed for a {result.width}-bit watermark"
        )
    return report
