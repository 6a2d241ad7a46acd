"""One run per native extraction, checked against two hooked passes.

The oracle below is the extractor as it was when it single-stepped the
marked binary with a per-instruction ``step_hook``: one pass found the
branch function (a shadow stack of every call, and a return that lands
elsewhere exposing its callee, checked on the step after), a second
pass traced it (entries detected by address, sources read from the
previous instruction or from the hash input). The extractor now derives
the same results from one :class:`CallRecord` of one run; every
``_extraction`` tuple here must equal the oracle's, for each kernel
clean and under each native attack, both tracers, both extraction
entry points, and with the branch function given or discovered.

The budget tests hold the profiled run and the recording run to the
plain run's fault: same reason, address, step count and machine state
as the pinned ``budget_digest`` of ``test_native_equivalence.py``. A
profile cut by the budget counts exactly the steps that began.

mcf runs in the fast tier; the other kernels are ``slow``.
"""

import collections
import functools
import gc
import random
import weakref

import pytest

from repro.attacks.native import (
    bypass_branch_function,
    double_watermark,
    insert_noops,
    invert_branch_senses,
    observe_call_targets,
    reroute_branch_function,
)
from repro.native import Machine, MachineFault, assemble_text, run_image
from repro.native.machine import EXIT_ADDRESS, CallRecord
from repro.native.profiler import Profile
from repro.native_wm import embed_native, extract_native, extract_native_auto
from repro.native_wm.embedder import CALL_LENGTH
from repro.native_wm.extractor import (
    BranchFunctionEvent,
    ExtractionResult,
    identify_branch_function,
)
from repro.workloads.spec import TRAIN_INPUT
from tests.test_native_equivalence import (
    MARKS,
    PINNED_BUDGET,
    WIDTH,
    _digest,
    _extraction,
    _image,
    _tier,
)

ATTACKS = ("clean", "noop", "inversion", "double", "bypass", "reroute")
KERNELS = _tier(sorted(MARKS), ("mcf",))


# -- the oracle: two hooked passes -------------------------------------


def _oracle_identify(image, inputs, max_steps=None):
    """The most-exposed call target, from a hooked run."""
    machine = Machine(image) if max_steps is None else Machine(
        image, max_steps
    )
    shadow = []  # (esp after the call, expected return, target)
    exposed = {}
    pending = []

    def hook(m, addr, instr):
        if pending:
            expected, target = pending.pop()
            if addr != expected:
                exposed[target] = exposed.get(target, 0) + 1
        mn = instr.mnemonic
        if mn == "call":
            shadow.append(
                (m.regs[4] - 4, addr + instr.length, instr.operands[0].value)
            )
        elif mn == "call_a":
            dest = m.read32(instr.operands[0].disp)
            shadow.append((m.regs[4] - 4, addr + instr.length, dest))
        elif mn == "ret" and shadow:
            esp_after_call, expected, target = shadow[-1]
            if m.regs[4] == esp_after_call:
                shadow.pop()
                pending.append((expected, target))

    try:
        machine.run(inputs, hook)
    except MachineFault:
        pass
    if not exposed:
        return None
    return max(exposed.items(), key=lambda kv: kv[1])[0]


def _oracle_events(image, bf_entry, tracer, inputs, max_steps=None):
    """The branch function's passes, from a hooked run."""
    machine = Machine(image) if max_steps is None else Machine(
        image, max_steps
    )
    events = []
    entries = []  # (esp at entry, source)
    prev = [None]

    def hook(m, addr, instr):
        if addr == bf_entry:
            if tracer == "simple":
                source = prev[0] if prev[0] is not None else 0
            else:
                source = m.read32(m.regs[4]) - CALL_LENGTH
            entries.append((m.regs[4], source))
        elif instr.mnemonic == "ret" and entries:
            esp_entry, source = entries[-1]
            if m.regs[4] == esp_entry:
                resumed = m.read32(m.regs[4])
                entries.pop()
                events.append(BranchFunctionEvent(source, resumed))
        prev[0] = addr

    try:
        machine.run(inputs, hook)
    except MachineFault:
        pass
    return events


def _linked_runs(events):
    runs, current = [], []
    for ev in events:
        if current and current[-1].resumed_at != ev.source:
            runs.append(current)
            current = []
        current.append(ev)
    if current:
        runs.append(current)
    return runs


def _oracle_extract(image, width, begin, end, inputs, tracer, bf_entry,
                    events_of, max_steps=None):
    if bf_entry is None:
        bf_entry = _oracle_identify(image, inputs, max_steps)
        if bf_entry is None:
            return ExtractionResult(None, width)
    events = events_of(bf_entry, tracer)
    chain, collecting = [], False
    for ev in events:
        if not collecting and ev.source == begin:
            collecting = True
        if collecting:
            chain.append(ev)
            if ev.resumed_at == end:
                break
    runs = _linked_runs(events)
    result = ExtractionResult(
        None, width, chain, bf_entry, events_observed=len(events),
        runs_found=len(runs), run_lengths=[len(r) for r in runs],
    )
    if len(chain) != width + 1 or not chain or chain[-1].resumed_at != end:
        return result
    bits = [1 if chain[i + 1].source > chain[i].source else 0
            for i in range(width)]
    for i in range(width):
        if chain[i].resumed_at != chain[i + 1].source:
            return result
    result.watermark = sum(b << k for k, b in enumerate(bits))
    return result


def _oracle_auto(image, inputs, width, tracer, bf_entry, events_of,
                 max_steps=None):
    if bf_entry is None:
        bf_entry = _oracle_identify(image, inputs, max_steps)
        if bf_entry is None:
            return ExtractionResult(None, width or 0)
    events = events_of(bf_entry, tracer)
    runs = _linked_runs(events)
    if not runs:
        return ExtractionResult(None, width or 0, [], bf_entry,
                                events_observed=len(events))
    if width is not None:
        fitting = [r for r in runs if len(r) == width + 1]
        chain = fitting[0] if fitting else max(runs, key=len)
    else:
        chain = max(runs, key=len)
    found = len(chain) - 1
    result = ExtractionResult(
        None, width or found, chain, bf_entry, events_observed=len(events),
        runs_found=len(runs), run_lengths=[len(r) for r in runs],
    )
    if found < 1 or (width is not None and found != width):
        return result
    bits = [1 if chain[i + 1].source > chain[i].source else 0
            for i in range(found)]
    result.watermark = sum(b << k for k, b in enumerate(bits))
    return result


def _oracle_observe(image, bf_entry, inputs):
    """(call address, realized target) of each ``call bf``, hooked."""
    pairs, stack = [], []

    def hook(m, addr, instr):
        if instr.mnemonic == "call" and instr.operands[0].value == bf_entry:
            stack.append((addr, m.regs[4] - 4))
        elif instr.mnemonic == "ret" and stack:
            call_addr, esp_after = stack[-1]
            if m.regs[4] == esp_after:
                stack.pop()
                pairs.append((call_addr, m.read32(m.regs[4])))

    try:
        Machine(image).run(inputs, hook)
    except MachineFault:
        pass
    return pairs


# -- the cases ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _embedding(name):
    mark, seed = MARKS[name]
    return embed_native(_image(name), mark, WIDTH, TRAIN_INPUT, rng_seed=seed)


@functools.lru_cache(maxsize=None)
def _attacked(name, attack):
    """The marked kernel under one attack, as ``run_native_attack_suite``
    builds it."""
    emb = _embedding(name)
    image, rng = emb.image, random.Random(2004)
    if attack == "clean":
        return image
    if attack == "noop":
        return insert_noops(image, 1, rng, at_start=True)
    if attack == "inversion":
        return invert_branch_senses(image, 1.0, rng)
    if attack == "double":
        return double_watermark(image, 0x5A5A, 16, TRAIN_INPUT)
    if attack == "bypass":
        return bypass_branch_function(image, emb.bf_entry, TRAIN_INPUT)
    return reroute_branch_function(image, emb.bf_entry, TRAIN_INPUT)


@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("name", KERNELS)
def test_one_pass_extraction_equals_two_hooked_passes(name, attack):
    emb = _embedding(name)
    image = _attacked(name, attack)
    # No-op insertion sends mcf into an endless loop: four times the
    # marked run's length ends it on the budget.
    budget = 4 * run_image(emb.image, TRAIN_INPUT).steps
    hooked = functools.lru_cache(maxsize=None)(
        lambda bf, tracer: _oracle_events(image, bf, tracer, TRAIN_INPUT,
                                          budget)
    )
    for tracer in ("simple", "smart"):
        for bf_entry in (emb.bf_entry, None):
            case = (tracer, "given" if bf_entry else "discovered")
            got = extract_native(image, WIDTH, emb.begin, emb.end,
                                 TRAIN_INPUT, tracer=tracer,
                                 bf_entry=bf_entry, max_steps=budget)
            want = _oracle_extract(image, WIDTH, emb.begin, emb.end,
                                   TRAIN_INPUT, tracer, bf_entry, hooked,
                                   budget)
            assert _extraction(got) == _extraction(want), ("extract",) + case
            for width in (WIDTH, None):
                got = extract_native_auto(image, TRAIN_INPUT, width=width,
                                          tracer=tracer, bf_entry=bf_entry,
                                          max_steps=budget)
                want = _oracle_auto(image, TRAIN_INPUT, width, tracer,
                                    bf_entry, hooked, budget)
                assert _extraction(got) == _extraction(want), (
                    ("auto", width) + case
                )
    if attack in ("clean", "reroute"):
        assert _extraction(extract_native(
            image, WIDTH, emb.begin, emb.end, TRAIN_INPUT
        ))[0] == MARKS[name][0]


@pytest.mark.parametrize("name", KERNELS)
def test_call_targets_equal_the_hooked_observation(name):
    emb = _embedding(name)
    got = observe_call_targets(emb.image, emb.bf_entry, TRAIN_INPUT)
    assert got == _oracle_observe(emb.image, emb.bf_entry, TRAIN_INPUT)
    assert len(got) >= WIDTH + 1


@pytest.mark.parametrize("bf_given", [True, False])
@pytest.mark.parametrize("api", ["extract_native", "extract_native_auto"])
def test_one_extraction_is_one_run(monkeypatch, api, bf_given):
    emb = _embedding("mcf")
    runs = []
    run = Machine.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    bf_entry = emb.bf_entry if bf_given else None
    if api == "extract_native":
        got = extract_native(emb.image, WIDTH, emb.begin, emb.end,
                             TRAIN_INPUT, bf_entry=bf_entry)
    else:
        got = extract_native_auto(emb.image, TRAIN_INPUT, width=WIDTH,
                                  bf_entry=bf_entry)
    assert got.watermark == MARKS["mcf"][0]
    assert len(runs) == 1


def _budget_digest(name, run):
    """``budget_digest`` of the equivalence net, through ``run``."""
    budget = run_image(_image(name), TRAIN_INPUT).steps // 2
    machine = Machine(_image(name), budget)
    with pytest.raises(MachineFault) as info:
        run(machine)
    return _digest(str(info.value), info.value.reason, info.value.eip,
                   machine.steps, machine.eip, machine.regs, machine.output)


#: sha256 of (sorted counts, sorted first_seen) of the train run cut
#: halfway, captured when a profiled run counted in a twin of the run
#: loop.
PINNED_CUT_PROFILE = {
    "bzip2": "00adcff62505dd592065f6f17d8cd4bd90f4383a13004259ea8175a0d9120ede",
    "gcc": "f4fda23c583d4788c4ab3e15c6fd1f98db1ac16c1ebb94c468ec9306c56241d3",
    "mcf": "a95765fe431d64da9a43cc24ea69007a187c300d24c6f5951990d4bd20f14270",
    "vortex": "1058724cd1dda2e52789edcf42f579b4bee3ad82c347de84ace72a2e90514879",
    "vpr": "bb3dd5fa35b378bed7ba4037e159a332e2a39a1128e63ff93285e3dbe095e662",
}


@pytest.mark.parametrize("name", KERNELS)
def test_profiled_loop_faults_like_a_plain_run(name):
    profile = Profile()
    digest = _budget_digest(
        name, lambda m: m.run(TRAIN_INPUT, profile=profile)
    )
    assert digest == PINNED_BUDGET[name]
    # The step the budget cut never began, so nothing counts it.
    budget = run_image(_image(name), TRAIN_INPUT).steps // 2
    assert sum(profile.counts.values()) == budget
    assert _digest(sorted(profile.counts.items()),
                   sorted(profile.first_seen.items())) == (
        PINNED_CUT_PROFILE[name]
    )


def test_profile_cut_by_the_budget_counts_the_steps_that_began():
    """At every budget, a profile equals the count of the addresses a
    ``step_hook`` saw: an address first reached by the cut step is in
    neither map."""
    image = assemble_text(EDGE_SRC.format(target="elsewhere"))
    whole = Machine(image, 10_000)
    whole.run()
    fresh_cuts = 0
    for budget in range(1, whole.steps + 2):
        began, profile = [], Profile()
        for kwargs in ({"step_hook": lambda m, a, i: began.append(a)},
                       {"profile": profile}):
            machine = Machine(image, budget)
            try:
                machine.run((), **kwargs)
            except MachineFault:
                pass
        first_seen = {}
        for seq, addr in enumerate(began):
            first_seen.setdefault(addr, seq)
        assert profile.counts == dict(collections.Counter(began)), budget
        assert profile.first_seen == first_seen, budget
        if budget <= whole.steps and machine.eip not in began:
            fresh_cuts += 1
    assert fresh_cuts  # some cut steps were their address's first


@pytest.mark.parametrize("entry", ["none", "program entry"])
@pytest.mark.parametrize("name", KERNELS)
def test_recording_run_faults_like_a_plain_run(name, entry):
    watch = _image(name).entry if entry == "program entry" else None
    record = CallRecord(watch)
    digest = _budget_digest(
        name, lambda m: m.run(TRAIN_INPUT, calls=record)
    )
    assert digest == PINNED_BUDGET[name]
    # The step the budget cut never began.
    assert record.began == run_image(_image(name), TRAIN_INPUT).steps // 2
    assert any(ev[0] == "ret" for ev in record.events)


# -- where a run ends right after a return ------------------------------

#: ``f`` rewrites its return address to ``{target}`` and returns there.
#: The oracle confirms an exposed return on the step after it, so a run
#: that ends at that step (exit, an unbindable address, the budget)
#: exposes nothing. ``g`` is passed through by calls, and once entered
#: by a jump with an unreadable stack, which ends the smart tracer's
#: hooked run (it reads the hash input there) but not the program.
EDGE_SRC = """
.entry main
main:
    mov ebx, esp
    sub ebx, 4
    call g
    call f
    mov eax, 1
    sys_out
    halt
elsewhere:
    mov eax, 2
    sys_out
    push done
    mov ebx, esp
    mov esp, 4
    jmp g
done:
    mov ebx, esp
    sub ebx, 4
    call g
    halt
f:
    mov eax, {target}
    mov [esp+0], eax
    ret
g:
    mov esp, ebx
    ret
"""
EDGE_TARGETS = {"elsewhere": "elsewhere", "unbindable": "5",
                "exit": str(EXIT_ADDRESS)}


@pytest.mark.parametrize("target", sorted(EDGE_TARGETS))
def test_runs_ending_after_a_return_match_the_oracle(target):
    image = assemble_text(EDGE_SRC.format(target=EDGE_TARGETS[target]))
    whole = Machine(image, 10_000)
    try:
        whole.run()
    except MachineFault:
        pass
    for budget in range(1, whole.steps + 2):
        assert identify_branch_function(image, (), budget) == (
            _oracle_identify(image, (), budget)
        ), budget
        for tracer in ("simple", "smart"):
            for bf_entry in (image.symbol("f"), image.symbol("g"), None):
                def hooked(bf, tr):
                    return _oracle_events(image, bf, tr, (), budget)

                got = extract_native_auto(image, (), tracer=tracer,
                                          bf_entry=bf_entry,
                                          max_steps=budget)
                want = _oracle_auto(image, (), None, tracer, bf_entry,
                                    hooked, budget)
                assert _extraction(got) == _extraction(want), (
                    budget, tracer, bf_entry
                )


@pytest.mark.parametrize("instrument", ["calls", "watched calls", "profile"])
def test_instrumented_machine_is_freed_without_the_collector(instrument):
    """Wrapped handlers die with the run's table: nothing the record or
    the profile keeps refers back to the machine."""
    image = assemble_text(EDGE_SRC.format(target="elsewhere"))
    kwargs = {
        "calls": {"calls": CallRecord()},
        "watched calls": {"calls": CallRecord(image.symbol("g"))},
        "profile": {"profile": Profile()},
    }[instrument]
    gc.disable()
    try:
        machine = Machine(image)
        machine.run((), **kwargs)
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()
