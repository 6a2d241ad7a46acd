"""Tier 2 of the N32 machine against tier 1.

A run with a ``step_hook`` wraps every handler, so it runs wholly in
tier 1: a no-op hook makes it the oracle. Every case here compares a
plain run with that oracle, twice: with a cold stretch cache, then
warm. Compared: output, steps, eip, registers, flags, data and stack
bytes, and the fault's reason and address. A profiled run counts its
stretches' runs per stretch; its profile is compared with a hooked
profiled run's: counts, first steps, steps, output and fault.

The SPEC kernels run with the default promotion threshold; the
instruction forms and the fault positions, whose programs run once,
with a threshold of one arrival, so that every stretch they hold runs
in tier 2.
"""

import hashlib
import random
import sys
import threading

import pytest

from repro.native import (
    DataBlock,
    Imm,
    Label,
    Machine,
    MachineFault,
    Mem,
    Profile,
    Reg,
    SymMem,
    TEXT_BASE,
    assemble_text,
    build_image,
    ni,
    profile_image,
    run_image,
)
from repro.native import tier2
from repro.native.machine import DEFAULT_MAX_STEPS, CallRecord, record_calls
from repro.native_wm import embed_native
from repro.workloads.spec import (
    REF_INPUT,
    SPEC_PROGRAMS,
    TRAIN_INPUT,
)
from tests import test_native_machine as machine_tests
from tests import test_native_one_pass as one_pass_tests
from tests.test_native_equivalence import (
    EDGE_VALUES,
    FAST_KERNELS,
    OPERATION_FORMS,
    OPERATIONS,
    _image,
    _tier,
)


def _noop(machine, addr, instr):
    pass


def _observe(image, inputs=(), max_steps=DEFAULT_MAX_STEPS, hook=False,
             calls=None):
    """Everything a run leaves behind, run plainly or with a no-op
    hook (tier 1 only)."""
    machine = Machine(image, max_steps)
    try:
        machine.run(inputs, _noop if hook else None, calls=calls)
        fault = None
    except MachineFault as exc:
        fault = (exc.reason, exc.eip)
    return (
        list(machine.output), machine.steps, machine.eip,
        list(machine.regs), machine.flags_val,
        hashlib.sha256(machine._data).hexdigest(),
        hashlib.sha256(machine._stack).hexdigest(), fault,
    )


def _cold_then_warm(image, inputs=(), max_steps=DEFAULT_MAX_STEPS):
    """The oracle's observation, asserting both tier-2 runs equal it."""
    want = _observe(image, inputs, max_steps, hook=True)
    tier2.clear_cache()
    for cache in ("cold", "warm"):
        assert _observe(image, inputs, max_steps) == want, cache
    return want


def _profiled(image, inputs=(), max_steps=DEFAULT_MAX_STEPS, hook=False,
              calls=None):
    """A profiled run's profile, and its fault, run plainly or with a
    no-op hook (tier 1 only)."""
    profile = Profile()
    machine = Machine(image, max_steps)
    try:
        machine.run(inputs, _noop if hook else None, calls=calls,
                    profile=profile)
        fault = None
    except MachineFault as exc:
        fault = (exc.reason, exc.eip)
    return (profile.counts, profile.first_seen, machine.steps,
            list(machine.output), fault)


def _profiles_cold_then_warm(image, inputs=(), max_steps=DEFAULT_MAX_STEPS):
    """The hooked profile, asserting both tier-2 profiles equal it."""
    want = _profiled(image, inputs, max_steps, hook=True)
    tier2.clear_cache()
    for cache in ("cold", "warm"):
        assert _profiled(image, inputs, max_steps) == want, cache
    return want


@pytest.fixture
def eager(monkeypatch):
    """Generate every stretch on its first arrival."""
    monkeypatch.setattr(tier2, "_THRESHOLD", 1)


# -- exactness -------------------------------------------------------------


@pytest.mark.parametrize("name", _tier(SPEC_PROGRAMS, FAST_KERNELS))
@pytest.mark.parametrize("which", ["train", "ref"])
def test_kernel_runs_equal_tier1(name, which):
    inputs = TRAIN_INPUT if which == "train" else REF_INPUT
    before = tier2.generated()
    _cold_then_warm(_image(name), inputs)
    assert tier2.generated() > before  # tier 2 ran


@pytest.mark.parametrize("name", _tier(SPEC_PROGRAMS, FAST_KERNELS))
@pytest.mark.parametrize("which", ["train", "ref"])
def test_kernel_profiles_equal_hooked_profiles(name, which):
    inputs = TRAIN_INPUT if which == "train" else REF_INPUT
    image = _image(name)
    want = _profiled(image, inputs, hook=True)
    assert want[-1] is None
    tier2.clear_cache()
    before = tier2.generated()
    for cache in ("cold", "warm"):
        profile = profile_image(image, inputs)
        assert (profile.counts, profile.first_seen, profile.total_steps,
                profile.output, None) == want, cache
    assert tier2.generated() > before  # tier 2 ran


def test_only_hooked_runs_stay_in_tier1(eager):
    """A hooked run generates nothing; a profiled one does, and after a
    plain run finds every stretch it runs cached."""
    image = _image("mcf")
    tier2.clear_cache()
    Machine(image).run(TRAIN_INPUT, _noop)
    assert tier2.cache_size() == 0
    profile_image(image, TRAIN_INPUT)
    assert tier2.cache_size() > 0
    tier2.clear_cache()
    run_image(image, TRAIN_INPUT)
    before = tier2.generated()
    profile_image(image, TRAIN_INPUT)
    assert tier2.generated() == before


_JUMPS = ("je", "jne", "jl", "jle", "jg", "jge")
#: Edge values for the fast tier: zero, both signs, both extremes.
_FEW_VALUES = (0, -1, 33, -0x80000000)


@pytest.mark.parametrize("values", [
    _FEW_VALUES, pytest.param(EDGE_VALUES, marks=pytest.mark.slow),
], ids=["few", "all"])
def test_every_form_on_edge_operands(eager, values):
    """The forms of ``test_native_equivalence.operations_digest``. For
    each conditional jump, a stretch ends with the form and the jump;
    a second stretch starts with the same jump, which reads the flags
    the first one stored. ``lea`` keeps the flags while it records the
    outcomes. The last stretch ends before ``halt``, so the exit stores
    the flags the form set."""
    for mnemonic, form in OPERATIONS:
        for a in values:
            for b in values:
                redo = [
                    ni("mov_ri", Reg("eax"), Imm(a)),
                    ni("mov_ri", Reg("ecx"), Imm(b)),
                    ni("mov_mr", Mem(base="esp", disp=0), Reg("ecx")),
                    ni(mnemonic, *OPERATION_FORMS[form](a, b)),
                ]
                items = [("label", "main"), ni("push", Reg("ecx"))]
                for k, jcc in enumerate(_JUMPS):
                    items += redo + [
                        ni(jcc, Label(f"first{k}")),
                        ni("lea", Reg("esi"), Mem(base="esi", disp=1 << k)),
                        ("label", f"first{k}"),
                        ni(jcc, Label(f"second{k}")),
                        ni("lea", Reg("edi"), Mem(base="edi", disp=1 << k)),
                        ("label", f"second{k}"),
                    ]
                items += redo + [
                    ni("pushf"),
                    ni("pop", Reg("edx")),
                    ni("mov_rm", Reg("ebx"), Mem(base="esp", disp=0)),
                    ni("halt"),
                ]
                _cold_then_warm(build_image(items))


def test_stack_register_and_indirect_forms(eager):
    """Pushes and pops of esp, exchanges, indexed and absolute operands,
    and the indirect transfers, in stretches with and without a
    :class:`CallRecord`."""
    eax, ecx, edx, ebx, esp, esi, edi = (
        Reg(r) for r in ("eax", "ecx", "edx", "ebx", "esp", "esi", "edi")
    )
    image = build_image([
        ("label", "main"),
        ni("mov_ri", ecx, Imm(2)),
        ni("mov_rx", eax, SymMem("table", index="ecx")),
        ni("push", esp),
        ni("pop", ebx),
        ni("mov_rr", edx, esp),
        ni("push", edx),
        ni("pop", esp),
        ni("xchg_rr", eax, ecx),
        ni("xchg_rr", edx, edx),
        ni("lea", esi, Mem(base="ebx", disp=-12)),
        ni("pushi", Imm(77)),
        ni("xchg_rm", edi, Mem(base="esp", disp=0)),
        ni("pop", esi),
        ni("mov_mi", SymMem("table"), Imm(-5)),
        ni("add_rm", eax, SymMem("table")),
        ni("not", eax),
        ni("neg", ecx),
        ni("shl_rr", eax, ecx),
        ni("sar_ri", edi, Imm(3)),
        ni("mov_ri", edx, Label("func")),
        ni("mov_ar", SymMem("cell"), edx),
        ni("call_a", SymMem("cell")),
        ni("mov_ri", edx, Label("done")),
        ni("jmp_r", edx),
        ni("halt"),
        ("label", "func"),
        ni("mov_ri", edx, Label("back")),
        ni("mov_ar", SymMem("cell"), edx),
        ni("imul_rri", ebx, eax, Imm(-3)),
        ni("jmp_a", SymMem("cell")),
        ("label", "back"),
        ni("xor_mr", SymMem("table", offset=4), ebx),
        ni("ret"),
        ("label", "done"),
        ni("cmp_mi", SymMem("table", offset=4), Imm(9)),
        ni("halt"),
    ], [DataBlock("table", [10, 20, 30, 40]), DataBlock("cell", [0])])
    assert _cold_then_warm(image)[-1] is None
    for cache in ("cold", "warm"):
        if cache == "cold":
            tier2.clear_cache()
        oracle, got = CallRecord(), CallRecord()
        assert _observe(image, hook=True, calls=oracle) == (
            _observe(image, calls=got)
        )
        assert (got.events, got.began) == (oracle.events, oracle.began)


LOOP_SRC = """
.entry main
.word total 0
main:
    mov ecx, 12
again:
    push ecx
    mov eax, [total]
    add eax, ecx
    mov [total], eax
    call square
    pop edx
    sub ecx, 1
    jg again
    mov eax, [total]
    sys_out
    halt
square:
    mov ebx, [esp+4]
    imul ebx, ebx
    xchg ebx, [esp+4]
    pushf
    cmp ebx, 6
    popf
    ret
"""


def test_every_budget_of_a_loop():
    """Each budget cuts the run at another step, inside or between
    stretches; a stretch that could cross it runs as tier-1 steps."""
    image = assemble_text(LOOP_SRC)
    whole = run_image(image)
    assert whole.output == [78]
    for budget in range(1, whole.steps + 2):
        want = _cold_then_warm(image, max_steps=budget)
        assert (want[-1] is None) == (budget >= whole.steps), budget
        for cache in ("cold", "warm"):
            if cache == "cold":
                tier2.clear_cache()
            oracle, got = CallRecord(), CallRecord()
            assert _observe(image, (), budget, hook=True, calls=oracle) == (
                _observe(image, (), budget, calls=got)
            )
            assert (got.events, got.began) == (oracle.events, oracle.began)


#: A loop whose load reads text on every other turn: the stretch at
#: ``again`` bails after one instruction on its first run and runs
#: whole on its second, and the one at ``rest`` lies inside it.
BAIL_SRC = """
.entry main
.word cell 7
main:
    mov ecx, 9
    mov ebx, main
    mov esi, cell
    jmp again
again:
    add edi, 1
    mov eax, [ebx]
rest:
    add edx, eax
    xchg ebx, esi
    sub ecx, 1
    jg again
    mov eax, edx
    sys_out
    halt
"""


@pytest.mark.parametrize("src", ["loop", "bail"])
def test_every_budget_of_a_profiled_loop(eager, src):
    """A stretch's runs, whole or cut short by a bail, count in the
    profile as the hooked run's steps do, wherever the budget cuts."""
    image = assemble_text(LOOP_SRC if src == "loop" else BAIL_SRC)
    whole = run_image(image)
    for budget in range(1, whole.steps + 2):
        want = _profiles_cold_then_warm(image, max_steps=budget)
        assert (want[-1] is None) == (budget >= whole.steps), budget


#: A stretch of six instructions; a faulting one goes at each position.
_FILLER = [
    ni("mov_ri", Reg("edx"), Imm(3)),
    ni("push", Reg("edx")),
    ni("add_ri", Reg("edx"), Imm(5)),
    ni("pop", Reg("esi")),
    ni("xor_rr", Reg("esi"), Reg("edx")),
    ni("mov_rr", Reg("edi"), Reg("esi")),
]
_FAULTS = {
    "wild read": (ni("mov_ra", Reg("eax"), Mem(disp=0x100)), "bad read"),
    "wild write": (ni("mov_ar", Mem(disp=0x100), Reg("eax")), "bad write"),
    "write to text": (
        ni("mov_ar", Mem(disp=TEXT_BASE), Reg("eax")), "write to text"
    ),
    "division by zero": (ni("idiv", Reg("ecx")), "division by zero"),
    "input exhausted": (ni("sys_in"), "input exhausted"),
    "read of text": (ni("mov_ra", Reg("eax"), Mem(disp=TEXT_BASE)), None),
}


@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_a_fault_at_each_position_of_a_stretch(eager, kind):
    instr, reason = _FAULTS[kind]
    for position in range(len(_FILLER) + 1):
        body = _FILLER[:position] + [instr] + _FILLER[position:]
        image = build_image([("label", "main"), *body, ni("halt")])
        want = _cold_then_warm(image)
        if reason is None:
            assert want[-1] is None and want[1] == len(body) + 1
        else:
            assert want[-1][0].startswith(reason)
            assert want[1] == position + 1  # steps name the fault


@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_a_profiled_fault_at_each_position_of_a_stretch(eager, kind):
    """The instructions before a bail count once, in tier 2, and the
    one it leaves to tier 1 once there: every step that began."""
    instr = _FAULTS[kind][0]
    for position in range(len(_FILLER) + 1):
        body = _FILLER[:position] + [instr] + _FILLER[position:]
        image = build_image([("label", "main"), *body, ni("halt")])
        counts, _first, steps, _out, _fault = _profiles_cold_then_warm(image)
        assert sum(counts.values()) == steps


@pytest.mark.parametrize("shift", [-3, -2, -1, 1, 2, 3])
def test_words_that_overlap_in_memory(eager, shift):
    """A store to a word that overlaps a known one forgets it."""
    image = build_image([
        ("label", "main"),
        ni("mov_ri", Reg("eax"), Imm(0x11223344)),
        ni("mov_ri", Reg("ebx"), Imm(0xAABBCCDD)),
        ni("push", Reg("eax")),
        ni("mov_mr", Mem(base="esp", disp=shift), Reg("ebx")),
        ni("mov_rm", Reg("ecx"), Mem(base="esp", disp=0)),
        ni("pop", Reg("edx")),
        ni("mov_rm", Reg("esi"), Mem(base="esp", disp=shift - 4)),
        ni("halt"),
    ])
    regs = _cold_then_warm(image)[3]
    assert regs[1] == regs[2] not in (0x11223344, 0xAABBCCDD)


#: ``visit`` lies inside the loop's straight-line body.
ENTRY_SRC = """
.entry main
main:
    mov ecx, 20
again:
    mov eax, ecx
    add eax, 7
    push eax
visit:
    pop ebx
    xor ebx, ecx
    sub ecx, 1
    jg again
    mov eax, ebx
    sys_out
    halt
"""


def test_a_watched_entry_inside_a_stretch():
    """The record's entry and the instruction falling into it stay in
    tier 1, so every arrival there is recorded with its source."""
    image = assemble_text(ENTRY_SRC)
    entry = image.symbol("visit")
    tier2.clear_cache()
    before = tier2.generated()
    for cache in ("cold", "warm"):
        oracle, got = CallRecord(entry), CallRecord(entry)
        assert _observe(image, hook=True, calls=oracle) == (
            _observe(image, calls=got)
        ), cache
        assert (got.events, got.began) == (oracle.events, oracle.began)
        assert len(got.events) == 20
    assert tier2.generated() > before  # the rest of the loop fused


@pytest.mark.parametrize("src", ["loop", "entry"])
def test_a_recorded_profile_equals_the_hooked_one(eager, src):
    """A profiled run with a :class:`CallRecord` runs the text the
    record does not watch in tier 2; its profile and its record equal a
    hooked run's."""
    image = assemble_text(LOOP_SRC if src == "loop" else ENTRY_SRC)
    entry = image.symbol("visit") if src == "entry" else None
    tier2.clear_cache()
    before = tier2.generated()
    for cache in ("cold", "warm"):
        oracle, got = CallRecord(entry), CallRecord(entry)
        assert _profiled(image, hook=True, calls=oracle) == (
            _profiled(image, calls=got)
        ), cache
        assert (got.events, got.began) == (oracle.events, oracle.began)
    assert tier2.generated() > before


# -- resources -------------------------------------------------------------


def _hot_loop(n):
    """A program whose one hot stretch differs from every other ``n``'s."""
    return assemble_text(f"""
.entry main
main:
    mov ecx, 10
again:
    add eax, {n}
    sub ecx, 1
    jg again
    halt
""")


def test_cache_holds_its_cap_and_evicts_the_least_recently_used(
    monkeypatch,
):
    monkeypatch.setattr(tier2, "_CAP", 2)
    tier2.clear_cache()
    a, b, c = (_hot_loop(n) for n in (1, 2, 3))

    def generates(image):
        before = tier2.generated()
        run_image(image)
        return tier2.generated() - before

    assert generates(a) == 1 and generates(b) == 1
    assert generates(a) == 0  # a is now the most recently used
    assert generates(c) == 1 and tier2.cache_size() == 2  # b went
    assert generates(a) == 0
    assert generates(b) == 1 and tier2.cache_size() == 2


def test_threads_running_different_kernels_equal_serial_runs():
    """More threads than cores, switching often, share one cache: each
    run equals its serial run, cold and warm."""
    names = ("mcf", "gcc", "mcf", "gcc")
    serial = {name: _observe(_image(name), TRAIN_INPUT) for name in names}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cache in ("cold", "warm"):
            if cache == "cold":
                tier2.clear_cache()
            got = [None] * len(names)
            start = threading.Barrier(len(names))

            def run(i):
                start.wait()
                got[i] = _observe(_image(names[i]), TRAIN_INPUT)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(names))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert got == [serial[name] for name in names], cache
    finally:
        sys.setswitchinterval(interval)


def test_machines_are_freed_without_the_collector_after_warm_runs(eager):
    """Generated stretches refer to no machine: the contract tests of
    the machine and of the recording runs pass with a warm cache."""
    tier2.clear_cache()
    for src in (machine_tests.FACT_SRC, machine_tests.MANGLER_SRC):
        run_image(assemble_text(src))
    assert tier2.cache_size()
    contract = machine_tests.TestMachineContract()
    contract.test_finished_machine_is_freed_without_the_collector()
    for instrument in ("calls", "watched calls", "profile"):
        one_pass_tests.test_instrumented_machine_is_freed_without_the_collector(
            instrument
        )


def test_later_copies_generate_few_stretches():
    """A warm extraction of another copy of a kernel finds most of its
    hot stretches cached. These marks move mcf's hot code, so the
    copies share the bytes of those stretches, not their addresses."""
    image = _image("mcf")
    rng = random.Random(3)
    copies = [
        embed_native(image, rng.getrandbits(64), 64, TRAIN_INPUT,
                     rng_seed=rng.getrandbits(32)).image
        for _ in range(3)
    ]
    tier2.clear_cache()
    counts = []
    for copy in copies:
        before = tier2.generated()
        record_calls(copy, TRAIN_INPUT)
        counts.append(tier2.generated() - before)
    assert counts[0] >= 10
    assert max(counts[1:]) <= counts[0] // 5
