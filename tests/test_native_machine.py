"""Tests for the N32 substrate: encoding, assembler, machine, rewriter."""

import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.native import (
    BinaryImage,
    DataBlock,
    EncodingError,
    Imm,
    Label,
    Machine,
    MachineFault,
    Mem,
    NInstruction,
    NasmError,
    Profile,
    Reg,
    SymMem,
    TEXT_BASE,
    assemble_text,
    build_image,
    decode_instruction,
    encode_instruction,
    lift,
    lower,
    ni,
    patch_bytes,
    profile_image,
    run_image,
    signed32,
    wrap32,
)
from repro.native.isa import INSTRUCTION_FORMS
from repro.native.machine import EXIT_ADDRESS


class TestEncodingRoundtrip:
    CASES = [
        ni("nop"), ni("halt"), ni("ret"), ni("pushf"), ni("popf"),
        ni("push", Reg("eax")), ni("pop", Reg("edi")),
        ni("pushi", Imm(0xDEADBEEF)),
        ni("mov_ri", Reg("ecx"), Imm(12345)),
        ni("mov_rr", Reg("eax"), Reg("ebx")),
        ni("mov_rm", Reg("eax"), Mem(base="ebp", disp=-8)),
        ni("mov_mr", Mem(base="esp", disp=16), Reg("edx")),
        ni("mov_ra", Reg("esi"), Mem(disp=0x8100000)),
        ni("mov_ar", Mem(disp=0x8100004), Reg("edi")),
        ni("mov_mi", Mem(base="ecx", disp=4), Imm(0)),
        ni("mov_rx", Reg("eax"), Mem(disp=0x8100010, index="edx")),
        ni("lea", Reg("eax"), Mem(base="esp", disp=0x30)),
        ni("xchg_rm", Reg("eax"), Mem(base="esp", disp=0)),
        ni("add_rr", Reg("eax"), Reg("ecx")),
        ni("sub_ri", Reg("esp"), Imm(64)),
        ni("xor_mr", Mem(base="esp", disp=0x10), Reg("eax")),
        ni("cmp_mi", Mem(base="eax", disp=0), Imm(0)),
        ni("shl_ri", Reg("eax"), Imm(12)),
        ni("sar_rr", Reg("eax"), Reg("ecx")),
        ni("imul_rri", Reg("eax"), Reg("eax"), Imm(0xC)),
        ni("idiv", Reg("ebx")),
        ni("jmp", Imm(TEXT_BASE + 100)),
        ni("call", Imm(TEXT_BASE + 5)),
        ni("je", Imm(TEXT_BASE + 64)),
        ni("jge", Imm(TEXT_BASE)),
        ni("jmp_a", Mem(disp=0x8100020)),
        ni("call_a", Mem(disp=0x8100024)),
        ni("jmp_r", Reg("eax")),
        ni("sys_out"), ni("sys_in"),
    ]

    @pytest.mark.parametrize("instr", CASES, ids=lambda i: repr(i))
    def test_roundtrip(self, instr):
        addr = TEXT_BASE + 10
        data = encode_instruction(instr, addr)
        assert len(data) == instr.length
        decoded, length = decode_instruction(data, 0, addr)
        assert length == instr.length
        assert decoded.mnemonic == instr.mnemonic
        assert decoded.operands == instr.operands

    def test_every_form_has_declared_length(self):
        # Each case list covers a form; verify declared lengths match
        # IA-32 flavor for the critical ones.
        assert INSTRUCTION_FORMS["call"][1] == 5
        assert INSTRUCTION_FORMS["jmp"][1] == 5
        assert INSTRUCTION_FORMS["je"][1] == 6
        assert INSTRUCTION_FORMS["push"][1] == 1
        assert INSTRUCTION_FORMS["ret"][1] == 1

    def test_bad_opcode_raises(self):
        with pytest.raises(EncodingError, match="bad opcode"):
            decode_instruction(b"\xff\x00\x00", 0, TEXT_BASE)

    def test_truncated_raises(self):
        data = encode_instruction(ni("mov_ri", Reg("eax"), Imm(1)), TEXT_BASE)
        with pytest.raises(EncodingError, match="truncated"):
            decode_instruction(data[:3], 0, TEXT_BASE)

    def test_unresolved_label_rejected(self):
        with pytest.raises(EncodingError, match="unresolved"):
            encode_instruction(ni("jmp", Label("somewhere")), TEXT_BASE)

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_rel32_range(self, delta):
        addr = 0x08050000
        target = wrap32(addr + 5 + delta)
        data = encode_instruction(ni("jmp", Imm(target)), addr)
        decoded, _ = decode_instruction(data, 0, addr)
        assert decoded.operands[0].value == target


class TestWrap:
    @given(st.integers(-(2**40), 2**40))
    def test_wrap_signed_inverse(self, v):
        assert wrap32(signed32(v)) == wrap32(v)
        assert -(2**31) <= signed32(v) < 2**31


FACT_SRC = """
.entry main
.word counter 0
main:
    mov eax, 6
    push eax
    call fact
    add esp, 4
    sys_out
    halt
fact:
    push ebp
    mov ebp, esp
    mov eax, [ebp+8]
    cmp eax, 1
    jle base
    push eax
    sub eax, 1
    push eax
    call fact
    add esp, 4
    pop ebx
    imul eax, ebx
    pop ebp
    ret
base:
    mov eax, 1
    pop ebp
    ret
"""


class TestMachine:
    def test_factorial(self):
        image = assemble_text(FACT_SRC)
        assert run_image(image).output == [720]

    def test_input_output(self):
        src = ".entry main\nmain:\n    sys_in\n    mov ebx, eax\n" \
              "    sys_in\n    add eax, ebx\n    sys_out\n    halt\n"
        assert run_image(assemble_text(src), [30, 12]).output == [42]

    def test_input_exhaustion_faults(self):
        src = ".entry main\nmain:\n    sys_in\n    halt\n"
        with pytest.raises(MachineFault, match="input exhausted"):
            run_image(assemble_text(src), [])

    def test_division_by_zero_faults(self):
        src = ".entry main\nmain:\n    mov eax, 5\n    mov ebx, 0\n" \
              "    idiv ebx\n    halt\n"
        with pytest.raises(MachineFault, match="division by zero"):
            run_image(assemble_text(src))

    def test_signed_division(self):
        src = ".entry main\nmain:\n    mov eax, -7\n    mov ebx, 2\n" \
              "    idiv ebx\n    sys_out\n    mov eax, edx\n    sys_out\n" \
              "    halt\n"
        assert run_image(assemble_text(src)).output == [-3, -1]

    def test_wild_read_faults(self):
        src = ".entry main\nmain:\n    mov eax, [0x100]\n    halt\n"
        with pytest.raises(MachineFault, match="bad read"):
            run_image(assemble_text(src))

    def test_write_to_text_faults(self):
        src = ".entry main\nmain:\n    mov ebx, 7\n" \
              f"    mov eax, {TEXT_BASE}\n" \
              "    mov [eax+0], ebx\n    halt\n"
        with pytest.raises(MachineFault, match="write to text"):
            run_image(assemble_text(src))

    def test_eip_outside_text_faults(self):
        src = ".entry main\nmain:\n    mov eax, 0x100\n    jmp eax\n    halt\n"
        with pytest.raises(MachineFault, match="eip outside text"):
            run_image(assemble_text(src))

    def test_step_budget(self):
        src = ".entry main\nmain:\nspin:\n    jmp spin\n"
        with pytest.raises(MachineFault, match="budget"):
            run_image(assemble_text(src), max_steps=1000)

    def test_ret_address_manipulation(self):
        """The core branch-function mechanic: xor [esp] redirects ret."""
        src = f"""
.entry main
.word cell 0
main:
    call mangler
    mov eax, 1
    sys_out
    halt
elsewhere:
    mov eax, 2
    sys_out
    halt
mangler:
    mov eax, [esp+0]
    mov ebx, elsewhere
    xor eax, ebx
    xor [esp+0], eax
    ret
"""
        # mangler: [esp] ^= ([esp] ^ elsewhere) = elsewhere.
        assert run_image(assemble_text(src)).output == [2]

    def test_runs_do_not_mutate_image_data(self):
        src = """
.entry main
.word cell 5
main:
    mov eax, [cell]
    add eax, 1
    mov [cell], eax
    mov eax, [cell]
    sys_out
    halt
"""
        image = assemble_text(src)
        assert run_image(image).output == [6]
        assert run_image(image).output == [6]  # not 7: fresh data copy

    def test_flags_save_restore(self):
        src = """
.entry main
main:
    mov eax, 1
    cmp eax, 2
    pushf
    mov ebx, 5
    cmp ebx, 5
    popf
    jl less
    mov eax, 0
    sys_out
    halt
less:
    mov eax, 99
    sys_out
    halt
"""
        assert run_image(assemble_text(src)).output == [99]


MANGLER_SRC = """
.entry main
.word cell 0
main:
    call mangler
    mov eax, 1
    sys_out
    halt
elsewhere:
    mov eax, 2
    sys_out
    halt
mangler:
    mov eax, [esp+0]
    mov ebx, elsewhere
    xor eax, ebx
    xor [esp+0], eax
    ret
"""


def _fault(image, inputs=(), max_steps=1000):
    machine = Machine(image, max_steps)
    with pytest.raises(MachineFault) as info:
        machine.run(inputs)
    return machine, info.value


class TestMachineContract:
    """What a fault reports and what a step hook sees. Faults name the
    instruction that faulted (or the bad eip) and leave ``steps``
    counting it; the hook sees the machine before the instruction."""

    def _check(self, machine, fault, reason, eip, steps):
        assert fault.reason == reason
        assert fault.eip == eip
        assert str(fault) == f"fault at {eip:#x}: {reason}"
        assert machine.steps == steps
        assert machine.eip == eip

    def test_bad_read(self):
        image = assemble_text(".entry main\nmain:\n    mov eax, [0x100]\n"
                              "    halt\n")
        self._check(*_fault(image), "bad read at 0x100", image.entry, 1)

    def test_write_to_text(self):
        image = assemble_text(
            ".entry main\nmain:\n    mov ebx, 7\n"
            f"    mov eax, {TEXT_BASE}\n    mov [eax+0], ebx\n    halt\n"
        )
        self._check(*_fault(image), f"write to text at {TEXT_BASE:#x}",
                    image.entry + 10, 3)

    def test_eip_outside_text(self):
        image = assemble_text(".entry main\nmain:\n    mov eax, 0x100\n"
                              "    jmp eax\n    halt\n")
        self._check(*_fault(image), "eip outside text: 0x100", 0x100, 2)

    def test_undecodable_byte(self):
        image = assemble_text(".entry main\nmain:\n    nop\n    nop\n"
                              "    halt\n")
        broken = patch_bytes(image, image.entry + 1, b"\xff")
        addr = image.entry + 1
        self._check(
            *_fault(broken),
            f"undecodable instruction: bad opcode 0xff at {addr:#x}",
            addr, 1,
        )

    def test_step_budget(self):
        image = assemble_text(".entry main\nmain:\nspin:\n    jmp spin\n")
        self._check(*_fault(image, max_steps=1000),
                    "instruction budget exceeded", image.entry, 1001)

    def test_division_by_zero(self):
        image = assemble_text(".entry main\nmain:\n    mov eax, 5\n"
                              "    mov ebx, 0\n    idiv ebx\n    halt\n")
        self._check(*_fault(image), "division by zero", image.entry + 10, 3)

    def test_input_exhausted(self):
        image = assemble_text(".entry main\nmain:\n    sys_in\n"
                              "    sys_in\n    halt\n")
        self._check(*_fault(image, [7]), "input exhausted",
                    image.entry + 2, 2)
        assert _fault(image, [7])[0].regs[0] == 7

    def test_end_of_run_state(self):
        halted = Machine(assemble_text(".entry main\nmain:\n    nop\n"
                                       "    halt\n"))
        assert halted.run().steps == 2
        assert (halted.steps, halted.eip) == (2, halted.image.entry + 1)
        returned = Machine(assemble_text(".entry main\nmain:\n    ret\n"))
        assert returned.run().steps == 1
        assert (returned.steps, returned.eip) == (1, EXIT_ADDRESS)

    def test_finished_machine_is_freed_without_the_collector(self):
        """No handler table outlives its run: a machine that ran (or
        faulted) is freed as soon as the last reference goes."""
        gc.disable()
        try:
            for src, inputs in ((FACT_SRC, ()), (MANGLER_SRC, ()),
                                (".entry main\nmain:\n    sys_in\n", ())):
                machine = Machine(assemble_text(src))
                try:
                    machine.run(inputs)
                except MachineFault:
                    pass
                ref = weakref.ref(machine)
                del machine
                assert ref() is None
        finally:
            gc.enable()

    @staticmethod
    def _hook_view(src, profile=None):
        seen = []

        def hook(machine, addr, instr):
            seen.append((
                machine.steps, machine.eip, addr, repr(instr),
                tuple(machine.regs), machine.flags_val,
                machine.read32(machine.regs[4]), list(machine.output),
            ))

        image = assemble_text(src)
        result = Machine(image).run((), hook, profile=profile)
        return image, result, seen

    # sha256 of the step-by-step hook view, captured while Machine.step
    # still dispatched through a mnemonic if/elif chain.
    HOOK_VIEWS = {
        "fact":
            "c5bfdd2da7a764057f6209adeaf10adb5f676568c4e8cf76808a249b533ed64e",
        "mangler":
            "35e1ff50c70dd696302bc52a1f004493c3c42ff3c2fc2c359475f61d87c35c22",
    }

    @pytest.mark.parametrize("profiled", [False, True],
                             ids=["plain", "profiled"])
    @pytest.mark.parametrize("name,src", [("fact", FACT_SRC),
                                          ("mangler", MANGLER_SRC)])
    def test_step_hook_view(self, name, src, profiled):
        """The hook sees the same machine states in the plain and the
        profiled loop, and the profile counts every step it sees."""
        profile = Profile() if profiled else None
        image, result, seen = self._hook_view(src, profile)
        assert [view[0] for view in seen] == list(range(1, result.steps + 1))
        assert all(view[1] == view[2] for view in seen)
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()
        assert digest == self.HOOK_VIEWS[name]
        if profiled:
            assert sum(profile.counts.values()) == result.steps

    def test_ret_through_rewritten_slot_lands_on_target(self):
        """The branch-function trick: the ret after ``xor [esp], eax``
        goes where the rewritten word says, not to the call's return."""
        image, result, seen = self._hook_view(MANGLER_SRC)
        rets = [i for i, view in enumerate(seen) if view[3] == "ret"]
        assert len(rets) == 1
        assert seen[rets[0]][6] == image.symbol("elsewhere")
        assert seen[rets[0] + 1][2] == image.symbol("elsewhere")
        assert result.output == [2]


class TestRewriter:
    def test_lift_lower_identity(self):
        image = assemble_text(FACT_SRC)
        relaid = lower(lift(image))
        assert relaid.text == image.text
        assert run_image(relaid).output == [720]

    def test_insertion_shifts_and_fixes_branches(self):
        image = assemble_text(FACT_SRC)
        prog = lift(image)
        prog.insert(prog.find(image.entry), [ni("nop")] * 7)
        relaid = lower(prog)
        assert len(relaid.text) == len(image.text) + 7
        assert run_image(relaid).output == [720]

    def test_data_base_is_preserved(self):
        image = assemble_text(FACT_SRC)
        prog = lift(image)
        prog.insert(0, [ni("nop")] * 3)
        relaid = lower(prog)
        assert relaid.data_base == image.data_base

    def test_patch_bytes_same_length(self):
        image = assemble_text(FACT_SRC)
        # Overwrite `mov eax, 6` (5 bytes) with `mov eax, 4`.
        patched = patch_bytes(
            image, image.entry,
            bytes(encode_instruction(ni("mov_ri", Reg("eax"), Imm(4)),
                                     image.entry)),
        )
        assert run_image(patched).output == [24]
        assert run_image(image).output == [720]  # original untouched

    def test_patch_outside_text_rejected(self):
        image = assemble_text(FACT_SRC)
        from repro.native import RewriteError
        with pytest.raises(RewriteError):
            patch_bytes(image, image.data_base, b"\x00")

    def test_overflow_into_data_rejected(self):
        image = assemble_text(FACT_SRC)
        prog = lift(image)
        gap = image.data_base - image.text_end
        from repro.native import RewriteError
        with pytest.raises(RewriteError, match="overflows"):
            prog.insert(0, [ni("nop")] * (gap + 1))
            lower(prog)


class TestBuildImage:
    def test_symbolic_operands_resolve(self):
        image = build_image(
            [("label", "main"), ni("mov_ri", Reg("eax"), Label("cell")),
             ni("mov_ra", Reg("ecx"), SymMem("cell", offset=4)),
             ni("jmp", Label("end")), ("label", "end"), ni("halt")],
            [DataBlock("cell", [7, 9])],
        )
        cell = image.symbols["cell"]
        assert [(i.mnemonic, i.operands)
                for _a, i in image.disassemble()][:3] == [
            ("mov_ri", (Reg("eax"), Imm(cell))),
            ("mov_ra", (Reg("ecx"), Mem(disp=cell + 4))),
            ("jmp", (Imm(image.symbols["end"]),)),
        ]

    @pytest.mark.parametrize("items,message", [
        ([("label", "main"), ("label", "main"), ni("halt")],
         "duplicate label"),
        ([("label", "main"), ni("jmp", Label("nowhere"))],
         "undefined symbol 'nowhere'"),
        ([("label", "main"), ni("mov_ra", Reg("eax"), SymMem("nowhere"))],
         "undefined symbol 'nowhere'"),
        ([("label", "main"), ni("mov_ri", Label("main"), Imm(0))],
         "label operand not allowed"),
        ([("label", "start"), ni("halt")], "entry symbol 'main'"),
    ])
    def test_layout_and_encode_errors_are_nasm_errors(self, items, message):
        with pytest.raises(NasmError, match=message):
            build_image(items)


class TestProfiler:
    def test_counts_and_first_seen(self):
        image = assemble_text(FACT_SRC)
        profile = profile_image(image)
        assert profile.total_steps == run_image(image).steps
        assert profile.count(image.entry) == 1
        # The recursive body runs more than once.
        assert max(profile.counts.values()) >= 5
        assert profile.first_seen[image.entry] == 0

    def test_output_captured(self):
        image = assemble_text(FACT_SRC)
        assert profile_image(image).output == [720]
