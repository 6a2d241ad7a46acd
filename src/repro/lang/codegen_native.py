"""Wee → N32 native code generator.

A simple stack-machine-over-hardware-stack compiler (think ``gcc -O0``
shape): expression intermediates live on the machine stack, locals in
an ``ebp`` frame, globals and the array heap in the data section. The
point is producing *realistic binaries* — real calls, frames, hot
loops and cold paths — for the Section 4/5.2 native watermarking
pipeline, not producing fast code.

Calling convention (matches the hand-written runtime below):

* arguments pushed left-to-right; caller pops them after return;
* parameter ``i`` of ``n`` lives at ``[ebp + 8 + 4*(n-1-i)]``;
* locals at ``[ebp - 4*(slot - params + 1)]``;
* return value in ``eax``.

Arrays are ``[length, elem0, elem1, ...]`` word blocks from a bump
allocator (``rt_alloc``), with no bounds checks — like the C programs
the paper watermarks, an out-of-range index wanders off and faults or
corrupts, it does not raise.
"""

from __future__ import annotations

from typing import List, Optional

from ..native.assembler import DataBlock, build_image
from ..native.image import BinaryImage
from ..native.isa import Imm, Label, Mem, NInstruction, Reg, SymMem, ni
from ..native.rewriter import TextItem
from . import ast_nodes as A
from .analysis import FnInfo, ProgramInfo, SemanticError, analyze
from .parser import parse

EAX, EBX, ECX, EDX = Reg("eax"), Reg("ebx"), Reg("ecx"), Reg("edx")
ESP, EBP = Reg("esp"), Reg("ebp")

_CMP_JCC = {"==": "je", "!=": "jne", "<": "jl",
            "<=": "jle", ">": "jg", ">=": "jge"}
_CMP_JCC_INV = {"==": "jne", "!=": "je", "<": "jge",
                "<=": "jg", ">": "jle", ">=": "jl"}

DEFAULT_HEAP_BYTES = 1 << 20


class _NativeFnCompiler:
    def __init__(self, fn_info: FnInfo, info: ProgramInfo):
        self.fn_info = fn_info
        self.info = info
        self.items: List[TextItem] = []
        self._label_counter = 0
        self._loop_stack: List[dict] = []

    # -- helpers ---------------------------------------------------------

    def fresh(self, hint: str) -> str:
        name = f"{self.fn_info.decl.name}__{hint}_{self._label_counter}"
        self._label_counter += 1
        return name

    def emit(self, *instrs: NInstruction) -> None:
        self.items.extend(instrs)

    def mark(self, name: str) -> None:
        self.items.append(("label", name))

    def slot_mem(self, node) -> Optional[Mem]:
        """Frame address of a resolved Var/VarDecl node (None = global)."""
        slot = self.fn_info.slot_of(node)
        if slot is None:
            return None
        params = len(self.fn_info.decl.params)
        if slot < params:
            return Mem(base="ebp", disp=8 + 4 * (params - 1 - slot))
        return Mem(base="ebp", disp=-4 * (slot - params + 1))

    def global_ref(self, name: str) -> SymMem:
        return SymMem(f"g_{name}")

    # -- top level ----------------------------------------------------------

    def compile(self) -> List[TextItem]:
        fn = self.fn_info.decl
        self.mark(fn.name)
        local_count = self.fn_info.locals_count - len(fn.params)
        self.emit(ni("push", EBP), ni("mov_rr", EBP, ESP))
        if local_count:
            self.emit(ni("sub_ri", ESP, Imm(4 * local_count)))
        for stmt in fn.body:
            self.stmt(stmt)
        # Implicit `return 0`.
        self.emit(ni("mov_ri", EAX, Imm(0)))
        self._emit_epilogue()
        return self.items

    def _emit_epilogue(self) -> None:
        self.emit(ni("mov_rr", ESP, EBP), ni("pop", EBP), ni("ret"))

    # -- statements -------------------------------------------------------------

    def stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.VarDecl):
            if s.init is not None:
                self.expr(s.init)
                self.emit(ni("pop", EAX),
                          ni("mov_mr", self.slot_mem(s), EAX))
        elif isinstance(s, A.Assign):
            self.assign(s)
        elif isinstance(s, A.If):
            self.if_stmt(s)
        elif isinstance(s, A.While):
            self.while_stmt(s)
        elif isinstance(s, A.For):
            self.for_stmt(s)
        elif isinstance(s, A.Return):
            if s.value is not None:
                self.expr(s.value)
                self.emit(ni("pop", EAX))
            else:
                self.emit(ni("mov_ri", EAX, Imm(0)))
            self._emit_epilogue()
        elif isinstance(s, A.Break):
            self.emit(ni("jmp", Label(self._loop_stack[-1]["break"])))
        elif isinstance(s, A.Continue):
            self.emit(ni("jmp", Label(self._loop_stack[-1]["continue"])))
        elif isinstance(s, A.Print):
            self.expr(s.value)
            self.emit(ni("pop", EAX), ni("sys_out"))
        elif isinstance(s, A.ExprStmt):
            self.expr(s.value)
            self.emit(ni("pop", EAX))
        else:  # pragma: no cover
            raise SemanticError(s.line, f"cannot compile {type(s).__name__}")

    def assign(self, s: A.Assign) -> None:
        target = s.target
        if isinstance(target, A.Var):
            self.expr(s.value)
            self.emit(ni("pop", EAX))
            mem = self.slot_mem(target)
            if mem is not None:
                self.emit(ni("mov_mr", mem, EAX))
            else:
                self.emit(ni("mov_ar", self.global_ref(target.name), EAX))
        else:
            assert isinstance(target, A.Index)
            self.expr(target.base)
            self.expr(target.index)
            self.expr(s.value)
            self.emit(
                ni("pop", ECX),              # value
                ni("pop", EBX),              # index
                ni("pop", EAX),              # base
                ni("shl_ri", EBX, Imm(2)),
                ni("add_rr", EAX, EBX),
                ni("mov_mr", Mem(base="eax", disp=4), ECX),
            )

    def if_stmt(self, s: A.If) -> None:
        else_label = self.fresh("else")
        end_label = self.fresh("endif")
        self.branch_if_false(s.cond, else_label)
        for st in s.then:
            self.stmt(st)
        if s.otherwise:
            self.emit(ni("jmp", Label(end_label)))
            self.mark(else_label)
            for st in s.otherwise:
                self.stmt(st)
            self.mark(end_label)
        else:
            self.mark(else_label)

    def while_stmt(self, s: A.While) -> None:
        head = self.fresh("while")
        end = self.fresh("endwhile")
        self._loop_stack.append({"break": end, "continue": head})
        self.mark(head)
        self.branch_if_false(s.cond, end)
        for st in s.body:
            self.stmt(st)
        self.emit(ni("jmp", Label(head)))
        self.mark(end)
        self._loop_stack.pop()

    def for_stmt(self, s: A.For) -> None:
        head = self.fresh("for")
        step_label = self.fresh("forstep")
        end = self.fresh("endfor")
        if s.init is not None:
            self.stmt(s.init)
        self._loop_stack.append({"break": end, "continue": step_label})
        self.mark(head)
        if s.cond is not None:
            self.branch_if_false(s.cond, end)
        for st in s.body:
            self.stmt(st)
        self.mark(step_label)
        if s.step is not None:
            self.stmt(s.step)
        self.emit(ni("jmp", Label(head)))
        self.mark(end)
        self._loop_stack.pop()

    # -- conditions ---------------------------------------------------------------

    def _cmp_operands(self, e: A.Binary) -> None:
        self.expr(e.left)
        self.expr(e.right)
        self.emit(ni("pop", EBX), ni("pop", EAX), ni("cmp_rr", EAX, EBX))

    def branch_if_false(self, e: A.Expr, target: str) -> None:
        if isinstance(e, A.Binary) and e.op in _CMP_JCC:
            self._cmp_operands(e)
            self.emit(ni(_CMP_JCC_INV[e.op], Label(target)))
            return
        if isinstance(e, A.Unary) and e.op == "!":
            self.branch_if_true(e.operand, target)
            return
        if isinstance(e, A.Logical):
            if e.op == "&&":
                self.branch_if_false(e.left, target)
                self.branch_if_false(e.right, target)
            else:
                keep = self.fresh("or")
                self.branch_if_true(e.left, keep)
                self.branch_if_false(e.right, target)
                self.mark(keep)
            return
        self.expr(e)
        self.emit(ni("pop", EAX), ni("test_rr", EAX, EAX),
                  ni("je", Label(target)))

    def branch_if_true(self, e: A.Expr, target: str) -> None:
        if isinstance(e, A.Binary) and e.op in _CMP_JCC:
            self._cmp_operands(e)
            self.emit(ni(_CMP_JCC[e.op], Label(target)))
            return
        if isinstance(e, A.Unary) and e.op == "!":
            self.branch_if_false(e.operand, target)
            return
        if isinstance(e, A.Logical):
            if e.op == "||":
                self.branch_if_true(e.left, target)
                self.branch_if_true(e.right, target)
            else:
                bail = self.fresh("and")
                self.branch_if_false(e.left, bail)
                self.branch_if_true(e.right, target)
                self.mark(bail)
            return
        self.expr(e)
        self.emit(ni("pop", EAX), ni("test_rr", EAX, EAX),
                  ni("jne", Label(target)))

    # -- expressions -----------------------------------------------------------------

    def expr(self, e: A.Expr) -> None:
        if isinstance(e, A.IntLit):
            self.emit(ni("pushi", Imm(e.value)))
        elif isinstance(e, A.Var):
            mem = self.slot_mem(e)
            if mem is not None:
                self.emit(ni("mov_rm", EAX, mem))
            else:
                self.emit(ni("mov_ra", EAX, self.global_ref(e.name)))
            self.emit(ni("push", EAX))
        elif isinstance(e, A.Unary):
            if e.op == "-":
                self.expr(e.operand)
                self.emit(ni("pop", EAX), ni("neg", EAX), ni("push", EAX))
            elif e.op == "~":
                self.expr(e.operand)
                self.emit(ni("pop", EAX), ni("not", EAX), ni("push", EAX))
            else:
                self.materialize_bool(e)
        elif isinstance(e, A.Binary):
            if e.op in _CMP_JCC:
                self.materialize_bool(e)
            else:
                self.expr(e.left)
                self.expr(e.right)
                self.binary_op(e.op)
        elif isinstance(e, A.Logical):
            self.materialize_bool(e)
        elif isinstance(e, A.Call):
            for a in e.args:
                self.expr(a)
            self.emit(ni("call", Label(e.name)))
            if e.args:
                self.emit(ni("add_ri", ESP, Imm(4 * len(e.args))))
            self.emit(ni("push", EAX))
        elif isinstance(e, A.Input):
            self.emit(ni("sys_in"), ni("push", EAX))
        elif isinstance(e, A.NewArray):
            self.expr(e.size)
            self.emit(ni("call", Label("rt_newarray")),
                      ni("add_ri", ESP, Imm(4)),
                      ni("push", EAX))
        elif isinstance(e, A.Index):
            self.expr(e.base)
            self.expr(e.index)
            self.emit(
                ni("pop", EBX),
                ni("pop", EAX),
                ni("shl_ri", EBX, Imm(2)),
                ni("add_rr", EAX, EBX),
                ni("mov_rm", EAX, Mem(base="eax", disp=4)),
                ni("push", EAX),
            )
        elif isinstance(e, A.Len):
            self.expr(e.base)
            self.emit(ni("pop", EAX),
                      ni("mov_rm", EAX, Mem(base="eax", disp=0)),
                      ni("push", EAX))
        else:  # pragma: no cover
            raise SemanticError(e.line, f"cannot compile {type(e).__name__}")

    def binary_op(self, op: str) -> None:
        self.emit(ni("pop", EBX), ni("pop", EAX))
        if op == "+":
            self.emit(ni("add_rr", EAX, EBX))
        elif op == "-":
            self.emit(ni("sub_rr", EAX, EBX))
        elif op == "*":
            self.emit(ni("imul_rr", EAX, EBX))
        elif op == "/":
            self.emit(ni("idiv", EBX))
        elif op == "%":
            self.emit(ni("idiv", EBX), ni("mov_rr", EAX, EDX))
        elif op == "&":
            self.emit(ni("and_rr", EAX, EBX))
        elif op == "|":
            self.emit(ni("or_rr", EAX, EBX))
        elif op == "^":
            self.emit(ni("xor_rr", EAX, EBX))
        elif op == "<<":
            self.emit(ni("shl_rr", EAX, EBX))
        elif op == ">>":
            self.emit(ni("sar_rr", EAX, EBX))
        else:  # pragma: no cover
            raise SemanticError(0, f"unknown binary operator {op!r}")
        self.emit(ni("push", EAX))

    def materialize_bool(self, e: A.Expr) -> None:
        true_label = self.fresh("true")
        end_label = self.fresh("endbool")
        self.branch_if_true(e, true_label)
        self.emit(ni("pushi", Imm(0)), ni("jmp", Label(end_label)))
        self.mark(true_label)
        self.emit(ni("pushi", Imm(1)))
        self.mark(end_label)


def _runtime_items() -> List[TextItem]:
    """Hand-written runtime: bump allocator + array constructor."""
    items: List[TextItem] = []

    def mark(name):
        items.append(("label", name))

    # rt_alloc(words) -> eax = base of fresh block
    mark("rt_alloc")
    items.extend([
        ni("push", EBP),
        ni("mov_rr", EBP, ESP),
        ni("mov_ra", EAX, SymMem("rt_heap_ptr")),
        ni("cmp_ri", EAX, Imm(0)),
        ni("jne", Label("rt_alloc_ok")),
        ni("mov_ri", EAX, Label("rt_heap_area")),
    ])
    mark("rt_alloc_ok")
    items.extend([
        ni("mov_rr", ECX, EAX),                       # result
        ni("mov_rm", EBX, Mem(base="ebp", disp=8)),   # word count
        ni("shl_ri", EBX, Imm(2)),
        ni("add_rr", EAX, EBX),
        ni("mov_ar", SymMem("rt_heap_ptr"), EAX),
        ni("mov_rr", EAX, ECX),
        ni("mov_rr", ESP, EBP),
        ni("pop", EBP),
        ni("ret"),
    ])
    # rt_newarray(n) -> eax = block with length header
    mark("rt_newarray")
    items.extend([
        ni("push", EBP),
        ni("mov_rr", EBP, ESP),
        ni("mov_rm", EAX, Mem(base="ebp", disp=8)),
        ni("add_ri", EAX, Imm(1)),
        ni("push", EAX),
        ni("call", Label("rt_alloc")),
        ni("add_ri", ESP, Imm(4)),
        ni("mov_rm", EBX, Mem(base="ebp", disp=8)),
        ni("mov_mr", Mem(base="eax", disp=0), EBX),
        ni("mov_rr", ESP, EBP),
        ni("pop", EBP),
        ni("ret"),
    ])
    return items


def compile_program_native(
    program: A.Program,
    heap_bytes: int = DEFAULT_HEAP_BYTES,
) -> BinaryImage:
    """Compile an AST to an N32 binary image with entry ``main``."""
    info = analyze(program)
    items: List[TextItem] = []
    for name in sorted(info.functions):
        items.extend(_NativeFnCompiler(info.functions[name], info).compile())
    items.extend(_runtime_items())

    data_blocks = [DataBlock(f"g_{name}", [0])
                   for name in sorted(info.globals, key=info.globals.get)]
    data_blocks.append(DataBlock("rt_heap_ptr", [0]))
    data_blocks.append(DataBlock("rt_heap_area", [0] * 4))
    return build_image(items, data_blocks, entry="main",
                       extra_data_space=heap_bytes)


def compile_source_native(
    source: str, heap_bytes: int = DEFAULT_HEAP_BYTES
) -> BinaryImage:
    """Parse, analyze and compile wee source to a native binary."""
    return compile_program_native(parse(source), heap_bytes)
