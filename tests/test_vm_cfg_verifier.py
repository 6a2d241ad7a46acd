"""Tests for WVM CFG construction and the bytecode verifier."""

import pytest

from repro.core import loops
from repro.vm import (
    Function,
    Module,
    VMFormatError,
    VerificationError,
    assemble,
    build_cfg,
    ins,
    is_verifiable,
    label,
    run_module,
    verify_module,
)

LOOPY_SRC = """
.entry main
.func main params=0 locals=2
    const 5
    store 0
head:
    load 0
    ifeq exit
    load 0
    const 2
    mod
    ifeq even
    iinc 0 -1
    goto head
even:
    iinc 0 -1
    goto head
exit:
    const 0
    ret
.end
"""


def _graph(cfg):
    return {name: block.successors for name, block in cfg.blocks.items()}


def _back_edges(cfg):
    return loops.back_edges(_graph(cfg), [cfg.entry])


def _loop_blocks(cfg):
    """Blocks inside some natural loop of the CFG."""
    preds = loops.predecessors(_graph(cfg))
    body = set()
    for latch, header in _back_edges(cfg):
        body |= loops.natural_loop(preds, latch, header)
    return body


class TestCFG:
    def test_blocks_and_successors(self):
        module = assemble(LOOPY_SRC)
        cfg = build_cfg(module.functions["main"])
        assert cfg.entry == "@0"
        assert set(cfg.blocks) >= {"head", "even", "exit"}
        assert cfg.successors("@0") == ["head"]
        head_succ = set(cfg.successors("head"))
        assert "exit" in head_succ
        assert cfg.successors("exit") == []

    def test_loop_detection(self):
        module = assemble(LOOPY_SRC)
        cfg = build_cfg(module.functions["main"])
        in_loop = _loop_blocks(cfg)
        assert "head" in in_loop
        assert "even" in in_loop
        assert "exit" not in in_loop

    def test_self_loop_is_its_own_natural_loop(self):
        """A one-block loop's body walk stops at its header: the block
        that enters the loop is not inside it."""
        module = assemble("""
.entry main
.func main params=0 locals=1
    const 3
    store 0
spin:
    iinc 0 -1
    load 0
    ifne spin
    const 0
    ret
.end
""")
        cfg = build_cfg(module.functions["main"])
        assert _back_edges(cfg) == [("spin", "spin")]
        assert _loop_blocks(cfg) == {"spin"}

    def test_straightline_single_block_no_loops(self):
        fn = Function("f", 0, 0, [ins("const", 1), ins("print"),
                                  ins("const", 0), ins("ret")])
        cfg = build_cfg(fn)
        assert len(cfg.blocks) == 1
        assert _back_edges(cfg) == []

    def test_reachability(self):
        src = """
.entry main
.func main params=0 locals=0
    const 0
    ret
dead:
    const 1
    print
    const 0
    ret
.end
"""
        module = assemble(src)
        cfg = build_cfg(module.functions["main"])
        graph = _graph(cfg)
        reached, work = set(), [cfg.entry]
        while work:
            name = work.pop()
            if name not in reached:
                reached.add(name)
                work.extend(graph[name])
        assert "dead" in graph
        assert "dead" not in reached
        assert cfg.entry in reached

    def test_conditional_fallthrough_block_naming(self):
        module = assemble(LOOPY_SRC)
        cfg = build_cfg(module.functions["main"])
        # The instruction after `ifeq even` starts an unnamed block.
        unnamed = [n for n in cfg.order if n.startswith("@")]
        assert len(unnamed) >= 2  # entry block plus a fall-through

    def test_predecessors(self):
        module = assemble(LOOPY_SRC)
        cfg = build_cfg(module.functions["main"])
        preds = loops.predecessors(_graph(cfg))
        assert set(preds["head"]) >= {"@0", "even"}


class TestVerifier:
    def test_valid_module_passes(self):
        verify_module(assemble(LOOPY_SRC))

    def _module_with_main(self, code, locals_count=4, extra=None):
        m = Module()
        m.add(Function("main", 0, locals_count, code))
        if extra:
            m.add(extra)
        return m

    def test_stack_underflow(self):
        m = self._module_with_main([ins("add"), ins("const", 0), ins("ret")])
        with pytest.raises(VerificationError, match="underflow"):
            verify_module(m)

    def test_fall_off_end(self):
        m = self._module_with_main([ins("const", 1), ins("pop")])
        with pytest.raises(VerificationError, match="falls off"):
            verify_module(m)

    def test_depth_mismatch_at_join(self):
        # One path reaches `join` with depth 1, the other with depth 2.
        code = [
            ins("const", 0),
            ins("ifeq", "skip"),
            ins("const", 1),
            ins("const", 2),
            ins("goto", "join"),
            label("skip"),
            ins("const", 1),
            label("join"),
            ins("print"),
            ins("const", 0),
            ins("ret"),
        ]
        m = self._module_with_main(code)
        with pytest.raises(VerificationError, match="depth mismatch"):
            verify_module(m)

    def test_consistent_join_passes(self):
        code = [
            ins("const", 0),
            ins("ifeq", "skip"),
            ins("const", 1),
            ins("goto", "join"),
            label("skip"),
            ins("const", 2),
            label("join"),
            ins("print"),
            ins("const", 0),
            ins("ret"),
        ]
        verify_module(self._module_with_main(code))

    def test_bad_local_slot(self):
        m = self._module_with_main(
            [ins("load", 9), ins("pop"), ins("const", 0), ins("ret")],
            locals_count=2,
        )
        with pytest.raises(VerificationError, match="out of range"):
            verify_module(m)

    def test_bad_global_index(self):
        m = self._module_with_main(
            [ins("gload", 0), ins("pop"), ins("const", 0), ins("ret")]
        )
        with pytest.raises(VerificationError, match="out of range"):
            verify_module(m)

    def test_call_arity_checked_via_depth(self):
        callee = Function("two", 2, 2, [ins("load", 0), ins("ret")])
        m = self._module_with_main(
            [ins("const", 1), ins("call", "two"), ins("pop"),
             ins("const", 0), ins("ret")],
            extra=callee,
        )
        with pytest.raises(VerificationError, match="underflow"):
            verify_module(m)

    def test_empty_function_rejected(self):
        m = self._module_with_main([])
        with pytest.raises(VerificationError, match="empty function"):
            verify_module(m)

    def test_const_operand_type_checked(self):
        m = self._module_with_main(
            [ins("const", "oops"), ins("pop"), ins("const", 0), ins("ret")]
        )
        with pytest.raises(VerificationError, match="const operand"):
            verify_module(m)

    @pytest.mark.parametrize("code", [
        [ins("const", 1), ins("store", "x"), ins("const", 0), ins("ret")],
        [ins("gload", "g"), ins("pop"), ins("const", 0), ins("ret")],
    ], ids=["store", "gload"])
    def test_non_int_slot_operand_fails_closed(self, code):
        """A slot operand that is not an int is a format error, not a
        ``TypeError`` from comparing it with the slot count."""
        m = self._module_with_main(code)
        m.globals_count = 1
        assert not is_verifiable(m)
        with pytest.raises(VerificationError, match="not an index"):
            verify_module(m)
        with pytest.raises(VMFormatError, match="not an index"):
            run_module(m)

    def test_unreachable_const_operand_checked(self):
        m = self._module_with_main(
            [ins("const", 0), ins("ret"), ins("const", "oops"), ins("ret")]
        )
        with pytest.raises(VerificationError, match="const operand"):
            verify_module(m)

    def test_is_verifiable_bool(self):
        assert is_verifiable(assemble(LOOPY_SRC))
        m = self._module_with_main([ins("add"), ins("const", 0), ins("ret")])
        assert not is_verifiable(m)

    def test_loop_with_net_stack_growth_rejected(self):
        # Each iteration pushes one extra value: depth at the join
        # differs between first entry and the back edge.
        code = [
            label("head"),
            ins("const", 1),
            ins("const", 0),
            ins("ifeq", "head"),
            ins("pop"),
            ins("const", 0),
            ins("ret"),
        ]
        m = self._module_with_main(code)
        with pytest.raises(VerificationError, match="depth mismatch"):
            verify_module(m)
