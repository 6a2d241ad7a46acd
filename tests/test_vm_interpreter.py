"""Tests for the WVM interpreter: semantics, traps, tracing."""

from collections import Counter

import pytest

from repro.vm import VMError, assemble, run_module, wrap64


def run_src(src, inputs=(), trace_mode=None, max_steps=10_000_000):
    return run_module(assemble(src), inputs, trace_mode, max_steps)


def main_wrapping(body):
    return f".entry main\n.func main params=0 locals=8\n{body}\n.end\n"


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 2, 3, 5),
            ("sub", 2, 3, -1),
            ("mul", -4, 6, -24),
            ("div", 7, 2, 3),
            ("div", -7, 2, -3),   # truncation toward zero (Java long)
            ("div", 7, -2, -3),
            ("mod", 7, 2, 1),
            ("mod", -7, 2, -1),   # sign follows the dividend
            ("band", 0b1100, 0b1010, 0b1000),
            ("bor", 0b1100, 0b1010, 0b1110),
            ("bxor", 0b1100, 0b1010, 0b0110),
            ("shl", 1, 4, 16),
            ("shr", -16, 2, -4),  # arithmetic shift
        ],
    )
    def test_binary_ops(self, op, a, b, expected):
        out = run_src(main_wrapping(
            f"    const {a}\n    const {b}\n    {op}\n    print\n"
            "    const 0\n    ret"
        ))
        assert out.output == [expected]

    def test_neg_and_bnot(self):
        out = run_src(main_wrapping(
            "    const 5\n    neg\n    print\n"
            "    const 5\n    bnot\n    print\n    const 0\n    ret"
        ))
        assert out.output == [-5, -6]

    def test_division_by_zero_traps(self):
        with pytest.raises(VMError, match="division by zero"):
            run_src(main_wrapping(
                "    const 1\n    const 0\n    div\n    const 0\n    ret"
            ))

    def test_mod_by_zero_traps(self):
        with pytest.raises(VMError, match="modulo by zero"):
            run_src(main_wrapping(
                "    const 1\n    const 0\n    mod\n    const 0\n    ret"
            ))

    def test_64bit_wraparound(self):
        out = run_src(main_wrapping(
            "    const 0x7fffffffffffffff\n    const 1\n    add\n"
            "    print\n    const 0\n    ret"
        ))
        assert out.output == [-(1 << 63)]
        assert wrap64((1 << 63) - 1 + 1) == -(1 << 63)


class TestStackAndLocals:
    def test_dup_pop_swap(self):
        out = run_src(main_wrapping(
            "    const 1\n    const 2\n    swap\n    print\n    print\n"
            "    const 7\n    dup\n    pop\n    print\n    const 0\n    ret"
        ))
        assert out.output == [1, 2, 7]

    def test_load_store_iinc(self):
        out = run_src(main_wrapping(
            "    const 10\n    store 3\n    iinc 3 -4\n    load 3\n"
            "    print\n    const 0\n    ret"
        ))
        assert out.output == [6]

    def test_globals(self):
        src = (
            ".globals 2\n.entry main\n"
            ".func main params=0 locals=0\n"
            "    const 42\n    gstore 1\n    gload 1\n    print\n"
            "    const 0\n    ret\n.end\n"
        )
        assert run_src(src).output == [42]

    def test_uninitialized_locals_are_zero(self):
        out = run_src(main_wrapping("    load 5\n    print\n    const 0\n    ret"))
        assert out.output == [0]


class TestControlFlow:
    GCD = """
.entry main
.func main params=0 locals=0
    const 25
    const 10
    call gcd
    print
    const 0
    ret
.end
.func gcd params=2 locals=3
loop:
    load 0
    load 1
    mod
    ifeq done
    load 1
    store 2
    load 0
    load 1
    mod
    store 1
    load 2
    store 0
    goto loop
done:
    load 1
    ret
.end
"""

    def test_gcd(self):
        assert run_src(self.GCD).output == [5]

    def test_conditionals(self):
        for op, a, b, taken in [
            ("if_icmpeq", 3, 3, True), ("if_icmpeq", 3, 4, False),
            ("if_icmpne", 3, 4, True), ("if_icmplt", 2, 3, True),
            ("if_icmple", 3, 3, True), ("if_icmpgt", 4, 3, True),
            ("if_icmpge", 2, 3, False),
        ]:
            out = run_src(main_wrapping(
                f"    const {a}\n    const {b}\n    {op} yes\n"
                "    const 0\n    print\n    goto end\n"
                "yes:\n    const 1\n    print\n"
                "end:\n    const 0\n    ret"
            ))
            assert out.output == [1 if taken else 0], (op, a, b)

    def test_zero_conditionals(self):
        for op, a, taken in [
            ("ifeq", 0, True), ("ifne", 1, True), ("iflt", -1, True),
            ("ifle", 0, True), ("ifgt", 1, True), ("ifge", -1, False),
        ]:
            out = run_src(main_wrapping(
                f"    const {a}\n    {op} yes\n"
                "    const 0\n    print\n    goto end\n"
                "yes:\n    const 1\n    print\n"
                "end:\n    const 0\n    ret"
            ))
            assert out.output == [1 if taken else 0], (op, a)

    def test_step_limit(self):
        src = main_wrapping("spin:\n    goto spin")
        with pytest.raises(VMError, match="step limit"):
            run_src(src, max_steps=1000)

    def test_recursion(self):
        src = """
.entry main
.func main params=0 locals=0
    const 10
    call fib
    print
    const 0
    ret
.end
.func fib params=1 locals=1
    load 0
    const 2
    if_icmpge rec
    load 0
    ret
rec:
    load 0
    const 1
    sub
    call fib
    load 0
    const 2
    sub
    call fib
    add
    ret
.end
"""
        assert run_src(src).output == [55]

    def test_stack_overflow_traps(self):
        src = """
.entry main
.func main params=0 locals=0
    call f
    ret
.end
.func f params=0 locals=0
    call f
    ret
.end
"""
        with pytest.raises(VMError, match="overflow"):
            run_src(src)


class TestArraysAndIO:
    def test_array_roundtrip(self):
        out = run_src(main_wrapping(
            "    const 3\n    newarray\n    store 0\n"
            "    load 0\n    const 1\n    const 99\n    astore\n"
            "    load 0\n    const 1\n    aload\n    print\n"
            "    load 0\n    alen\n    print\n    const 0\n    ret"
        ))
        assert out.output == [99, 3]

    def test_array_bounds_trap(self):
        with pytest.raises(VMError, match="out of bounds"):
            run_src(main_wrapping(
                "    const 2\n    newarray\n    const 5\n    aload\n"
                "    const 0\n    ret"
            ))

    def test_bad_reference_traps(self):
        with pytest.raises(VMError, match="bad array reference"):
            run_src(main_wrapping(
                "    const 7\n    const 0\n    aload\n    const 0\n    ret"
            ))

    def test_input_sequence(self):
        out = run_src(main_wrapping(
            "    input\n    input\n    add\n    print\n    const 0\n    ret"
        ), inputs=[30, 12])
        assert out.output == [42]

    def test_input_exhaustion_traps(self):
        with pytest.raises(VMError, match="exhausted"):
            run_src(main_wrapping("    input\n    print\n    const 0\n    ret"))

    def test_halt_stops_everything(self):
        out = run_src(main_wrapping(
            "    const 1\n    print\n    halt\n    const 2\n    print\n"
            "    const 0\n    ret"
        ))
        assert out.output == [1]
        assert out.halted


class TestTracing:
    BRANCHY = """
.entry main
.func main params=0 locals=2
    const 3
    store 0
loop:
    load 0
    ifeq done
    iinc 0 -1
    goto loop
done:
    const 0
    ret
.end
"""

    def test_no_trace_by_default(self):
        assert run_src(self.BRANCHY).trace is None

    def test_branch_trace(self):
        result = run_src(self.BRANCHY, trace_mode="branch")
        trace = result.trace
        assert trace is not None
        # ifeq runs 4 times: not-taken x3, then taken.
        assert len(trace.branches) == 4
        assert [e.taken for e in trace.branches] == [False] * 3 + [True]
        # Same static instruction each time.
        assert len({id(e.branch) for e in trace.branches}) == 1
        # Branch mode records no site snapshots.
        assert trace.points == []

    def test_full_trace_snapshots(self):
        result = run_src(self.BRANCHY, trace_mode="full")
        trace = result.trace
        counts = Counter(p.key for p in trace.points)
        from repro.vm import SiteKey
        assert counts[SiteKey("main", "loop")] == 4
        assert counts[SiteKey("main", "done")] == 1
        assert counts[SiteKey("main", "<entry>")] == 1
        # Local 0 counts down 3,2,1,0 at the loop head.
        snaps = trace.site_snapshots(SiteKey("main", "loop"))
        assert [s.locals_snapshot[0] for s in snaps] == [3, 2, 1, 0]

    def test_branch_pairs_feed_decoder(self):
        from repro.core.bitstring import decode_bits
        result = run_src(self.BRANCHY, trace_mode="branch")
        bits = decode_bits(result.trace.branch_pairs())
        # First occurrence: 0. Next two go the same way: 0, 0. Final
        # taken execution goes the other way: 1.
        assert bits == [0, 0, 0, 1]

    def test_steps_metric_counts_real_instructions(self):
        result = run_src(self.BRANCHY)
        # const,store + 3*(load,ifeq,iinc,goto) + (load,ifeq) + const,ret
        assert result.steps == 2 + 3 * 4 + 2 + 2
