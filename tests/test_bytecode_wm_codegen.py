"""Tests for opaque predicates and the two piece code generators."""

import random

import pytest

from repro.bytecode_wm.condition_codegen import (
    find_predicate_variables,
    generate_condition_piece,
)
from repro.bytecode_wm.loop_codegen import generate_loop_piece
from repro.bytecode_wm.opaque import opaquely_false_value
from repro.core.bitstring import decode_bits
from repro.core.errors import CodegenError
from repro.vm import (
    Function,
    Module,
    ins,
    label,
    run_module,
    verify_module,
)


def harness_module(body_template, locals_count=8):
    """A module whose main executes `body_template` then returns."""
    m = Module()
    m.add(Function("main", 0, locals_count, list(body_template)))
    return m


class TestOpaquePredicates:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "x", [-17, -2, -1, 0, 1, 2, 3, 7, 100, 2**31, 2**62, -(2**62)]
    )
    def test_always_false(self, seed, x):
        rng = random.Random(seed)
        code = [ins("const", x), ins("store", 0)]
        code += opaquely_false_value(0, rng)
        code += [ins("print"), ins("const", 0), ins("ret")]
        m = harness_module(code)
        verify_module(m)
        assert run_module(m).output == [0], f"seed={seed} x={x}"

    def test_pushes_exactly_one_value(self):
        for seed in range(6):
            code = [ins("const", 5), ins("store", 0)]
            code += opaquely_false_value(0, random.Random(seed))
            code += [ins("pop"), ins("const", 0), ins("ret")]
            verify_module(harness_module(code))


def run_and_decode(module, inputs=()):
    result = run_module(module, inputs, trace_mode="branch")
    return decode_bits(result.trace.branch_pairs()), result


def find_contiguous(haystack_bits, needle_bits):
    """Offsets where needle appears contiguously in haystack."""
    n, m = len(haystack_bits), len(needle_bits)
    return [
        t for t in range(n - m + 1)
        if haystack_bits[t:t + m] == needle_bits
    ]


class TestLoopCodegen:
    def build(self, piece_bits, seed=1, executions=1):
        m = Module()
        fn = Function("main", 0, 2, [])
        m.add(fn)
        code = [
            ins("const", executions),
            ins("store", 0),
            label("site"),
        ]
        fn.code = code
        wm = generate_loop_piece(fn, piece_bits, live_slot=1,
                                 rng=random.Random(seed))
        fn.code = code + wm + [
            ins("iinc", 0, -1),
            ins("load", 0),
            ins("ifgt", "site"),
            ins("const", 0),
            ins("ret"),
        ]
        return m

    @pytest.mark.parametrize("seed", range(5))
    def test_piece_appears_contiguously(self, seed):
        rng = random.Random(seed + 100)
        piece = [rng.randint(0, 1) for _ in range(64)]
        m = self.build(piece, seed=seed)
        verify_module(m)
        bits, _ = run_and_decode(m)
        assert find_contiguous(bits, piece), "piece not in trace bits"

    def test_piece_repeats_per_site_execution(self):
        piece = [1, 0] * 32
        m = self.build(piece, executions=3)
        bits, _ = run_and_decode(m)
        assert len(find_contiguous(bits, piece)) >= 3

    def test_semantics_neutral(self):
        piece = [1] * 64
        m = self.build(piece)
        out = run_module(m)
        assert out.output == []  # no stray prints, no trap

    def test_short_pieces(self):
        piece = [1, 1, 0, 1]
        m = self.build(piece)
        bits, _ = run_and_decode(m)
        assert find_contiguous(bits, piece)

    def test_rejects_non_bits(self):
        m = Module()
        fn = Function("main", 0, 1, [ins("const", 0), ins("ret")])
        m.add(fn)
        with pytest.raises(CodegenError):
            generate_loop_piece(fn, [0, 2], None, random.Random(0))

    def test_verifies_without_live_slot(self):
        m = Module()
        fn = Function("main", 0, 0, [])
        m.add(fn)
        code = generate_loop_piece(fn, [0, 1, 1], None, random.Random(3))
        fn.code = code + [ins("const", 0), ins("ret")]
        verify_module(m)


class TestConditionCodegen:
    def build_twice_executed(self, piece_bits, seed=1):
        """main runs a site twice; local 1 changes, local 2 is stable."""
        m = Module()
        fn = Function("main", 0, 8, [])
        m.add(fn)
        prologue = [
            ins("const", 2), ins("store", 0),    # countdown
            ins("const", 10), ins("store", 1),   # changing var
            ins("const", 42), ins("store", 2),   # stable var
            label("site"),
        ]
        epilogue = [
            ins("iinc", 1, 5),                    # local 1 changes each pass
            ins("iinc", 0, -1),
            ins("load", 0),
            ins("ifgt", "site"),
            ins("const", 0),
            ins("ret"),
        ]
        # Build snapshots the way the tracer would see them.
        fn.code = prologue + epilogue
        trace = run_module(m, trace_mode="full").trace
        from repro.vm import SiteKey
        snapshots = [p.locals_snapshot
                     for p in trace.site_snapshots(SiteKey("main", "site"))]
        wm = generate_condition_piece(
            fn, piece_bits, snapshots, live_slot=2, rng=random.Random(seed)
        )
        fn.code = prologue + wm + epilogue
        return m

    @pytest.mark.parametrize("seed", range(5))
    def test_piece_appears_contiguously(self, seed):
        rng = random.Random(seed + 200)
        piece = [rng.randint(0, 1) for _ in range(64)]
        m = self.build_twice_executed(piece, seed=seed)
        verify_module(m)
        bits, _ = run_and_decode(m)
        assert find_contiguous(bits, piece)

    def test_requires_two_executions(self):
        m = Module()
        fn = Function("main", 0, 4, [ins("const", 0), ins("ret")])
        m.add(fn)
        trace = run_module(m, trace_mode="full").trace
        from repro.vm import SiteKey
        snapshots = [p.locals_snapshot
                     for p in trace.site_snapshots(SiteKey("main", "<entry>"))]
        with pytest.raises(CodegenError, match="fewer than twice"):
            generate_condition_piece(fn, [1] * 8, snapshots, None,
                                     random.Random(0))

    def test_requires_changing_variable_for_ones(self):
        snaps = [(1, 2), (1, 2)]
        m = Module()
        fn = Function("main", 0, 4, [ins("const", 0), ins("ret")])
        m.add(fn)
        with pytest.raises(CodegenError, match="no variable changes"):
            generate_condition_piece(fn, [1, 0], snaps, None, random.Random(0))
        # All-zero pieces are fine with only stable variables.
        code = generate_condition_piece(fn, [0, 0], snaps, None,
                                        random.Random(0))
        assert code

    def test_find_predicate_variables(self):
        snaps = [(1, 5, 9), (1, 6, 9), (7, 7, 7)]  # the third is ignored
        changing, stable = find_predicate_variables(snaps)
        assert changing == [1]
        assert stable == [0, 2]

    def test_predicates_only_reference_original_locals(self):
        piece = [1, 0, 1]
        m = self.build_twice_executed(piece)
        fn = m.functions["main"]
        for instr in fn.code:
            if instr.op == "load":
                assert instr.arg < fn.locals_count
