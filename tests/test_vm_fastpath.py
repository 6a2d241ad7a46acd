"""Differential tests for the precompiled fast-path WVM engine.

The fast engine (`repro.vm.interpreter`) must be observably
indistinguishable from the seed tree-walking engine kept in
`repro.vm._reference`: same outputs, same step counts, same traps
with the same messages, and — crucially for the watermark decoder —
the *same instruction objects* in every branch event. These tests pin
that equivalence, including at the edges of the tier-2 blocks that
make the fast path fast.
"""

import io

import pytest

from repro.vm import (
    Interpreter,
    StepLimitExceeded,
    VMError,
    assemble,
    dump_trace,
    run_module,
)
from repro.vm import tier2
from repro.vm._reference import run_module_reference
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    argc_secret_module,
    caffeinemark_module,
    collatz_module,
    gcd_module,
    jess_module,
)

WORKLOADS = [
    ("gcd", gcd_module, [252, 105]),
    ("argc", argc_secret_module, [5]),
    ("collatz", collatz_module, [27]),
    ("caffeinemark", caffeinemark_module, CAFFEINEMARK_INPUT),
    ("jess", jess_module, JESS_INPUT),
]


def _dump_bytes(trace, module):
    buf = io.StringIO()
    dump_trace(trace, module, buf)
    return buf.getvalue()


def _assert_equivalent(module, inputs, mode):
    ref = run_module_reference(module, inputs, trace_mode=mode)
    fast = run_module(module, inputs, trace_mode=mode)
    assert fast.output == ref.output
    assert fast.steps == ref.steps
    assert fast.halted == ref.halted
    if mode is None:
        assert fast.trace is None and ref.trace is None
        return
    assert len(fast.trace.branches) == len(ref.trace.branches)
    for a, b in zip(fast.trace.branches, ref.trace.branches):
        # Object identity, not equality: the decoder keys on id().
        assert a.branch is b.branch
        assert a.follower is b.follower
        assert a.taken == b.taken
    if mode == "full":
        assert fast.trace.points == ref.trace.points
    assert _dump_bytes(fast.trace, module) == _dump_bytes(ref.trace, module)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize(
        "name,factory,inputs",
        WORKLOADS,
        ids=[w[0] for w in WORKLOADS],
    )
    @pytest.mark.parametrize("mode", [None, "branch", "full"])
    def test_workload_matches_reference(self, name, factory, inputs, mode):
        _assert_equivalent(factory(), inputs, mode)

    def test_error_messages_match_reference(self):
        cases = [
            # (source, inputs) designed to trap at runtime.
            ("    const 1\n    const 0\n    div\n", ()),
            ("    const 1\n    const 0\n    mod\n", ()),
            ("    const 5\n    aload\n", ()),
            ("    const -1\n    newarray\n", ()),
            ("    add\n", ()),
            ("    input\n", ()),
        ]
        for body, inputs in cases:
            src = (
                ".globals 0\n.entry main\n"
                ".func main params=0 locals=1\n"
                f"{body}    const 0\n    ret\n.end\n"
            )
            module = assemble(src)
            with pytest.raises(VMError) as ref_exc:
                run_module_reference(module, inputs)
            with pytest.raises(VMError) as fast_exc:
                run_module(module, inputs)
            assert str(fast_exc.value) == str(ref_exc.value)


def _assert_cold_and_warm(module, inputs=()):
    """Each mode with every block generated on its first arrival, then
    again with every block already cached."""
    for mode in (None, "branch", "full"):
        tier2.clear_cache()
        _assert_equivalent(module, inputs, mode)
        _assert_equivalent(module, inputs, mode)


class TestFusionEdgeCases:
    """Block boundaries: a tier-2 block must never swallow a label
    (trace site), and traps and frames stay exact around blocks. The
    class keeps the name of the superinstruction fuser these programs
    were first written against."""

    @pytest.fixture(autouse=True)
    def _promote_at_once(self, monkeypatch):
        monkeypatch.setattr(tier2, "_THRESHOLD", 1)

    def test_branch_into_middle_of_fusable_pair(self):
        # `mid:` is a branch target between `const 1` and `store 0`, so
        # a block ends before it and the jump lands on the store.
        src = """
.globals 0
.entry main
.func main params=0 locals=2
    const 0
    store 1
    const 1
mid:
    store 0
    load 1
    ifne done
    const 1
    store 1
    load 0
    const 10
    add
    goto mid
done:
    load 0
    print
    const 0
    ret
.end
"""
        module = assemble(src)
        _assert_cold_and_warm(module)
        assert run_module(module).output == [11]

    def test_label_sites_survive_fusion_in_full_trace(self):
        src = """
.globals 1
.entry main
.func main params=0 locals=2
    const 7
    store 0
loop:
    load 0
    const 1
    sub
    store 0
    load 0
    ifne loop
    const 0
    ret
.end
"""
        module = assemble(src)
        _assert_cold_and_warm(module)
        run = run_module(module, trace_mode="full")
        sites = [p.key.site for p in run.trace.points]
        assert sites.count("loop") == 7

    def test_constant_folding_preserves_division_trap(self):
        src = """
.globals 0
.entry main
.func main params=0 locals=0
    const 1
    const 0
    div
    print
    const 0
    ret
.end
"""
        module = assemble(src)
        with pytest.raises(VMError) as ref:
            run_module_reference(module)
        assert "division by zero" in str(ref.value)
        for mode in (None, "branch", "full"):
            tier2.clear_cache()
            for _ in ("cold", "warm"):
                with pytest.raises(VMError) as fast:
                    run_module(module, trace_mode=mode)
                assert str(fast.value) == str(ref.value)

    def test_deep_recursion_overflows_like_reference(self):
        src = """
.globals 0
.entry main
.func main params=0 locals=0
    call spin
    ret
.end
.func spin params=0 locals=0
    call spin
    ret
.end
"""
        module = assemble(src)
        with pytest.raises(VMError, match="call stack overflow"):
            run_module_reference(module)
        for mode in (None, "branch", "full"):
            for _ in ("cold", "warm"):
                with pytest.raises(VMError, match="call stack overflow"):
                    run_module(module, trace_mode=mode)


class TestStepLimit:
    INFINITE = """
.globals 0
.entry main
.func main params=0 locals=1
top:
    iinc 0 1
    goto top
.end
"""

    def test_step_limit_raises_clear_error(self):
        module = assemble(self.INFINITE)
        with pytest.raises(StepLimitExceeded) as exc:
            run_module(module, max_steps=1000)
        message = str(exc.value)
        assert "step limit of 1000 exceeded" in message
        assert "main" in message
        assert "max_steps" in message

    def test_step_limit_is_a_vm_error(self):
        # Callers that catch VMError (the attack harness, the prepare
        # pipeline before the dedicated handler) must keep working.
        module = assemble(self.INFINITE)
        with pytest.raises(VMError):
            run_module(module, max_steps=1000)

    def test_step_limit_mid_trace_discards_partial_trace(self):
        module = assemble(self.INFINITE)
        for mode in ("branch", "full"):
            with pytest.raises(StepLimitExceeded):
                run_module(module, trace_mode=mode, max_steps=1000)

    def test_limit_counts_real_instructions_like_reference(self):
        # A bounded loop: both engines must agree on the smallest
        # max_steps that succeeds, even though the fast engine checks
        # the budget once per tier-2 block.
        src_done = """
.globals 0
.entry main
.func main params=0 locals=1
top:
    iinc 0 1
    load 0
    const 5
    if_icmplt top
    const 0
    ret
.end
"""
        module = assemble(src_done)
        exact = run_module_reference(module).steps
        assert run_module(module, max_steps=exact).steps == exact
        with pytest.raises(StepLimitExceeded):
            run_module(module, max_steps=exact - 1)
        with pytest.raises(VMError, match="step limit"):
            run_module_reference(module, max_steps=exact - 1)


class TestEngineApi:
    def test_bad_trace_mode_rejected(self):
        module = gcd_module()
        with pytest.raises(ValueError, match="bad trace_mode"):
            run_module(module, trace_mode="everything")

    def test_unknown_callee_raises(self):
        # validate_structure catches a statically missing callee; the
        # runtime path fires when the module mutates after the
        # interpreter was built (functions compile lazily).
        src = """
.globals 0
.entry main
.func main params=0 locals=0
    call helper
    ret
.end
.func helper params=0 locals=0
    const 1
    ret
.end
"""
        module = assemble(src)
        interp = Interpreter(module)
        del module.functions["helper"]
        with pytest.raises(VMError, match="unknown function"):
            interp.run()
