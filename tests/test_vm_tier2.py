"""Tier 2 of the fast engine: hot basic blocks as generated Python.

The untraced, branch-traced and full-traced loops run a block that has
turned hot (or is already cached) as one generated function. Everything a caller
can observe must stay the reference engine's: outputs, steps,
``dump_trace`` bytes, ``Trace.bits``, trap messages, and where the
step budget runs out. Each differential check runs with a cold cache
(blocks promote during the run) and again with a warm one (cached
blocks run from their first arrival).
"""

import io

import pytest
from hypothesis import given, settings

from repro.bytecode_wm import WatermarkKey, embed
from repro.core.bitstring import decode_bits
from repro.pipeline import prepare
from repro.pipeline.batch import CopySpec, embed_copy
from repro.vm import (
    Interpreter,
    StepLimitExceeded,
    VMError,
    assemble,
    dump_trace,
    run_module,
)
from repro.vm._reference import run_module_reference
from repro.vm.instructions import ins
from repro.vm.program import Function, Module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    jess_module,
)
from tests.test_trace_bits import branchy_programs

try:
    from repro.vm import tier2
except ImportError:  # an engine without tier 2: only cache tests fail
    tier2 = None


def _cold():
    if tier2 is not None:
        tier2.clear_cache()


def _dump(trace, module):
    buf = io.StringIO()
    dump_trace(trace, module, buf)
    return buf.getvalue()


def _reference(module, inputs, mode):
    ref = run_module_reference(module, inputs, trace_mode=mode)
    if mode is None:
        return ref.output, ref.steps, ref.halted, None, None
    return (ref.output, ref.steps, ref.halted, _dump(ref.trace, module),
            bytes(decode_bits(ref.trace.branch_pairs())))


def _fast(module, inputs, mode):
    fast = run_module(module, inputs, trace_mode=mode)
    if mode is None:
        assert fast.trace is None
        return fast.output, fast.steps, fast.halted, None, None
    return (fast.output, fast.steps, fast.halted, _dump(fast.trace, module),
            fast.trace.bits)


def assert_like_reference(module, inputs=(), mode="branch"):
    assert _fast(module, inputs, mode) == _reference(module, inputs, mode)


def assert_cold_and_warm(module, inputs=(), modes=(None, "branch", "full")):
    """Compare outputs, steps, ``dump_trace`` bytes and ``Trace.bits``."""
    want = {mode: _reference(module, inputs, mode) for mode in modes}
    _cold()
    for mode in modes:
        assert _fast(module, inputs, mode) == want[mode]
    for mode in modes:  # warm: every hot block is cached now
        assert _fast(module, inputs, mode) == want[mode]


def _marked(factory, inputs, codec):
    key = WatermarkKey(secret=b"tier-two", inputs=inputs)
    return embed(factory(), 0x5EED1234, key, watermark_bits=32,
                 codec=codec).module


# Loop bodies whose operand-stack traffic a block must keep exact:
# reads of a slot written later in the block, values carried on the
# real stack across block ends, and the stack-shuffling opcodes.
STACK_SHAPES = {
    "swap-locals": "load 1\n load 2\n store 1\n store 2",
    "swap-globals": "gload 0\n gload 1\n gstore 0\n gstore 1",
    "read-then-iinc": "load 1\n iinc 1 7\n load 1\n sub\n store 2",
    "dup-swap-pop": "load 1\n dup\n load 2\n swap\n pop\n add\n "
                    "dup\n mul\n const 1000003\n mod\n store 2",
    "carried-across-goto": "load 1\n load 2\n goto mid\n mid:\n bxor\n"
                           " const 5\n shl\n neg\n bnot\n store 1",
    "carried-across-branch": "load 1\n load 2\n load 0\n ifeq even\n "
                             "add\n goto out\n even:\n sub\n out:\n "
                             "const 3\n shr\n store 2",
    "wrapping": "load 1\n const 9223372036854775807\n add\n const 3\n "
                "mul\n const -9223372036854775808\n bor\n store 1",
    "arrays": "const 3\n newarray\n dup\n alen\n store 2\n store 1\n "
              "load 1\n const 2\n load 0\n astore\n load 1\n const 2\n "
              "aload\n print",
}


def _shape_program(body):
    return assemble(f"""
.globals 2
.entry main
.func main params=0 locals=3
    const 20
    store 0
    const 11
    store 1
    const -4
    store 2
    const 6
    gstore 1
loop:
    {body}
    load 1
    load 2
    gload 0
    gload 1
    add
    add
    add
    print
    iinc 0 -1
    load 0
    ifgt loop
    const 0
    ret
.end
""")


class TestDifferential:
    @pytest.mark.parametrize("name,factory,inputs", [
        ("jess", jess_module, JESS_INPUT),
        ("caffeinemark", caffeinemark_module, CAFFEINEMARK_INPUT),
    ])
    def test_workload(self, name, factory, inputs):
        assert_cold_and_warm(factory(), inputs)

    @pytest.mark.parametrize("codec", ["gcrt", "rs-8"])
    @pytest.mark.parametrize("name,factory,inputs", [
        ("jess", jess_module, JESS_INPUT),
        ("caffeinemark", caffeinemark_module, CAFFEINEMARK_INPUT),
    ])
    def test_marked_copy(self, name, factory, inputs, codec):
        # Warm from the unmarked program first, as a minting process is.
        _cold()
        run_module(factory(), inputs, trace_mode="branch")
        marked = _marked(factory, inputs, codec)
        want = {mode: _reference(marked, inputs, mode)
                for mode in (None, "branch", "full")}
        for mode in want:  # unchanged blocks hit the cache
            assert _fast(marked, inputs, mode) == want[mode]
        _cold()
        for mode in want:
            assert _fast(marked, inputs, mode) == want[mode]

    @given(module=branchy_programs())
    @settings(max_examples=40, deadline=None)
    def test_generated_programs(self, module):
        assert_cold_and_warm(module)

    def test_odd_operands_stay_in_tier_one(self):
        # Keys compare 1 == 1.0 == True, so a cached block for `const 1`
        # must never run for a hand-built `const 1.0` or `const True`.
        def module(value):
            return Module({"main": Function("main", 0, 1, [
                ins("label", "top"), ins("const", value), ins("print"),
                ins("iinc", 0, 1), ins("load", 0), ins("const", 12),
                ins("if_icmplt", "top"), ins("const", 0), ins("ret"),
            ])})
        _cold()
        for value in (1, 1.0, True):
            want = run_module_reference(module(value)).output
            for _ in ("first", "again"):
                got = run_module(module(value)).output
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("body", sorted(STACK_SHAPES))
    def test_stack_shapes(self, body):
        assert_cold_and_warm(_shape_program(STACK_SHAPES[body]))


# A callee with a 12-instruction block in a loop, called from a loop.
HOT_CALLEE = """
.globals 1
.entry main
.func main params=0 locals=1
    const 3
    store 0
again:
    load 0
    call work
    gstore 0
    iinc 0 -1
    load 0
    ifgt again
    gload 0
    print
    const 0
    ret
.end
.func work params=1 locals=3
    const 0
    store 1
    const 0
    store 2
top:
    load 1
    const 10
    if_icmpge done
    load 2
    load 1
    mul
    load 0
    add
    const 7
    bxor
    store 2
    iinc 1 1
    goto top
done:
    load 2
    ret
.end
"""


# Every way a block can leave, each crossing its own sites. The counter
# (local 0) runs 12 .. 1: through `loop` while above 4, then through
# `goto second`.
EXITS = """
.globals 1
.entry main
.func main params=0 locals=2
    const 12
    store 0
loop:
    load 0
    const 3
    mod
    ifeq second
first:
second:
    load 0
    const 1
    add
    store 1
mid:
    load 0
    load 1
    add
    call work
after:
    gstore 0
    iinc 0 -1
    load 0
    const 4
    if_icmpgt loop
    load 0
    ifle done
    goto second
done:
    gload 0
    print
    const 0
    ret
.end
.func work params=1 locals=2
    load 0
    const 5
    mul
    store 1
    load 1
    const 7
    bxor
    ret
.end
"""


def _block_ends(cf):
    """Mnemonic of the last instruction of each installed block."""
    return {cf.fn.code[cf.raw_of[bk[3] - 1]].op for bk in cf.blk if bk}


class TestFullTrace:
    def test_warm_full_run_installs_blocks(self):
        module = assemble(HOT_CALLEE)
        _cold()
        run_module(module, trace_mode="full")
        interp = Interpreter(module, trace_mode="full")
        result = interp.run()
        assert result.steps == run_module_reference(module).steps
        assert any(interp._compiled["work"].blk)  # main's loop stays cold

    def test_each_block_exit_crosses_its_own_sites(self, monkeypatch):
        # `ifeq second` lands on the slot after `first:` `second:` on
        # both edges, but only its fall-through crosses `first`; `goto
        # second` crosses `second` alone; `store 1` ends a block just
        # before `mid`, `add` one just before `call`, and `bxor` one
        # just before `ret` (the return crosses `after`).
        module = assemble(EXITS)
        points = run_module_reference(module, trace_mode="full").trace.points
        sites = [p.key.site for p in points]
        assert (sites.count("first"), sites.count("second")) == (5, 12)
        assert sites.count("mid") == sites.count("after") == 12
        monkeypatch.setattr(tier2, "_THRESHOLD", 1)  # every block runs
        _cold()
        interp = Interpreter(module, trace_mode="full")
        interp.run()
        assert {"ifeq", "store", "add", "goto", "if_icmpgt"} <= _block_ends(
            interp._compiled["main"])
        assert _block_ends(interp._compiled["work"]) == {"bxor"}
        assert_cold_and_warm(module)


def _tier1_limits(module, mode, total, monkeypatch):
    """Where tier 1 alone runs out, for every budget short of ``total``.

    Recorded from an empty cache with a promotion threshold no run of
    ``total`` steps reaches, so no block is ever installed.
    """
    _cold()
    limits = {}
    with monkeypatch.context() as m:
        m.setattr(tier2, "_THRESHOLD", total + 1)
        for budget in range(1, total):
            interp = Interpreter(module, max_steps=budget, trace_mode=mode)
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run()
            assert not any(any(cf.blk) for cf in interp._compiled.values())
            limits[budget] = exc.value
    assert tier2.cache_size() == 0
    return limits


class TestStepBudget:
    @pytest.mark.parametrize("mode", [None, "branch", "full"])
    def test_every_budget_lands_where_tier_one_does(self, mode, monkeypatch):
        module = assemble(HOT_CALLEE)
        total = run_module_reference(module).steps
        limits = _tier1_limits(module, mode, total, monkeypatch)
        run_module(module, trace_mode=mode)  # warm: blocks cached
        assert tier2.cache_size() > 0
        for budget in range(1, total):
            want = limits[budget]
            with pytest.raises(VMError, match="step limit"):
                run_module_reference(module, max_steps=budget)
            with pytest.raises(StepLimitExceeded) as got:
                run_module(module, trace_mode=mode, max_steps=budget)
            assert got.value.max_steps == want.max_steps == budget
            assert got.value.function == want.function
            assert str(got.value) == str(want)
        assert run_module(module, trace_mode=mode,
                          max_steps=total).steps == total

    @pytest.mark.parametrize("mode", [None, "branch", "full"])
    def test_budget_runs_out_before_a_later_trap(self, mode):
        # The loop stays in tier 2 until it divides by zero; any budget
        # short of that must still stop the run on the budget.
        module = assemble("""
.globals 0
.entry main
.func main params=0 locals=2
    const 30
    store 0
top:
    const 100
    load 0
    div
    store 1
    iinc 0 -1
    goto top
.end
""")
        with pytest.raises(VMError, match="division by zero"):
            run_module_reference(module)
        _cold()
        for budget in range(1, 185):
            with pytest.raises(StepLimitExceeded):
                run_module(module, trace_mode=mode, max_steps=budget)


def _looped(body, count=12):
    """``body`` in a loop whose counter (local 0) runs ``count`` .. 1."""
    return assemble(f"""
.globals 1
.entry main
.func main params=0 locals=2
    const 4
    newarray
    gstore 0
    const {count}
    store 0
loop:
{body}
    iinc 0 -1
    load 0
    ifgt loop
    const 0
    ret
.end
""")


# Each body traps on a late iteration, after its block has promoted.
TRAPS = {
    "division by zero": "    const 100\n    load 0\n    const 3\n    sub\n"
                        "    div\n    store 1",
    "modulo by zero": "    const 100\n    load 0\n    const 3\n    sub\n"
                      "    mod\n    store 1",
    # (i - 3) >> 63 is 0 until i drops below 3, then -1.
    "bad array reference": "    load 0\n    const 3\n    sub\n    const 63\n"
                           "    shr\n    const 0\n    aload\n    store 1",
    "out of bounds": "    gload 0\n    load 0\n    const 3\n    sub\n"
                     "    const 63\n    shr\n    load 0\n    astore",
    "bad array length": "    load 0\n    const 3\n    sub\n    const 1\n"
                        "    sub\n    newarray\n    store 1",
}


class TestTraps:
    @pytest.mark.parametrize("trap", sorted(TRAPS))
    @pytest.mark.parametrize("mode", [None, "branch", "full"])
    def test_trap_in_a_block_matches_reference(self, trap, mode):
        module = _looped(TRAPS[trap])
        with pytest.raises(VMError) as ref:
            run_module_reference(module, trace_mode=mode)
        assert trap in str(ref.value)
        _cold()
        for _ in ("cold", "warm"):
            with pytest.raises(VMError) as fast:
                run_module(module, trace_mode=mode)
            assert str(fast.value) == str(ref.value)

    @pytest.mark.parametrize("mode", [None, "branch", "full"])
    def test_underflow_in_a_block_gives_reference_diagnostic(self, mode):
        # Unverifiable: main leaves 10 values, and each pass of the loop
        # pops one more than it pushes, so the 11th pass underflows.
        pushes = "\n".join("    const 5" for _ in range(10))
        module = assemble(f"""
.globals 0
.entry main
.func main params=0 locals=1
{pushes}
loop:
    pop
    iinc 0 1
    load 0
    const 40
    if_icmplt loop
    const 0
    ret
.end
""")
        with pytest.raises(VMError) as ref:
            run_module_reference(module, trace_mode=mode)
        assert "stack underflow on pop" in str(ref.value)
        _cold()
        for _ in ("cold", "warm"):
            with pytest.raises(VMError) as fast:
                run_module(module, trace_mode=mode)
            assert str(fast.value) == str(ref.value)


class TestCache:
    def test_renamed_labels_hit_the_cache(self, monkeypatch):
        assert tier2 is not None
        module = assemble(HOT_CALLEE)
        _cold()
        run_module(module, trace_mode="branch")
        cached = tier2.cache_size()
        assert cached > 0
        generated = []
        source = tier2.block_source
        monkeypatch.setattr(
            tier2, "block_source",
            lambda key: generated.append(key) or source(key),
        )
        renamed = assemble(
            HOT_CALLEE.replace("top", "head7").replace("done", "exit2")
            .replace("again", "outer")
        )
        assert_like_reference(renamed, (), "branch")
        assert generated == []
        assert tier2.cache_size() == cached

    def test_cached_block_runs_from_its_first_arrival(self, monkeypatch):
        assert tier2 is not None
        module = assemble(HOT_CALLEE)
        _cold()
        run_module(module)
        monkeypatch.setattr(tier2, "_THRESHOLD", 10**9)  # no promotions
        interp = Interpreter(module)
        assert interp.run().output == run_module_reference(module).output
        installed = [b for b in interp._compiled["work"].blk if b]
        assert len(installed) == 2  # the loop test and the loop body

    def test_minting_copies_keeps_the_cache_bounded(self, monkeypatch):
        assert tier2 is not None
        monkeypatch.setattr(tier2, "_CAP", 48)
        _cold()
        key = WatermarkKey(secret=b"tier-two-mint", inputs=CAFFEINEMARK_INPUT)
        prepared = prepare(caffeinemark_module(), key, 32, codec="rs-8")
        sizes = []
        for n in range(50):
            spec = CopySpec(copy_id=f"c{n}", watermark=0x1000 + 97 * n,
                            seed=n)
            result = embed_copy(prepared, spec)
            assert result.ok and result.recognized == spec.watermark
            sizes.append(tier2.cache_size())
        assert max(sizes) <= 48
