"""The fast engine decodes the trace bit-string inside its run loop.

``Trace.bits`` must be exactly what :func:`decode_bits` makes of the
reference engine's branch events — for every shape a branch can take
(each compare-branch shape at the end of a tier-2 block, a branch
whose target is its own fall-through), across call frames, in branch
and full mode, with a cold and a warm tier-2 block cache, and on
generated programs. Recognition reads those bits, so a trace from
either engine must recognize the same way, and the window multiset
must not depend on how the bits are held.
"""

import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode_wm import WatermarkKey, embed, recognize
from repro.core.bitstring import decode_bits, sliding_windows, window_multiset
from repro.vm import Interpreter, assemble, run_module, tier2
from repro.vm._reference import run_module_reference
from repro.vm.trace_io import dump_trace, load_trace
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    collatz_module,
    gcd_module,
    jess_module,
)

WORKLOADS = [
    ("gcd", gcd_module, [252, 105]),
    ("collatz", collatz_module, [27]),
    ("caffeinemark", caffeinemark_module, CAFFEINEMARK_INPUT),
    ("jess", jess_module, JESS_INPUT),
]


def reference_bits(module, inputs, mode="branch"):
    ref = run_module_reference(module, inputs, trace_mode=mode)
    return bytes(decode_bits(ref.trace.branch_pairs()))


def assert_bits_exact(module, inputs=(), mode="branch"):
    fast = run_module(module, inputs, trace_mode=mode)
    assert isinstance(fast.trace.bits, bytes)
    assert fast.trace.bits == reference_bits(module, inputs, mode)
    assert len(fast.trace.bits) == len(fast.trace.branches)
    return fast.trace.bits


def loop_program(body, globals_count=2):
    """``body`` inside a 9-iteration loop over varying locals/globals.

    Locals: 0 counts down from 9, 1 steps by 3, 2 counts fall-throughs
    of the branch under test (which targets ``skip``). Globals: 0 is
    ``i % 3``, 1 is ``local1 % 5``.
    """
    return assemble(f"""
.globals {globals_count}
.entry main
.func main params=0 locals=3
    const 9
    store 0
    const 1
    store 1
loop:
    load 0
    const 3
    mod
    gstore 0
    iinc 1 3
    load 1
    const 5
    mod
    gstore 1
{body}
    iinc 2 1
skip:
    iinc 0 -1
    load 0
    ifgt loop
    load 2
    print
    const 0
    ret
.end
""")


# Each compare-branch shape: where its operands come from (L local,
# C const, G global; I/IC an if_icmp, Z/IZ a zero compare).
FAMILIES = {
    "LLI": "load 0\n load 1\n if_icmplt skip",
    "LCI": "load 0\n const 4\n if_icmpge skip",
    "LGI": "load 0\n gload 0\n if_icmpeq skip",
    "CLI": "const 4\n load 0\n if_icmple skip",
    "CGI": "const 1\n gload 0\n if_icmpgt skip",
    "GLI": "gload 1\n load 0\n if_icmpne skip",
    "GCI": "gload 0\n const 1\n if_icmplt skip",
    "GGI": "gload 0\n gload 1\n if_icmpge skip",
    "LIC": "load 0\n const 2\n mod\n load 1\n if_icmpgt skip",
    "CIC": "load 0\n const 2\n mod\n const 1\n if_icmpeq skip",
    "GIC": "load 0\n const 2\n mod\n gload 0\n if_icmpne skip",
    "LIZ": "load 0\n ifle skip",
    "CIZ": "const 0\n ifeq skip",
    "GIZ": "gload 0\n ifne skip",
    "icmp": "load 0\n dup\n if_icmpeq skip",
    "zero": "load 0\n const 2\n mod\n ifeq skip",
}


def branch_ends_a_block(module, mode):
    """Whether a run installs a tier-2 block that ends at the branch
    to ``skip``."""
    interp = Interpreter(module, trace_mode=mode)
    interp.run()
    cf = interp._compiled["main"]
    return any(
        cf.fn.code[cf.raw_of[bk[3] - 1]].arg == "skip"
        for bk in cf.blk if bk
    )


class TestBranchShapes:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_each_compare_branch_family(self, family):
        # The loop passes the branch 9 times, past tier 2's promotion
        # threshold, so the branch runs in a generated block.
        module = loop_program(FAMILIES[family])
        for mode in ("branch", "full"):
            assert branch_ends_a_block(module, mode)
            assert_bits_exact(module, mode=mode)

    @pytest.mark.parametrize("body", [
        "load 0\n const 2\n mod\n ifeq next",
        "load 0\n ifle next",
        "load 0\n const 5\n if_icmplt next",
    ], ids=["unfused", "fused-zero", "fused-icmp"])
    def test_branch_to_the_immediately_following_label(self, body):
        # Both edges reach the same label object, so the branch always
        # decodes to 0 whichever way it goes.
        module = loop_program(f"{body}\nnext:")
        fast = run_module(module, trace_mode="branch")
        taken = [e.taken for e in fast.trace.branches]
        assert True in taken and False in taken
        bits = assert_bits_exact(module)
        loop_bits = [
            b for b, e in zip(bits, fast.trace.branches)
            if e.branch.arg == "next"
        ]
        assert loop_bits and not any(loop_bits)

    def test_one_branch_across_recursive_frames(self):
        module = assemble("""
.globals 0
.entry main
.func main params=0 locals=0
    const 7
    call fib
    print
    const 0
    ret
.end
.func fib params=1 locals=1
    load 0
    const 2
    if_icmplt base
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
base:
    load 0
    ret
.end
""")
        assert run_module(module).output == [13]
        bits = assert_bits_exact(module)
        # One static branch, both ways, in many frames: its first
        # outcome (recursing) is 0, every base case a 1.
        branches = run_module(module, trace_mode="branch").trace.branches
        assert len({id(e.branch) for e in branches}) == 1
        assert 0 < sum(bits) < len(bits)
        assert_bits_exact(module, mode="full")


class TestModesAndProfiles:
    @pytest.mark.parametrize("mode", ["branch", "full"])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize(
        "name,factory,inputs", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_workload(self, name, factory, inputs, mode, warm):
        module = factory()
        tier2.clear_cache()
        if warm:  # every hot block is cached before the checked run
            run_module(module, inputs, trace_mode=mode)
        assert_bits_exact(module, inputs, mode)

    def test_untraced_run_has_no_trace(self):
        assert run_module(gcd_module(), [252, 105]).trace is None


class TestTraceContract:
    def test_bits_stay_out_of_equality_and_trace_io(self):
        module = collatz_module()
        fast = run_module(module, [27], trace_mode="full").trace
        ref = run_module_reference(module, [27], trace_mode="full").trace
        assert ref.bits is None and fast.bits
        assert fast == ref
        text, ref_text = io.StringIO(), io.StringIO()
        dump_trace(fast, module, text)
        dump_trace(ref, module, ref_text)
        assert text.getvalue() == ref_text.getvalue()
        text.seek(0)
        loaded = load_trace(text, module)
        assert loaded == fast and loaded.bits is None

    @pytest.mark.parametrize("codec", ["gcrt", "rs-8"])
    def test_recognize_reads_either_engines_trace_alike(self, codec):
        key = WatermarkKey(secret=b"trace-bits", inputs=[27])
        marked = embed(collatz_module(), 0x2BAD, key, watermark_bits=16,
                       codec=codec).module
        fast = run_module(marked, key.inputs, trace_mode="branch").trace
        ref = run_module_reference(marked, key.inputs,
                                   trace_mode="branch").trace
        assert ref.bits is None
        got = recognize(marked, key, 16, trace=fast, codec=codec)
        want = recognize(marked, key, 16, trace=ref, codec=codec)
        assert got == want
        assert got.complete and got.value == 0x2BAD
        assert recognize(marked, key, 16, codec=codec) == want


# -- generated programs -------------------------------------------------------

SOURCES = {"L": ("load", 2), "C": ("const", None), "G": ("gload", 2)}
ICMP = ["if_icmpeq", "if_icmpne", "if_icmplt", "if_icmple", "if_icmpgt",
        "if_icmpge"]
ZERO = ["ifeq", "ifne", "iflt", "ifle", "ifgt", "ifge"]


@st.composite
def operands(draw):
    op, slots = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    if slots is None:
        return f"const {draw(st.integers(-2, 4))}"
    return f"{op} {draw(st.integers(0, slots - 1))}"


@st.composite
def segments(draw, k):
    form = draw(st.sampled_from(["icmp", "zero", "computed"]))
    if form == "icmp":
        lines = [draw(operands()), draw(operands()),
                 f"{draw(st.sampled_from(ICMP))} s{k}"]
    elif form == "zero":
        lines = [draw(operands()), f"{draw(st.sampled_from(ZERO))} s{k}"]
    else:
        lines = [draw(operands()), draw(operands()), "sub",
                 f"{draw(st.sampled_from(ZERO))} s{k}"]
    if not draw(st.booleans()):  # else: branch to the next label
        lines.append("iinc 2 1")
    lines.append(f"s{k}:")
    return "\n".join(lines)


@st.composite
def branchy_programs(draw):
    count = draw(st.integers(1, 12))
    step = draw(st.integers(-3, 3))
    body = [draw(segments(k)) for k in range(draw(st.integers(1, 6)))]
    return assemble(f"""
.globals 2
.entry main
.func main params=0 locals=3
    const {count}
    store 0
loop:
    iinc 1 {step}
    load 0
    const 3
    mod
    gstore 0
    load 1
    gstore 1
{chr(10).join(body)}
    iinc 0 -1
    load 0
    ifgt loop
    load 2
    print
    const 0
    ret
.end
""")


class TestGeneratedPrograms:
    @given(module=branchy_programs(), mode=st.sampled_from(["branch", "full"]))
    @settings(max_examples=60, deadline=None)
    def test_bits_match_the_reference_decode(self, module, mode):
        assert_bits_exact(module, mode=mode)


class TestWindowMultisetInputs:
    @given(bits=st.lists(st.integers(0, 1), max_size=400))
    @settings(max_examples=80, deadline=None)
    def test_same_items_for_list_bytes_and_bytearray(self, bits):
        want = list(Counter(w for _, w in sliding_windows(bits)).items())
        for form in (bits, bytes(bits), bytearray(bits)):
            assert list(window_multiset(form).items()) == want

    def test_a_long_looping_trace(self):
        # Every residue's words are read past the first few, and a
        # repeated loop body makes most windows repeat.
        rng = random.Random(7)
        loop = [rng.randint(0, 1) for _ in range(300)]
        bits = [rng.randint(0, 1) for _ in range(5000)] + loop * 60
        want = list(Counter(w for _, w in sliding_windows(bits)).items())
        assert list(window_multiset(bytes(bits)).items()) == want

    def test_names_a_non_bit_in_bytes(self):
        for form in (bytes, bytearray):
            with pytest.raises(ValueError, match="bit at index 70 is 2,"):
                window_multiset(form([0] * 70 + [2] + [1] * 10))
