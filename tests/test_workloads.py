"""Tests for the benchmark workloads themselves.

The evaluation's validity rests on the workloads having the profiles
the paper's programs had: CaffeineMark hot and tiny, Jess big and
cold, SPEC kernels with hot loops plus cold one-shot paths. These
tests pin those properties so a workload edit cannot silently distort
the figures.
"""

from collections import Counter

import pytest

from repro.native import run_image
from repro.vm import SiteKey, run_module, verify_module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    collatz_module,
    gcd_module,
    jess_module,
)
from repro.workloads.spec import (
    REF_INPUT,
    SPEC_PROGRAMS,
    TRAIN_INPUT,
    spec_native,
    spec_vm,
)


class TestSimplePrograms:
    def test_gcd(self):
        assert run_module(gcd_module(), [25, 10]).output == [5]
        assert run_module(gcd_module(), [1071, 462]).output == [21]

    def test_collatz(self):
        assert run_module(collatz_module(), [27]).output == [111]
        assert run_module(collatz_module(), [1]).output == [0]

    def test_all_verify(self):
        for factory in (gcd_module, collatz_module, caffeinemark_module,
                        jess_module):
            verify_module(factory())


class TestCaffeineMarkProfile:
    def test_small_and_hot(self):
        module = caffeinemark_module()
        result = run_module(module, CAFFEINEMARK_INPUT, trace_mode="full")
        size = module.byte_size()
        assert size < 3000, "CaffeineMark-like must stay tiny"
        # Hot: steps vastly exceed static size.
        assert result.steps > 40 * module.instruction_count()

    def test_deterministic(self):
        a = run_module(caffeinemark_module(), CAFFEINEMARK_INPUT)
        b = run_module(caffeinemark_module(), CAFFEINEMARK_INPUT)
        assert a.output == b.output and a.steps == b.steps

    def test_scale_input_scales_work(self):
        small = run_module(caffeinemark_module(), [5]).steps
        big = run_module(caffeinemark_module(), [20]).steps
        assert big > 2 * small


class TestJessProfile:
    def test_big_and_cold(self):
        module = jess_module()
        cm = caffeinemark_module()
        assert module.byte_size() > 8 * cm.byte_size(), \
            "Jess-like must be an order of magnitude larger"
        result = run_module(module, JESS_INPUT, trace_mode="full")
        counts = Counter(p.key for p in result.trace.points)
        executed_sites = len(counts)
        # Cold: a large fraction of static sites never executes.
        total_sites = sum(
            1 + sum(1 for i in fn.code if i.is_label)
            for fn in module.functions.values()
        )
        assert executed_sites < total_sites / 2

    def test_most_rules_never_fire(self):
        module = jess_module()
        result = run_module(module, JESS_INPUT, trace_mode="full")
        counts = Counter(p.key for p in result.trace.points)
        fired_rules = {
            k.function for k in counts
            if k.function.startswith("rule_") and k.site != "<entry>"
        }
        # Rules are *called* every agenda cycle (entry sites execute),
        # but their bodies beyond the first guard mostly don't.
        assert len(fired_rules) < 24

    def test_burn_parameter(self):
        quick = run_module(jess_module(burn=100), JESS_INPUT).steps
        slow = run_module(jess_module(burn=20000), JESS_INPUT).steps
        assert slow > quick + 15000

    def test_rule_count_parameter(self):
        small = jess_module(rule_count=12).byte_size()
        large = jess_module(rule_count=72).byte_size()
        assert large > 2 * small


@pytest.mark.slow
@pytest.mark.parametrize("name", SPEC_PROGRAMS)
class TestSpecKernels:
    def test_substrates_agree(self, name):
        native = run_image(spec_native(name), TRAIN_INPUT).output
        vm = run_module(spec_vm(name), TRAIN_INPUT).output
        assert native == vm and native

    def test_deterministic(self, name):
        a = run_image(spec_native(name), REF_INPUT)
        b = run_image(spec_native(name), REF_INPUT)
        assert a.output == b.output and a.steps == b.steps

    def test_inputs_differ(self, name):
        train = run_image(spec_native(name), TRAIN_INPUT).output
        ref = run_image(spec_native(name), REF_INPUT).output
        assert train != ref, "train and ref must exercise different data"

    def test_has_cold_begin_edges(self, name):
        """The native embedder needs executed-but-cold direct jumps."""
        from repro.native import lift, profile_image
        from repro.native.isa import Label
        image = spec_native(name)
        profile = profile_image(image, TRAIN_INPUT)
        prog = lift(image)
        cold_jmps = 0
        for addr, idx in prog.address_index().items():
            item = prog.items[idx]
            if isinstance(item, tuple) or item.mnemonic != "jmp":
                continue
            if not isinstance(item.operands[0], Label):
                continue
            if 1 <= profile.count(addr) <= 16:
                cold_jmps += 1
        assert cold_jmps >= 2, f"{name} lacks cold begin/tamper edges"

    def test_realistic_size(self, name):
        image = spec_native(name)
        assert 25_000 < image.file_size() < 60_000


class TestColdLibrary:
    def test_exactly_one_cold_routine_warm(self):
        """The dispatcher warms one library routine per run; TRAIN and
        REF deliberately warm the same one (embedding correctness)."""
        from repro.workloads.spec import SPEC_SOURCES
        src = SPEC_SOURCES["mcf"]
        assert "cold_dispatch" in src
        sel_train = (TRAIN_INPUT[0] * 7 + TRAIN_INPUT[1]) % 110
        sel_ref = (REF_INPUT[0] * 7 + REF_INPUT[1]) % 110
        assert sel_train == sel_ref

    def test_cold_functions_compile_and_run(self):
        from repro.workloads.spec import _cold_library
        from repro.lang import compile_source
        src = _cold_library(8) + """
fn main() {
    for (var sel = 0; sel < 8; sel = sel + 1) {
        print(cold_dispatch(sel, 1234));
    }
    return 0;
}
"""
        out = run_module(compile_source(src)).output
        assert len(out) == 8
