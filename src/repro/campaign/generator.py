"""Seeded wee program generator: diverse-but-deterministic workloads.

The resilience experiments are only as convincing as the programs they
run over, and a hand-written corpus covers exactly the shapes someone
thought to write down. This generator emits wee programs whose control
structure is *drawn* from a seeded RNG — parameterized loop nesting,
call depth, branch shape, bounded recursion, array traffic and dead
code — so a campaign can sweep hundreds of distinct program shapes
while staying bit-for-bit reproducible from a single integer seed.

Two invariants shape every emitted program:

* **Termination and safety.** Every loop is literally bounded, every
  recursive call strictly decreases a non-negative counter, and
  ``/``/``%`` never see a zero or negative operand. A generated
  program cannot hang or trap, on any substrate.
* **A 32-bit-safe value domain.** Every assignment masks its value to
  :data:`VALUE_MASK` (2^18-1) and multiplications only ever scale a
  byte-masked operand by a small literal, so no intermediate leaves
  +/-2^28 — the domain where the 64-bit WVM, the reference engine and
  the 32-bit N32 machine agree exactly. The same programs therefore
  feed the differential fuzz corpus (``tests/test_fuzz_differential``)
  across all three evaluators.

The generator's output is *validated, not trusted*:
:func:`differential_check` runs each program on both WVM engines —
the fast path and the seed interpreter kept as
:mod:`repro.vm._reference` — and compares outputs, step counts and
branch-event streams. :func:`generate_corpus` gates every program
through that oracle before handing it to a campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.bitstring import decode_bits
from ..lang import compile_source
from ..vm._reference import run_module_reference
from ..vm.interpreter import run_module
from ..vm.program import Module

__all__ = [
    "VALUE_MASK",
    "GeneratedProgram",
    "GeneratorConfig",
    "GeneratorError",
    "OracleResult",
    "differential_check",
    "generate_corpus",
    "generate_program",
]

#: Assignments mask to 18 bits so every intermediate stays far inside
#: the +/-2^28 window where 32- and 64-bit arithmetic coincide.
VALUE_MASK = 0x3FFFF


class GeneratorError(Exception):
    """A generated program failed validation (a generator or VM bug)."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape knobs for one family of generated programs.

    All knobs bound *maximums*; the per-program RNG draws the actual
    shape, so one config still yields structurally diverse programs
    across seeds.
    """

    functions: int = 3          #: helper functions (call-graph depth)
    max_loop_nest: int = 2      #: deepest loop nesting in main
    max_block_stmts: int = 4    #: statements per generated block
    max_expr_depth: int = 3     #: expression tree depth
    recursion: bool = True      #: emit a bounded-recursion helper
    dead_code: bool = True      #: emit statically-dead branches
    arrays: bool = True         #: emit array allocation + traffic
    input_count: int = 2        #: ``input()`` reads (the key inputs)
    min_branch_events: int = 8  #: oracle floor on executed branches

    def __post_init__(self) -> None:
        if self.functions < 0 or self.input_count < 1:
            raise ValueError("functions must be >= 0, input_count >= 1")
        if self.max_loop_nest < 1 or self.max_block_stmts < 1:
            raise ValueError("loop nest and block sizes must be positive")
        if self.max_expr_depth < 1:
            raise ValueError("max_expr_depth must be positive")


@dataclass
class GeneratedProgram:
    """One generated workload: source, key inputs, and shape stats."""

    name: str
    seed: int
    source: str
    inputs: List[int]
    functions: int = 0
    loops: int = 0
    branches: int = 0
    calls: int = 0

    def module(self) -> Module:
        """Compile the source to a fresh WVM module."""
        return compile_source(self.source)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "functions": self.functions,
            "loops": self.loops,
            "branches": self.branches,
            "calls": self.calls,
        }


@dataclass
class OracleResult:
    """What the differential oracle saw for one program."""

    ok: bool
    steps: int = 0
    branch_events: int = 0
    output_values: int = 0
    detail: str = ""


class _Emitter:
    """Seeded source builder; every draw comes from one ``Random``."""

    def __init__(self, seed: int, config: GeneratorConfig) -> None:
        self.rng = random.Random(seed)
        self.config = config
        self.lines: List[str] = []
        self.indent = 0
        self.counter = 0
        self.loops = 0
        self.branches = 0
        self.calls = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -- expressions -------------------------------------------------------

    def expr(self, names: List[str], depth: int = 0,
             callees: Optional[List[str]] = None) -> str:
        """A random expression over ``names``, bounded in magnitude."""
        rng = self.rng
        if depth >= self.config.max_expr_depth or rng.random() < 0.3:
            if names and rng.random() < 0.7:
                return rng.choice(names)
            return str(rng.randrange(0, 256))
        roll = rng.random()
        if callees and roll < 0.15:
            self.calls += 1
            fn = rng.choice(callees)
            a = self.expr(names, depth + 1, callees)
            b = self.expr(names, depth + 1, callees)
            return f"{fn}(({a}) & 1023, ({b}) & 1023)"
        if roll < 0.25:
            op = rng.choice(["-", "!", "~"])
            return f"{op}({self.expr(names, depth + 1, callees)})"
        if roll < 0.35:
            # Multiplication keeps one side byte-masked and the other a
            # small literal so products never approach the 32-bit edge.
            sub = self.expr(names, depth + 1, callees)
            return f"(({sub}) & 255) * {rng.randrange(2, 10)}"
        op = rng.choice(
            ["+", "-", "&", "|", "^",
             "<", "<=", "==", "!=", ">", ">=", "&&", "||"]
        )
        left = self.expr(names, depth + 1, callees)
        right = self.expr(names, depth + 1, callees)
        return f"({left} {op} {right})"

    def cond(self, names: List[str],
             callees: Optional[List[str]] = None) -> str:
        """A comparison-shaped condition (always cheap to evaluate)."""
        left = self.expr(names, 1, callees)
        op = self.rng.choice(["<", "<=", "==", "!=", ">", ">="])
        right = self.expr(names, 1, callees)
        return f"({left}) {op} ({right})"

    # -- statements --------------------------------------------------------

    def assign(self, names: List[str], targets: List[str],
               callees: Optional[List[str]] = None) -> None:
        target = self.rng.choice(targets)
        value = self.expr(names, 0, callees)
        self.emit(f"{target} = ({value}) & {VALUE_MASK};")

    def if_stmt(self, names: List[str], targets: List[str],
                callees: List[str], loop_depth: int,
                stmt_depth: int = 0) -> None:
        self.branches += 1
        shape = self.rng.random()
        self.emit(f"if ({self.cond(names, callees)}) {{")
        self.indent += 1
        self.block(names, targets, callees, loop_depth, allow_loops=False,
                   stmt_depth=stmt_depth + 1)
        self.indent -= 1
        if shape < 0.4:
            self.emit("}")
            return
        if shape < 0.7:
            self.emit("} else {")
        else:
            self.branches += 1
            self.emit(f"}} else if ({self.cond(names, callees)}) {{")
        self.indent += 1
        self.block(names, targets, callees, loop_depth, allow_loops=False,
                   stmt_depth=stmt_depth + 1)
        self.indent -= 1
        self.emit("}")

    def for_loop(self, names: List[str], targets: List[str],
                 callees: List[str], loop_depth: int) -> None:
        self.loops += 1
        self.branches += 1
        var = self.fresh("i")
        bound = self.rng.randrange(4, 13)
        step = self.rng.randrange(1, 3)
        self.emit(f"for (var {var} = 0; {var} < {bound}; "
                  f"{var} = {var} + {step}) {{")
        self.indent += 1
        # The counter joins the readable names but NOT the assignment
        # targets: a body that wrote its own counter could reset the
        # loop forever.
        self.block(names + [var], targets, callees, loop_depth + 1,
                   allow_loops=True)
        self.indent -= 1
        self.emit("}")

    def while_loop(self, names: List[str], targets: List[str],
                   callees: List[str], loop_depth: int) -> None:
        self.loops += 1
        self.branches += 1
        var = self.fresh("t")
        self.emit(f"var {var} = {self.rng.randrange(3, 9)};")
        self.emit(f"while ({var} > 0) {{")
        self.indent += 1
        self.block(names + [var], targets, callees, loop_depth + 1,
                   allow_loops=True)
        self.emit(f"{var} = {var} - 1;")
        self.indent -= 1
        self.emit("}")

    #: Deepest statement nesting inside a single loop level; without a
    #: bound the if->block->if recursion has a supercritical branching
    #: factor and the occasional seed would emit a monster.
    MAX_STMT_DEPTH = 2

    def dead_branch(self, names: List[str]) -> None:
        """A statically-false branch: present in the bytecode, never
        executed — layout chaff for the attacks to chew on."""
        self.branches += 1
        self.emit("if (0 > 1) {")
        self.indent += 1
        if names:
            self.emit(f"{self.rng.choice(names)} = "
                      f"{self.rng.randrange(0, 65536)};")
        self.indent -= 1
        self.emit("}")

    def array_block(self, names: List[str], targets: List[str],
                    callees: List[str]) -> None:
        """Allocate a power-of-two array, fill it, fold it back."""
        self.loops += 1
        self.branches += 1
        arr = self.fresh("arr")
        idx = self.fresh("ai")
        size = self.rng.choice([4, 8, 16])
        self.emit(f"var {arr} = new({size});")
        self.emit(f"for (var {idx} = 0; {idx} < len({arr}); "
                  f"{idx} = {idx} + 1) {{")
        self.indent += 1
        value = self.expr(names + [idx], 1, callees)
        self.emit(f"{arr}[{idx}] = ({value}) & {VALUE_MASK};")
        self.indent -= 1
        self.emit("}")
        target = self.rng.choice(targets)
        pick = self.expr(names, 1, callees)
        self.emit(f"{target} = ({target} + {arr}[({pick}) & {size - 1}])"
                  f" & {VALUE_MASK};")

    def block(self, names: List[str], targets: List[str],
              callees: List[str], loop_depth: int, allow_loops: bool,
              stmt_depth: int = 0) -> None:
        for _ in range(self.rng.randrange(1, self.config.max_block_stmts + 1)):
            roll = self.rng.random()
            if allow_loops and loop_depth < self.config.max_loop_nest \
                    and roll < 0.25:
                if self.rng.random() < 0.5:
                    self.for_loop(names, targets, callees, loop_depth)
                else:
                    self.while_loop(names, targets, callees, loop_depth)
            elif roll < 0.5 and stmt_depth < self.MAX_STMT_DEPTH:
                self.if_stmt(names, targets, callees, loop_depth, stmt_depth)
            else:
                self.assign(names, targets, callees)


def _emit_helper(em: _Emitter, name: str, callees: List[str]) -> None:
    """One helper function: a few statements and a masked return."""
    em.emit(f"fn {name}(a, b) {{")
    em.indent += 1
    local = em.fresh("h")
    em.emit(f"var {local} = (a + b) & {VALUE_MASK};")
    names = ["a", "b", local]
    for _ in range(em.rng.randrange(1, 4)):
        if em.rng.random() < 0.4:
            em.if_stmt(names, names, callees, loop_depth=0)
        else:
            em.assign(names, names, callees)
    em.emit(f"return ({em.expr(names, 1, callees)}) & {VALUE_MASK};")
    em.indent -= 1
    em.emit("}")
    em.emit("")


def _emit_recursive(em: _Emitter, name: str) -> None:
    """A bounded-recursion helper: ``n`` strictly decreases to 0."""
    op = em.rng.choice(["+", "^", "|"])
    factor = em.rng.randrange(2, 6)
    em.branches += 1
    em.emit(f"fn {name}(n, acc) {{")
    em.indent += 1
    em.emit(f"if (n <= 0) {{ return acc & {VALUE_MASK}; }}")
    em.emit(f"return {name}(n - 1, (acc {op} n * {factor})"
            f" & {VALUE_MASK});")
    em.indent -= 1
    em.emit("}")
    em.emit("")


def generate_program(
    seed: int, config: Optional[GeneratorConfig] = None
) -> GeneratedProgram:
    """Emit one program. A pure function of ``(seed, config)``."""
    config = config or GeneratorConfig()
    em = _Emitter(seed, config)

    helpers: List[str] = []
    for index in range(config.functions):
        name = f"f{index}"
        _emit_helper(em, name, list(helpers))
        helpers.append(name)
    rec_name = None
    if config.recursion:
        rec_name = "rec0"
        _emit_recursive(em, rec_name)

    em.emit("fn main() {")
    em.indent += 1
    names: List[str] = []
    for index in range(config.input_count):
        var = f"x{index}"
        em.emit(f"var {var} = input() & 1023;")
        names.append(var)
    for index in range(em.rng.randrange(2, 5)):
        var = f"v{index}"
        em.emit(f"var {var} = {em.rng.randrange(0, 512)};")
        names.append(var)

    # Guaranteed spine: at least one input-coupled loop with a branch
    # inside, so every program yields branch events (and therefore
    # insertion sites) on its key input no matter what else the RNG
    # draws below.
    spine = em.fresh("i")
    em.loops += 1
    em.branches += 2
    em.emit(f"for (var {spine} = 0; {spine} < 8 + ({names[0]} & 7); "
            f"{spine} = {spine} + 1) {{")
    em.indent += 1
    em.emit(f"if (({spine} & 1) == 0) {{")
    em.indent += 1
    em.emit(f"{names[-1]} = ({names[-1]} + {spine} * 3) & {VALUE_MASK};")
    em.indent -= 1
    em.emit("} else {")
    em.indent += 1
    em.emit(f"{names[-1]} = ({names[-1]} ^ {names[0]}) & {VALUE_MASK};")
    em.indent -= 1
    em.emit("}")
    em.indent -= 1
    em.emit("}")

    for _ in range(em.rng.randrange(2, 4)):
        roll = em.rng.random()
        if roll < 0.45:
            em.for_loop(names, names, helpers, loop_depth=0)
        elif roll < 0.6:
            em.while_loop(names, names, helpers, loop_depth=0)
        elif roll < 0.8:
            em.if_stmt(names, names, helpers, loop_depth=0)
        else:
            em.assign(names, names, helpers)
    if config.arrays and em.rng.random() < 0.8:
        em.array_block(names, names, helpers)
    if config.dead_code:
        em.dead_branch(names)
    if rec_name is not None:
        em.calls += 1
        target = em.rng.choice(names)
        depth = em.expr(names, 1, helpers)
        em.emit(f"{target} = {rec_name}(({depth}) & 15, {target});")

    for var in names:
        em.emit(f"print({var});")
    em.emit("return 0;")
    em.indent -= 1
    em.emit("}")

    inputs = [em.rng.randrange(1, 1024) for _ in range(config.input_count)]
    return GeneratedProgram(
        name=f"gen-{seed:08d}",
        seed=seed,
        source="\n".join(em.lines) + "\n",
        inputs=inputs,
        functions=config.functions + (1 if rec_name else 0) + 1,
        loops=em.loops,
        branches=em.branches,
        calls=em.calls,
    )


def differential_check(
    program: GeneratedProgram,
    min_branch_events: int = 8,
) -> OracleResult:
    """Run the program on both WVM engines and compare everything.

    The seed interpreter (:mod:`repro.vm._reference`) is the oracle:
    outputs, step counts, the branch-event stream (length plus
    taken-flags) and the trace bits the fast path decodes in its run
    loop (against :func:`~repro.core.bitstring.decode_bits` of the
    reference events) must match exactly, and the program must actually
    exercise enough branches to be embeddable. A second fast run,
    warm (its hot blocks now cached as tier-2 code), must give the
    same outputs, steps, events and bits as the first.
    """
    try:
        module = compile_source(program.source)
    except Exception as exc:
        return OracleResult(ok=False, detail=f"does not compile: {exc}")
    try:
        fast = run_module(module, program.inputs, trace_mode="branch")
        ref = run_module_reference(module, program.inputs,
                                   trace_mode="branch")
        warm = run_module(module, program.inputs, trace_mode="branch")
    except Exception as exc:
        return OracleResult(ok=False, detail=f"execution trapped: {exc}")
    assert fast.trace is not None and ref.trace is not None
    assert warm.trace is not None
    if (warm.output, warm.steps, warm.trace.bits) != (
        fast.output, fast.steps, fast.trace.bits
    ) or [e.taken for e in warm.trace.branches] != [
        e.taken for e in fast.trace.branches
    ]:
        return OracleResult(
            ok=False, steps=fast.steps,
            detail="warm run diverges from the first fast run",
        )
    if fast.output != ref.output:
        return OracleResult(
            ok=False, steps=fast.steps,
            detail=f"output divergence: fast={fast.output[:8]} "
                   f"reference={ref.output[:8]}",
        )
    if fast.steps != ref.steps:
        return OracleResult(
            ok=False, steps=fast.steps,
            detail=f"step divergence: fast={fast.steps} ref={ref.steps}",
        )
    fast_branches = [e.taken for e in fast.trace.branches]
    ref_branches = [e.taken for e in ref.trace.branches]
    if fast_branches != ref_branches:
        return OracleResult(
            ok=False, steps=fast.steps,
            detail="branch-event divergence between engines",
        )
    if fast.trace.bits != bytes(decode_bits(ref.trace.branch_pairs())):
        return OracleResult(
            ok=False, steps=fast.steps,
            detail="trace-bit divergence between engines",
        )
    if len(fast_branches) < min_branch_events:
        return OracleResult(
            ok=False, steps=fast.steps,
            branch_events=len(fast_branches),
            detail=f"only {len(fast_branches)} branch events "
                   f"(need {min_branch_events})",
        )
    return OracleResult(
        ok=True,
        steps=fast.steps,
        branch_events=len(fast_branches),
        output_values=len(fast.output),
    )


def generate_corpus(
    count: int,
    base_seed: int = 0,
    config: Optional[GeneratorConfig] = None,
) -> List[GeneratedProgram]:
    """``count`` oracle-validated programs, seeded ``base_seed + i``.

    Raises :class:`GeneratorError` on the first program that fails the
    differential oracle — a generator bug must stop a campaign, not
    silently shrink its matrix.
    """
    if count < 1:
        raise ValueError("count must be positive")
    config = config or GeneratorConfig()
    corpus: List[GeneratedProgram] = []
    for index in range(count):
        program = generate_program(base_seed + index, config)
        oracle = differential_check(program, config.min_branch_events)
        if not oracle.ok:
            raise GeneratorError(
                f"{program.name}: differential oracle rejected the "
                f"program: {oracle.detail}\n--- source ---\n"
                f"{program.source}"
            )
        corpus.append(program)
    return corpus
