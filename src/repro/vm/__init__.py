"""WVM — the stack-based virtual machine substrate (Java-bytecode analog).

See DESIGN.md for the substitution argument. Public surface:

* :class:`Instruction`, :class:`Function`, :class:`Module` — code model;
* :func:`assemble` / :func:`disassemble` — textual form;
* :class:`Interpreter` / :func:`run_module` — execution with optional
  tracing ("branch" or "full" mode), on the precompiled fast path;
* :class:`ReferenceInterpreter` / :func:`run_module_reference` — the
  seed tree-walking engine, kept as the differential-testing oracle
  and benchmarking baseline;
* :func:`build_cfg` — control-flow graphs;
* :func:`verify_module` — the bytecode verifier;
* rewriting helpers in :mod:`repro.vm.rewriter`.
"""

from ._reference import ReferenceInterpreter, run_module_reference
from .assembler import AssemblyError, assemble
from .cfg import CFG, BasicBlock, build_cfg
from .disassembler import disassemble, disassemble_function
from .instructions import (
    CONDITIONAL_BRANCHES,
    INVERSES,
    Instruction,
    ins,
    label,
    wrap64,
)
from .interpreter import (
    DEFAULT_MAX_STEPS,
    Interpreter,
    StepLimitExceeded,
    VMError,
    run_module,
)
from .program import Function, Module, VMFormatError
from .rewriter import (
    RewriteError,
    count_conditional_branches,
    freshen_template,
    insert_at_site,
    rename_labels,
    site_index,
)
from .trace_io import (
    TraceFormatError,
    dump_trace,
    load_trace,
)
from .tracing import BranchEvent, RunResult, SiteKey, Trace, TracePoint
from .verifier import VerificationError, is_verifiable, verify_module

__all__ = [
    "AssemblyError",
    "BasicBlock",
    "BranchEvent",
    "CFG",
    "CONDITIONAL_BRANCHES",
    "DEFAULT_MAX_STEPS",
    "Function",
    "INVERSES",
    "Instruction",
    "Interpreter",
    "Module",
    "ReferenceInterpreter",
    "RewriteError",
    "RunResult",
    "SiteKey",
    "StepLimitExceeded",
    "Trace",
    "TraceFormatError",
    "TracePoint",
    "VMError",
    "VMFormatError",
    "VerificationError",
    "assemble",
    "build_cfg",
    "count_conditional_branches",
    "disassemble",
    "disassemble_function",
    "dump_trace",
    "freshen_template",
    "ins",
    "insert_at_site",
    "is_verifiable",
    "label",
    "load_trace",
    "rename_labels",
    "run_module",
    "run_module_reference",
    "site_index",
    "verify_module",
    "wrap64",
]
