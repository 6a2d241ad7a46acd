"""N32 — the native-code substrate (IA-32 analog).

Public surface:

* :mod:`repro.native.isa` — instructions and operands;
* :func:`assemble_text` / :func:`build_image` — assembly to binaries;
* :class:`Machine` / :func:`run_image` — simulation with a hardware
  fault model; :func:`record_calls` — one run's calls and returns;
* :func:`lift` / :func:`lower` / :func:`patch_bytes` — PLTO-style
  rewriting;
* :func:`profile_image` — training-input profiles.
"""

from .assembler import DataBlock, NasmError, assemble_text, build_image
from .encoding import EncodingError, decode_instruction, encode_instruction
from .image import (
    BinaryImage,
    STACK_TOP,
    TEXT_BASE,
    default_data_base,
)
from .isa import (
    CONDITIONAL_JUMPS,
    Imm,
    JCC_INVERSES,
    Label,
    Mem,
    NInstruction,
    REGISTERS,
    Reg,
    SymMem,
    ni,
    signed32,
    wrap32,
)
from .machine import (
    DEFAULT_MAX_STEPS,
    EXIT_ADDRESS,
    CallRecord,
    Machine,
    MachineFault,
    NRunResult,
    record_calls,
    run_image,
)
from .cfg import NativeCFG, build_native_cfg
from .listing import format_data_words, format_listing
from .profiler import Profile, profile_image
from .rewriter import (
    LiftedProgram,
    RewriteError,
    lift,
    lower,
    patch_bytes,
)

__all__ = [
    "BinaryImage",
    "CONDITIONAL_JUMPS",
    "CallRecord",
    "DEFAULT_MAX_STEPS",
    "DataBlock",
    "EXIT_ADDRESS",
    "EncodingError",
    "Imm",
    "JCC_INVERSES",
    "Label",
    "LiftedProgram",
    "Machine",
    "MachineFault",
    "Mem",
    "NInstruction",
    "NRunResult",
    "NasmError",
    "NativeCFG",
    "Profile",
    "REGISTERS",
    "Reg",
    "RewriteError",
    "STACK_TOP",
    "SymMem",
    "TEXT_BASE",
    "assemble_text",
    "build_image",
    "build_native_cfg",
    "decode_instruction",
    "default_data_base",
    "encode_instruction",
    "format_data_words",
    "format_listing",
    "lift",
    "lower",
    "ni",
    "patch_bytes",
    "profile_image",
    "record_calls",
    "run_image",
    "signed32",
    "wrap32",
]
