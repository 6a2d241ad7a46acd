"""Trace serialization (paper Section 3.1).

    "In the tracing phase, we instrument the input program to write to
    a file the sequence of basic blocks it executes. At each trace
    point we also store the value of every local variable ..."

:func:`dump_trace` writes that file as one JSON document (format
version 1) and :func:`load_trace` reads it back, so tracing and
embedding can run in separate processes: trace once on the machine
that has the secret input, ship the file, embed elsewhere. The text is
also the byte-identity oracle between the fast engine and
:mod:`repro.vm._reference`.

Branch events reference static instructions, whose identity is
object-based in memory; on disk they are keyed by a stable
``(function, instruction ordinal)`` pair, which is exactly as stable
as the module file the trace was produced from. Loading re-binds the
events against a module with matching structure.
"""

from __future__ import annotations

import json
from typing import Dict, List, TextIO, Tuple

from .instructions import Instruction
from .program import Module
from .tracing import BranchEvent, SiteKey, Trace, TracePoint

FORMAT_VERSION = 1


class TraceFormatError(Exception):
    """The trace file is malformed or does not match the module."""


def _instruction_index(module: Module) -> Dict[int, Tuple[str, int]]:
    """id(instruction) -> (function, ordinal among real instructions)."""
    out: Dict[int, Tuple[str, int]] = {}
    for name, fn in module.functions.items():
        for ordinal, instr in enumerate(fn.code):
            out[id(instr)] = (name, ordinal)
    return out


def _instruction_table(module: Module) -> Dict[Tuple[str, int], Instruction]:
    out: Dict[Tuple[str, int], Instruction] = {}
    for name, fn in module.functions.items():
        for ordinal, instr in enumerate(fn.code):
            out[(name, ordinal)] = instr
    return out


def dump_trace(trace: Trace, module: Module, fp: TextIO) -> None:
    """Write a trace produced from ``module`` to a file object."""
    index = _instruction_index(module)

    def key_of(instr: Instruction) -> List:
        try:
            fn, ordinal = index[id(instr)]
        except KeyError:
            raise TraceFormatError(
                "trace references an instruction not present in the module"
            ) from None
        return [fn, ordinal]

    doc = {
        "version": FORMAT_VERSION,
        "points": [
            {
                "function": p.key.function,
                "site": p.key.site,
                "locals": list(p.locals_snapshot),
                "globals": list(p.globals_snapshot),
            }
            for p in trace.points
        ],
        "branches": [
            {
                "branch": key_of(e.branch),
                "follower": key_of(e.follower),
                "taken": e.taken,
            }
            for e in trace.branches
        ],
    }
    json.dump(doc, fp)


def load_trace(fp: TextIO, module: Module) -> Trace:
    """Read a trace back, re-binding events against ``module``.

    Raises :class:`TraceFormatError` when the file is malformed or
    references instructions the module does not have (e.g. the module
    was edited since tracing).
    """
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not a trace file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {doc.get('version')!r}"
        )
    table = _instruction_table(module)
    trace = Trace()
    try:
        for p in doc["points"]:
            trace.points.append(
                TracePoint(
                    SiteKey(p["function"], p["site"]),
                    tuple(p["locals"]),
                    tuple(p["globals"]),
                )
            )
        for e in doc["branches"]:
            b_fn, b_ord = e["branch"]
            f_fn, f_ord = e["follower"]
            try:
                branch = table[(b_fn, b_ord)]
                follower = table[(f_fn, f_ord)]
            except KeyError:
                raise TraceFormatError(
                    f"trace references missing instruction "
                    f"{b_fn}[{b_ord}] / {f_fn}[{f_ord}]"
                ) from None
            trace.branches.append(BranchEvent(branch, follower, e["taken"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed trace file: {exc}") from exc
    return trace
