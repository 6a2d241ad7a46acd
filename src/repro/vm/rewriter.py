"""Bytecode rewriting helpers for WVM modules.

The label-based code representation makes rewriting structural: code
is spliced into the instruction list and branches keep working because
targets are symbolic. These helpers add the bookkeeping the embedder
and the attack suite share: fresh-label renaming of code templates,
insertion at trace sites, and safe deep-copying.

Everything here preserves verifiability when given verifiable inputs
and stack-neutral insertion sequences; the callers re-verify anyway
(`repro.vm.verifier`), mirroring how bytecode tools must keep the JVM
verifier happy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .instructions import LABEL_OPERANDS, Instruction
from .program import Function, Module
from .tracing import SiteKey


class RewriteError(Exception):
    """An edit could not be applied (missing site, bad template)."""


def rename_labels(
    code: Sequence[Instruction], mapping: Dict[str, str]
) -> List[Instruction]:
    """Copy a code template, renaming label operands via ``mapping``.

    Labels not present in the mapping are left unchanged (they are
    assumed to refer to labels that already exist at the insertion
    site).
    """
    out: List[Instruction] = []
    for instr in code:
        copy = instr.copy()
        if instr.op in LABEL_OPERANDS and instr.arg in mapping:
            copy.arg = mapping[instr.arg]
        out.append(copy)
    return out


def freshen_template(
    fn: Function, template: Sequence[Instruction], hint: str = "wm"
) -> List[Instruction]:
    """Instantiate a code template inside ``fn``.

    Every label *defined* by the template is renamed to a label that is
    fresh in ``fn``; branches within the template follow the renaming.
    """
    defined = [i.arg for i in template if i.is_label]
    fresh = fn.fresh_labels(len(defined), hint)
    mapping = dict(zip(defined, fresh))
    return rename_labels(template, mapping)


def site_index(fn: Function, site: str) -> int:
    """Code index right after a trace site.

    ``site`` is a label name or ``"<entry>"``; the returned index is
    where inserted code would execute each time the site is reached.
    """
    if site == "<entry>":
        return 0
    for idx, instr in enumerate(fn.code):
        if instr.is_label and instr.arg == site:
            return idx + 1
    raise RewriteError(f"{fn.name}: no trace site {site!r}")


def insert_at_site(
    module: Module, key: SiteKey, code: Sequence[Instruction]
) -> None:
    """Insert ``code`` so it runs on every execution of trace site ``key``.

    The code must already have fresh labels (see
    :func:`freshen_template`) and must be stack-neutral.
    """
    fn = module.function(key.function)
    idx = site_index(fn, key.site)
    fn.code[idx:idx] = list(code)


def count_conditional_branches(module: Module) -> int:
    """Total static conditional branches (Fig. 8(c)'s 'branch increase'
    denominators are computed from this)."""
    total = 0
    for fn in module.functions.values():
        for instr in fn.real_instructions():
            if instr.is_conditional:
                total += 1
    return total
