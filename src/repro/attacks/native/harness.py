"""Evaluation harness for the native attacks (the §5.2.2 table).

For each attack the table reports two outcomes:

* **program_ok** — the attacked binary still produces the original
  output on the key input and probe inputs (no fault, same prints);
* **extracted** — per-tracer: whether the watermark is still
  extractable (meaningful mainly for attack 5, where the program
  keeps working).

The paper's expected row values: attacks 1–4 break the program;
attack 5 preserves it but defeats only the simple tracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ...native.image import BinaryImage
from ...native.machine import MachineFault, run_image
from ...native_wm.embedder import NativeEmbedding
from ...native_wm.extractor import extract_native
from .transforms import (
    bypass_branch_function,
    double_watermark,
    insert_noops,
    invert_branch_senses,
    reroute_branch_function,
)


@dataclass
class NativeAttackOutcome:
    name: str
    program_ok: bool
    extracted_simple: bool
    extracted_smart: bool


def _program_ok(
    original: BinaryImage,
    attacked: BinaryImage,
    input_sets: Sequence[Sequence[int]],
    max_steps: int,
) -> bool:
    for inputs in input_sets:
        try:
            want = run_image(original, inputs, max_steps).output
            got = run_image(attacked, inputs, max_steps).output
        except MachineFault:
            return False
        if want != got:
            return False
    return True


def _extracts(
    embedding: NativeEmbedding,
    attacked: BinaryImage,
    inputs: Sequence[int],
    tracer: str,
    max_steps: int,
) -> bool:
    try:
        # The recognizer knows its own branch function's address (like
        # begin/end, "supplied manually" in the paper); attacks that
        # relocate it are exactly the ones meant to break extraction.
        result = extract_native(
            attacked, embedding.width, embedding.begin, embedding.end,
            inputs, tracer=tracer, bf_entry=embedding.bf_entry,
            max_steps=max_steps,
        )
    except MachineFault:
        return False
    return result.watermark == embedding.watermark


def evaluate_native_attack(
    name: str,
    embedding: NativeEmbedding,
    attacked: BinaryImage,
    inputs: Sequence[int],
    probe_inputs: Sequence[Sequence[int]] = (),
    max_steps: int = 20_000_000,
) -> NativeAttackOutcome:
    input_sets = [list(inputs)] + [list(p) for p in probe_inputs]
    ok = _program_ok(embedding.image, attacked, input_sets, max_steps)
    return NativeAttackOutcome(
        name=name,
        program_ok=ok,
        extracted_simple=_extracts(embedding, attacked, inputs, "simple",
                                   max_steps),
        extracted_smart=_extracts(embedding, attacked, inputs, "smart",
                                  max_steps),
    )


def run_native_attack_suite(
    embedding: NativeEmbedding,
    inputs: Sequence[int],
    probe_inputs: Sequence[Sequence[int]] = (),
    second_watermark: int = 0x5A5A,
    rng_seed: int = 2004,
    max_steps: int = 20_000_000,
) -> List[NativeAttackOutcome]:
    """The five-attack battery of Section 5.2.2."""
    image = embedding.image
    rng = random.Random(rng_seed)
    attacked: Dict[str, BinaryImage] = {}
    attacked["1-noop-insertion"] = insert_noops(image, 1, rng, at_start=True)
    attacked["2-branch-sense-inversion"] = invert_branch_senses(image, 1.0, rng)
    attacked["3-double-watermarking"] = double_watermark(
        image, second_watermark, 16, inputs
    )
    attacked["4-bypass-branch-function"] = bypass_branch_function(
        image, embedding.bf_entry, inputs
    )
    attacked["5-reroute-branch-function"] = reroute_branch_function(
        image, embedding.bf_entry, inputs
    )
    return [
        evaluate_native_attack(
            name, embedding, img, inputs, probe_inputs, max_steps
        )
        for name, img in sorted(attacked.items())
    ]
