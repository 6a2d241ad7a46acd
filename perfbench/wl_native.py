"""Workload ``native``: branch-function watermarking of SPEC-like kernels.

A positive op embeds a seeded 64-bit mark into a kernel with
``native_wm.embed_native`` and extracts it back with ``extract_native``,
discovering the branch function. A negative op extracts from the
unmarked kernel, with the bracket of that kernel's latest embedding, and
must find no mark. A cycle holds one positive per kernel, in a seeded
order, and one negative, for a seeded kernel, somewhere after that
kernel's positive. The kernels run from a short dynamic trace (mcf,
about 40k steps) to a long one (bzip2, about 250k steps).

One negative to five positives, not one each: a negative costs a
fraction of a positive, so with as many of each the median op would sit
in the gap between the two and jump from run to run.
"""

from __future__ import annotations

from typing import Any, Dict, List

from common import Op, OpRecord, Outcome, growth_pct, seeded
from repro.native.machine import run_image
from repro.native_wm import embed_native, extract_native
from repro.workloads import SPEC_TRAIN_INPUT, spec_native

NAME = "native"
SETUP_REPEATS = 2
CYCLE_SECONDS = 9.5

KERNELS = ("mcf", "gcc", "vpr", "vortex", "bzip2")
WIDTH = 64
INPUTS = tuple(SPEC_TRAIN_INPUT)


def setup(seed: int, workdir: str) -> Dict[str, Any]:
    """Compile every kernel and run it once unmarked on the key input."""
    kernels = {}
    for name in KERNELS:
        image = spec_native(name)
        plain = run_image(image, INPUTS)
        kernels[name] = (image, image.total_size(), plain.steps,
                         list(plain.output))
    return {"seed": seed, "kernels": kernels, "brackets": {}}


def close(state: Dict[str, Any]) -> None:
    """Nothing to stop."""


def _positive(state: Dict[str, Any], kernel: str, mark: int, rng_seed: int) -> Outcome:
    image = state["kernels"][kernel][0]
    emb = embed_native(image, mark, WIDTH, inputs=INPUTS, rng_seed=rng_seed)
    state["brackets"][kernel] = (emb.begin, emb.end)
    got = extract_native(emb.image, WIDTH, emb.begin, emb.end, INPUTS)
    out = Outcome(keep=emb.image)
    if got.watermark is None:
        out.failed = True
        out.note = f"extract missed the mark in {kernel}"
    elif got.watermark != mark:
        out.false_mark = True
        out.note = f"{kernel}: extracted {got.watermark:#x}, embedded {mark:#x}"
    return out


def _negative(state: Dict[str, Any], kernel: str) -> Outcome:
    begin, end = state["brackets"][kernel]
    got = extract_native(state["kernels"][kernel][0], WIDTH, begin, end, INPUTS)
    out = Outcome()
    if got.watermark is not None:
        out.false_mark = True
        out.note = f"unmarked {kernel} gave {got.watermark:#x}"
    return out


def cycle(state: Dict[str, Any], c: int) -> List[Op]:
    seed = state["seed"]
    rng = seeded(NAME, seed, "cycle", c)
    order = list(KERNELS)
    rng.shuffle(order)
    ops: List[Op] = []
    for kernel in order:
        mark_rng = seeded(NAME, seed, "mark", c, kernel)
        ops.append(Op(
            kind="embed+extract", program=kernel, release=kernel,
            run=lambda k=kernel, m=mark_rng.getrandbits(WIDTH),
            s=mark_rng.getrandbits(32): _positive(state, k, m, s),
        ))
    kernel = rng.choice(KERNELS)
    after = order.index(kernel)
    ops.insert(rng.randint(after + 1, len(ops)), Op(
        kind="extract-unmarked", program=kernel, release=kernel,
        negative=True, run=lambda: _negative(state, kernel),
    ))
    return ops


def verify(state: Dict[str, Any], records: List[OpRecord]) -> tuple:
    """Run every marked image on the key input: output must equal the
    unmarked kernel's. Returns each image's code and step growth."""
    code, steps = [], []
    for rec in records:
        if rec.outcome.keep is None:
            continue
        _image, base_size, base_steps, base_output = (
            state["kernels"][rec.op.program]
        )
        run = run_image(rec.outcome.keep, INPUTS)
        if list(run.output) != base_output:
            rec.outcome.wrong_output = rec.outcome.failed = True
        code.append(growth_pct(rec.outcome.keep.total_size(), base_size))
        steps.append(growth_pct(run.steps, base_steps))
    return code, steps
