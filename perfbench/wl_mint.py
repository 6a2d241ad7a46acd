"""Workload ``mint``: a vendor minting fingerprinted copies in-process.

Each op mints one copy through ``pipeline.run_batch`` with one worker,
the self-check on and the copy written to an output directory, which is
what ``repro batch-embed`` does. The releases span the program (jess,
CaffeineMark), the fingerprint width (32, 64) and the codec (``gcrt``,
``rs-8``). A cycle mints one copy of every release, in a seeded order.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from common import Op, OpRecord, Outcome, growth_pct, seeded
from repro.bytecode_wm.keys import WatermarkKey
from repro.pipeline import CopySpec, prepare, run_batch
from repro.vm.assembler import assemble
from repro.vm.interpreter import run_module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    jess_module,
)

NAME = "mint"
SETUP_REPEATS = 3
CYCLE_SECONDS = 9.0

PROGRAMS = (
    ("jess", jess_module, JESS_INPUT),
    ("caffeinemark", caffeinemark_module, CAFFEINEMARK_INPUT),
)
WIDTHS = (32, 64)
CODECS = ("gcrt", "rs-8")


def release_secret(seed: int, index: int) -> bytes:
    """Release ``index`` of a run is keyed with ``seed-<seed + index>``."""
    return f"seed-{seed + index}".encode()


def setup(seed: int, workdir: str) -> Dict[str, Any]:
    """Compile both programs and prepare every release."""
    releases = []
    baselines = {}
    for program, build, inputs in PROGRAMS:
        module = build()
        plain = run_module(module, inputs)
        baselines[program] = (
            module.byte_size(), plain.steps, list(plain.output), inputs
        )
        for bits in WIDTHS:
            for codec in CODECS:
                secret = release_secret(seed, len(releases))
                prepared = prepare(
                    module, WatermarkKey(secret, inputs), bits, codec=codec
                )
                releases.append({
                    "name": f"{program}-{bits}-{codec}",
                    "program": program,
                    "secret": secret.decode(),
                    "prepared": prepared,
                })
    outdir = os.path.join(workdir, "dist")
    os.makedirs(outdir)
    return {"seed": seed, "releases": releases, "baselines": baselines,
            "outdir": outdir}


def close(state: Dict[str, Any]) -> None:
    """Nothing outlives the process; the output directory goes with the
    run's working directory."""


def _mint(state: Dict[str, Any], release: Dict[str, Any], spec: CopySpec) -> Outcome:
    report = run_batch(
        release["prepared"], [spec], workers=1, outdir=state["outdir"],
        self_check=True,
    )
    copy = report.copies[0]
    outcome = Outcome(keep=os.path.join(state["outdir"], f"{spec.copy_id}.wasm"))
    if copy.recognized is not None and copy.recognized != spec.watermark:
        outcome.false_mark = True
    if not copy.verified:
        outcome.failed = True
        outcome.note = copy.error or f"{release['name']} {release['secret']}"
    if copy.checked and not copy.output_ok:
        outcome.wrong_output = True
    return outcome


def cycle(state: Dict[str, Any], c: int) -> List[Op]:
    seed = state["seed"]
    releases = state["releases"]
    order = list(range(len(releases)))
    seeded(NAME, seed, "order", c).shuffle(order)
    ops = []
    for k in order:
        release = releases[k]
        rng = seeded(NAME, seed, "copy", c, k)
        spec = CopySpec(
            copy_id=f"r{k}-c{c}",
            watermark=rng.getrandbits(release["prepared"].watermark_bits),
            seed=rng.getrandbits(32),
        )
        ops.append(Op(
            kind="mint", program=release["program"], release=release["name"],
            codec=release["prepared"].codec,
            run=lambda r=release, s=spec: _mint(state, r, s),
        ))
    return ops


def verify(state: Dict[str, Any], records: List[OpRecord]) -> tuple:
    """Re-run every written copy: its output must equal the unmarked
    program's. Returns each copy's code and step growth."""
    code, steps = [], []
    for rec in records:
        base_size, base_steps, base_output, inputs = (
            state["baselines"][rec.op.program]
        )
        with open(rec.outcome.keep) as fp:
            marked = assemble(fp.read())
        run = run_module(marked, inputs)
        if list(run.output) != base_output:
            rec.outcome.wrong_output = rec.outcome.failed = True
        code.append(growth_pct(marked.byte_size(), base_size))
        steps.append(growth_pct(run.steps, base_steps))
    return code, steps
