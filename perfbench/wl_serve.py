"""Workload ``serve``: a rights holder's checking service.

A ``ServerThread`` daemon runs in this process with the thread executor
and one worker, so the traced run sees its jobs. One closed-loop client
sends, per cycle and in a seeded order, a recognize for every suspect in
the pool and one embed per release: 16 recognizes to 4 embeds.

The releases are one jess (64-bit ``gcrt``) and three CaffeineMark
(32-bit and 64-bit ``gcrt``, 32-bit ``rs-8``); release ``k`` is keyed
``seed-<seed + k>``, so jess is keyed with the run's own seed. The suspect
pool is built at set-up. Per release: one clean copy and one copy
attacked by a seeded pick from ``standard_attacks``. Negatives: both
unmarked originals, a 32-bit CaffeineMark copy checked against the
64-bit release (wrong key), and the same copy checked with a
``"codec": "rs-8"`` override. Every negative must fail closed (422).
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Any, Dict, List, Optional

from common import Op, OpRecord, Outcome, growth_pct, seeded
from repro.attacks.bytecode.harness import standard_attacks
from repro.bytecode_wm.keys import WatermarkKey
from repro.lang import compile_source
from repro.pipeline import CopySpec, embed_copy, prepare
from repro.serve.daemon import ServerConfig, ServerThread
from repro.serve.store import ArtifactStore
from repro.vm.assembler import assemble
from repro.vm.disassembler import disassemble
from repro.vm.interpreter import run_module
from repro.workloads import (
    CAFFEINEMARK_INPUT,
    JESS_INPUT,
    caffeinemark_module,
    jess_module,
)

NAME = "serve"
SETUP_REPEATS = 2
CYCLE_SECONDS = 12.5

PROGRAMS = {
    "jess": (jess_module, JESS_INPUT),
    "caffeinemark": (caffeinemark_module, CAFFEINEMARK_INPUT),
}
RELEASES = (
    ("jess", 64, "gcrt"),
    ("caffeinemark", 32, "gcrt"),
    ("caffeinemark", 64, "gcrt"),
    ("caffeinemark", 32, "rs-8"),
)
CLEAN_PER_RELEASE = 2
ATTACKS_PER_RELEASE = 1
TIMEOUT_S = 60.0


def _post(port: int, path: str, doc: Dict[str, Any]) -> tuple:
    """One request on a fresh connection: (status, raw response body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", path, body=json.dumps(doc).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _json(payload: bytes) -> Dict[str, Any]:
    """A response body as a document; ``{}`` when it is not JSON."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def setup(seed: int, workdir: str) -> Dict[str, Any]:
    """Prepare and store the releases, build the suspect pool, start the
    daemon and load every release into its artifact cache."""
    modules = {}
    baselines = {}
    for program, (build, inputs) in PROGRAMS.items():
        module = modules[program] = build()
        plain = run_module(module, inputs)
        baselines[program] = (
            module.byte_size(), plain.steps, list(plain.output), inputs
        )
    store = ArtifactStore(os.path.join(workdir, "store"))
    attacks = standard_attacks()
    releases = []
    suspects = []
    for k, (program, bits, codec) in enumerate(RELEASES):
        inputs = PROGRAMS[program][1]
        secret = f"seed-{seed + k}"
        prepared = prepare(
            modules[program], WatermarkKey(secret.encode(), inputs), bits,
            codec=codec,
        )
        digest = store.put(prepared).digest
        rng = seeded(NAME, seed, "release", k)

        def mint(copy_id: str) -> tuple:
            mark = rng.getrandbits(bits)
            spec = CopySpec(copy_id, mark, rng.getrandbits(32))
            return embed_copy(prepared, spec, self_check=False).text, mark

        release = {"name": f"{program}-{bits}-{codec}", "program": program,
                   "secret": secret, "digest": digest, "bits": bits,
                   "codec": codec}
        releases.append(release)
        # Every suspect is its own copy: each draws its own placements,
        # which set how long its trace, and so its recognition, runs.
        for i in range(CLEAN_PER_RELEASE):
            text, mark = mint(f"clean-{k}-{i}")
            release.setdefault("clean", text)  # the negatives reuse it
            suspects.append(("clean", release, text, mark, None))
        for attack in rng.sample(sorted(attacks), ATTACKS_PER_RELEASE):
            text, mark = mint(f"attacked-{k}-{attack}")
            attacked = attacks[attack](assemble(text), seeded(
                NAME, seed, "attack", k, attack))
            suspects.append(("attacked", release, disassemble(attacked), mark,
                             None))
    jess64, caf32, caf64, _caf32rs = releases
    suspects += [
        ("unmarked", jess64, disassemble(modules["jess"]), None, None),
        ("unmarked", caf32, disassemble(modules["caffeinemark"]), None, None),
        ("wrong-key", caf64, caf32["clean"], None, None),
        ("wrong-codec", caf32, caf32["clean"], None, "rs-8"),
    ]
    server = ServerThread(ServerConfig(
        store_root=store.root, executor="thread", workers=1,
        request_timeout=TIMEOUT_S,
    )).start()
    state = {"seed": seed, "releases": releases, "suspects": suspects,
             "baselines": baselines, "server": server,
             "port": server.service.port}
    # The first request per release loads it into the daemon's artifact
    # cache; a program that does nothing keeps the rest of it cheap.
    probe = disassemble(compile_source("fn main() { return 0; }"))
    for release in releases:
        status, _body = _post(state["port"], "/v1/recognize",
                              {"artifact": release["digest"], "module": probe})
        if status != 422:
            raise RuntimeError(f"warm-up of {release['name']}: HTTP {status}")
    return state


def close(state: Dict[str, Any]) -> None:
    state["server"].stop()


def _recognize(state: Dict[str, Any], kind: str, release: Dict[str, Any],
               text: str, mark: Optional[int], codec: Optional[str]) -> Outcome:
    doc = {"artifact": release["digest"], "module": text}
    if codec is not None:
        doc["codec"] = codec
    status, payload = _post(state["port"], "/v1/recognize", doc)
    out = Outcome(status=status, response_bytes=len(payload))
    value = _json(payload).get("value") if status == 200 else None
    if status not in (200, 422):
        out.failed = True
        out.note = f"HTTP {status} on {kind} {release['name']}"
    if status == 200 and value != mark:
        out.false_mark = True
        out.note = f"{kind} {release['name']} reported {value!r}"
    if kind == "attacked":
        out.recovered = status == 200 and value == mark
    elif kind == "clean":
        out.keep = text
        if not (status == 200 and value == mark):
            out.failed = True
            out.note = out.note or f"{release['name']} {release['secret']}"
    return out


def _embed(state: Dict[str, Any], release: Dict[str, Any], copy_id: str,
           mark: int, salt: int) -> Outcome:
    status, payload = _post(state["port"], "/v1/embed", {
        "artifact": release["digest"], "copy_id": copy_id,
        "watermark": mark, "seed": salt,
    })
    out = Outcome(status=status, response_bytes=len(payload))
    body = _json(payload)
    recognized = body.get("recognized")
    if recognized is not None and recognized != mark:
        out.false_mark = True
    if status != 200:
        out.failed = True
        out.note = f"embed {release['name']} {release['secret']}: HTTP {status}"
    out.keep = body.get("module")
    return out


def cycle(state: Dict[str, Any], c: int) -> List[Op]:
    seed = state["seed"]
    ops = [
        Op(kind=kind, program=release["program"], release=release["name"],
           negative=mark is None, attacked=kind == "attacked",
           codec=codec or release["codec"],
           run=lambda a=(kind, release, text, mark, codec): _recognize(
               state, *a))
        for kind, release, text, mark, codec in state["suspects"]
    ]
    for k, release in enumerate(state["releases"]):
        rng = seeded(NAME, seed, "embed", c, k)
        args = (release, f"e{k}-c{c}", rng.getrandbits(release["bits"]),
                rng.getrandbits(32))
        ops.append(Op(
            kind="embed", program=release["program"], release=release["name"],
            codec=release["codec"], run=lambda a=args: _embed(state, *a),
        ))
    seeded(NAME, seed, "order", c).shuffle(ops)
    return ops


def verify(state: Dict[str, Any], records: List[OpRecord]) -> tuple:
    """Run every served copy and clean suspect on its key input: outputs
    must equal the unmarked program's. Returns each copy's code and step
    growth."""
    runs: Dict[str, tuple] = {}
    code, steps = [], []
    for rec in records:
        text = rec.outcome.keep
        if text is None:
            continue
        base_size, base_steps, base_output, inputs = (
            state["baselines"][rec.op.program]
        )
        if text not in runs:
            marked = assemble(text)
            run = run_module(marked, inputs)
            runs[text] = (growth_pct(marked.byte_size(), base_size),
                          growth_pct(run.steps, base_steps),
                          list(run.output) == base_output)
        code_growth, step_growth, output_ok = runs[text]
        if not output_ok:
            rec.outcome.wrong_output = rec.outcome.failed = True
        code.append(code_growth)
        steps.append(step_growth)
    return code, steps
