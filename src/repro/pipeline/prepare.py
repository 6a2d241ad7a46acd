"""The shared preparation: run watermark-independent work once.

Fingerprinting is per-copy by definition — every distributed copy gets
its own mark — but most of the embed pipeline does not depend on the
mark at all. Key-input tracing, CFG construction, insertion-site
mining and redundancy planning depend only on (program, key,
fingerprint width); only splitting, encryption and code insertion
depend on the watermark value. :func:`prepare` runs the former once
and snapshots the results into a :class:`PreparedProgram`, turning a
batch of N embeds from O(N × full pipeline) into
O(1 prepare + N × insert-only).

The artifact keeps only what embedding reads: the module snapshot,
the planned piece count and the site table — per eligible site, its
execution count on the key input and the locals of its first two
executions (:func:`~repro.bytecode_wm.placement.eligible_sites`). The
full trace and the CFGs are used during preparation and dropped,
which keeps artifacts small, cheap to load and light on the garbage
collector. It pickles as a plain object graph, which matters twice: it
ships to pool workers (``pipeline.batch``) and it persists in the
content-addressed artifact store (:mod:`repro.serve.store`, addressed
by :func:`release_address`), so repeated runs against the same release
skip preparation entirely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..bytecode_wm.keys import WatermarkKey
from ..codec import resolve_codec
from ..bytecode_wm.placement import Site, eligible_sites
from ..core.errors import EmbeddingError
from ..core.planner import plan_redundancy
from ..vm.cfg import build_cfg
from ..vm.disassembler import disassemble
from ..vm.interpreter import DEFAULT_MAX_STEPS, StepLimitExceeded, run_module
from ..vm.program import Module
from ..vm.tracing import SiteKey
from ..vm.verifier import verify_module
from .metrics import StageTimings, stage_span

#: Bumped whenever the artifact layout changes; the artifact store
#: refuses (and quarantines) other versions rather than mis-embedding
#: from a stale blob.
FORMAT_VERSION = 2


class PrepareError(EmbeddingError):
    """The program cannot be prepared (or a stored artifact is unusable)."""


@dataclass
class PreparedProgram:
    """Snapshot of all watermark-independent embedding state.

    Holds its own private copy of the module: callers may mutate their
    module afterwards without invalidating the artifact, and every
    per-copy embed clones from this snapshot.
    """

    module: Module
    key: WatermarkKey
    watermark_bits: int
    pieces: int
    sites: Dict[SiteKey, Site]
    baseline_output: List[int]
    timings: StageTimings = field(default_factory=StageTimings)
    version: int = FORMAT_VERSION
    #: Redundancy codec spec the release is planned for.
    codec: str = "gcrt"

    def fingerprint(self) -> str:
        """Content hash identifying (program, key, width, pieces, codec).

        The artifact's address in the store; :func:`release_address`
        computes the same digest from a run's inputs.
        """
        return prepare_fingerprint(
            self.module, self.key, self.watermark_bits, self.pieces,
            self.codec,
        )


def prepare_fingerprint(
    module: Module,
    key: WatermarkKey,
    watermark_bits: int,
    pieces: Optional[int],
    codec: str = "gcrt",
) -> str:
    """Stable digest of everything preparation depends on.

    The codec only enters the digest when it is not the default, so
    every digest minted before the codec layer existed — including
    store paths of persisted releases — stays valid.
    """
    h = hashlib.sha256()
    h.update(disassemble(module).encode())
    h.update(key.secret)
    h.update(repr(tuple(key.inputs)).encode())
    h.update(f"bits={watermark_bits};pieces={pieces}".encode())
    if codec != "gcrt":
        h.update(f";codec={codec}".encode())
    return h.hexdigest()


def resolve_piece_count(
    watermark_bits: int,
    pieces: Optional[int] = None,
    piece_loss: Optional[float] = None,
    target_success: float = 0.99,
    codec: str = "gcrt",
) -> int:
    """The piece count for one fingerprint width and codec.

    Precedence: an explicit ``pieces`` wins; otherwise a threat model
    (``piece_loss``) invokes the Eq. (1)-style planner under the
    codec's survival model; otherwise the codec's own default applies
    (twice the modulus count for GCRT). The planner call is memoized
    (``core.planner``), so a batch pays for at most one plan
    regardless of copy count.
    """
    if pieces is not None:
        if pieces < 1:
            raise PrepareError("piece count must be positive")
        return pieces
    if piece_loss is not None:
        plan = plan_redundancy(
            watermark_bits, piece_loss, target_success, codec=codec
        )
        return plan.pieces
    return resolve_codec(codec).default_piece_count(watermark_bits)


def release_address(
    module: Module,
    key: WatermarkKey,
    watermark_bits: int,
    pieces: Optional[int] = None,
    piece_loss: Optional[float] = None,
    target_success: float = 0.99,
    codec: str = "gcrt",
) -> Tuple[str, int, str]:
    """(digest, piece count, codec spec): where a release is stored.

    Normalizes before hashing ("hybrid" -> "hybrid-4", a planner-sized
    ``pieces=None`` -> the concrete count): a prepared artifact's own
    :meth:`~PreparedProgram.fingerprint` uses the normalized forms, so
    a lookup must too, or a planner-sized release could never hit.
    Every store, sharded or not, addresses artifacts through here.
    """
    codec = resolve_codec(codec).spec
    pieces = resolve_piece_count(
        watermark_bits, pieces, piece_loss, target_success, codec=codec
    )
    digest = prepare_fingerprint(module, key, watermark_bits, pieces, codec)
    return digest, pieces, codec


def prepare(
    module: Module,
    key: WatermarkKey,
    watermark_bits: int,
    pieces: Optional[int] = None,
    piece_loss: Optional[float] = None,
    target_success: float = 0.99,
    max_steps: int = DEFAULT_MAX_STEPS,
    codec: str = "gcrt",
) -> PreparedProgram:
    """Run every watermark-independent stage once and snapshot it.

    Stages (each timed by its ``prepare.<stage>`` span, whose duration
    the returned artifact's ``timings`` keeps):

    * **verify** — the module must pass the bytecode verifier before
      any copies are minted from it;
    * **trace** — one full-mode execution on the key input (the
      dominant cost of a single-shot embed);
    * **cfg** — control-flow graphs of every function, to check that
      each traced site is a block of its function (not kept);
    * **placement** — the site table: eligible insertion sites with
      frequencies and first two locals snapshots;
    * **plan** — redundancy planning (the piece count).

    A key-input run that exhausts ``max_steps`` mid-trace raises
    :class:`PrepareError` naming the step budget; the partial trace is
    discarded with the failed run and never reaches an artifact or the
    store.
    """
    if watermark_bits < 1:
        raise PrepareError("watermark_bits must be positive")
    timings = StageTimings()
    with obs.span("prepare", watermark_bits=watermark_bits):
        with stage_span(timings, "verify", "prepare.verify"):
            verify_module(module)
        snapshot = module.copy()
        with stage_span(timings, "trace", "prepare.trace") as sp:
            try:
                run = run_module(
                    snapshot, key.inputs, trace_mode="full",
                    max_steps=max_steps,
                )
            except StepLimitExceeded as exc:
                raise PrepareError(
                    f"key-input trace did not terminate: {exc}"
                ) from exc
            sp.set(steps=run.steps)
        assert run.trace is not None
        with stage_span(timings, "cfg", "prepare.cfg"):
            blocks = {
                name: build_cfg(fn).blocks
                for name, fn in snapshot.functions.items()
            }
        with stage_span(timings, "placement", "prepare.placement"):
            sites = eligible_sites(run.trace, snapshot)
            if not sites:
                raise PrepareError(
                    "trace contains no usable insertion sites on the key input"
                )
            for site in sites:
                if site.site != "<entry>" and site.site not in blocks[site.function]:
                    raise PrepareError(
                        f"trace site {site!r} has no CFG block — "
                        f"trace and module disagree"
                    )
        with stage_span(timings, "plan", "prepare.plan"):
            codec_spec = resolve_codec(codec).spec
            piece_count = resolve_piece_count(
                watermark_bits, pieces, piece_loss, target_success,
                codec=codec_spec,
            )
    return PreparedProgram(
        module=snapshot,
        key=key,
        watermark_bits=watermark_bits,
        pieces=piece_count,
        sites=sites,
        baseline_output=list(run.output),
        timings=timings,
        codec=codec_spec,
    )
