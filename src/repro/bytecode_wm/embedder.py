"""The bytecode watermark embedder (paper Section 3.2, end to end).

Pipeline (Figure 2):

1. **Trace** the program on the secret input (step B of the figure)
   and keep, per eligible site, its execution count and the locals of
   its first two executions.
2. **Split** the watermark into redundant residue statements via the
   Generalized CRT (step A), enumerate each statement into a 64-bit
   integer and **encrypt** it with the key-derived block cipher.
3. For each encrypted piece, pick an insertion site (frequency-
   weighted random) and **generate code** — condition-based when the
   site executes at least twice and has usable variables, loop-based
   otherwise — that writes the 64 ciphertext bits contiguously into
   the trace bit-string (step C).
4. Re-verify the module.

Embedding is deterministic given (module, watermark, key): all
randomness comes from the key's RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..codec import WatermarkCodec, resolve_codec
from ..core.bitstring import int_to_bits_lsb_first
from ..core.enumeration import Statement
from ..core.errors import CodegenError, EmbeddingError
from ..core.primes import choose_moduli
from ..vm.interpreter import run_module
from ..vm.program import Module
from ..vm.rewriter import insert_at_site
from ..vm.tracing import SiteKey
from ..vm.verifier import verify_module
from .condition_codegen import generate_condition_piece
from .keys import WatermarkKey
from .loop_codegen import generate_loop_piece
from .placement import Site, SitePicker, eligible_sites

PIECE_BITS = 64


@dataclass
class Placement:
    """Where one piece landed and how it was generated.

    ``statement`` is the residue statement for GCRT-channel pieces and
    ``None`` for position-addressed symbol pieces (RS/hybrid parity);
    ``label`` names the piece either way.
    """

    statement: Optional[Statement]
    site: SiteKey
    generator: str  # "loop" or "condition"
    site_frequency: int
    label: str = ""


@dataclass
class EmbeddingResult:
    """A watermarked module plus everything the evaluation measures."""

    module: Module
    watermark: int
    watermark_bits: int
    moduli: List[int]
    placements: List[Placement] = field(default_factory=list)
    original_byte_size: int = 0
    codec: str = "gcrt"

    @property
    def piece_count(self) -> int:
        return len(self.placements)

    @property
    def byte_size_increase(self) -> int:
        return self.module.byte_size() - self.original_byte_size


def default_piece_count(moduli: List[int]) -> int:
    """Twice the modulus count: full coverage with headroom (GCRT)."""
    return 2 * len(moduli)


def embed(
    module: Module,
    watermark: int,
    key: WatermarkKey,
    pieces: Optional[int] = None,
    watermark_bits: Optional[int] = None,
    placement_policy: str = "inverse",
    prefer_condition: bool = True,
    sites: Optional[Dict[SiteKey, Site]] = None,
    rng_salt: str = "",
    codec: Union[str, WatermarkCodec, None] = None,
) -> EmbeddingResult:
    """Embed ``watermark`` into a copy of ``module``.

    ``watermark_bits`` fixes the fingerprint width (and therefore the
    moduli); it defaults to the watermark's own bit length, but
    distributors embedding different marks into copies of one program
    should pass an explicit common width. ``placement_policy`` and
    ``prefer_condition`` exist for the ablation benches.

    Batch embedding (``repro.pipeline``) passes a precomputed ``sites``
    table (:func:`~.placement.eligible_sites`) to skip Phase 1 — tracing
    is watermark-independent, so N copies need only one trace. It also
    passes a per-copy ``rng_salt`` scoping the key's RNG streams, so
    distinct copies diversify their placements while staying
    deterministic in (module, watermark, key, salt). Recognition never
    uses these streams, so salting cannot affect recoverability.

    ``codec`` selects the redundancy scheme (a spec string like
    ``"rs-8"``, a :class:`~repro.codec.WatermarkCodec` instance, or
    ``None`` for the default GCRT scheme — byte-for-byte identical to
    pre-codec embeds). Recognition must use the same codec.
    """
    if watermark < 0:
        raise EmbeddingError("watermark must be non-negative")
    bits_width = watermark_bits or max(watermark.bit_length(), 8)
    if watermark >= (1 << bits_width):
        raise EmbeddingError(
            f"watermark needs more than watermark_bits={bits_width} bits"
        )
    codec_impl = resolve_codec(codec)
    moduli = choose_moduli(bits_width)
    piece_count = (
        pieces if pieces is not None
        else codec_impl.default_piece_count(bits_width)
    )

    marked = module.copy()
    original_size = marked.byte_size()

    def stream(purpose: str):
        return key.rng(f"{purpose}/{rng_salt}" if rng_salt else purpose)

    # Phase 1: tracing (full mode: block sequence + variable values),
    # unless the caller supplied the site table of this module's trace.
    if sites is None:
        trace = run_module(marked, key.inputs, trace_mode="full").trace
        assert trace is not None
        sites = eligible_sites(trace, marked)
    picker = SitePicker(sites, stream("placement"), placement_policy)

    # Phase 2: codec-encode the mark into encrypted pieces. The GCRT
    # codec consumes the "split" RNG stream exactly as the historical
    # inline splitter did, keeping default embeds byte-identical.
    split_rng = stream("split")
    encoded = codec_impl.encode(
        watermark, bits_width, piece_count, key.cipher(), split_rng
    )

    # Phase 3: generate and insert code for each piece.
    codegen_rng = stream("codegen")
    result = EmbeddingResult(
        module=marked,
        watermark=watermark,
        watermark_bits=bits_width,
        moduli=moduli,
        original_byte_size=original_size,
        codec=codec_impl.spec,
    )
    for piece in encoded:
        piece_bits = int_to_bits_lsb_first(piece.block, PIECE_BITS)
        site = picker.pick()
        fn = marked.function(site.function)
        live_slot = (
            codegen_rng.randrange(fn.params) if fn.params > 0 else
            (codegen_rng.randrange(fn.locals_count) if fn.locals_count else None)
        )
        snapshots = sites[site].first_locals
        generator = "loop"
        code = None
        if prefer_condition and len(snapshots) >= 2:
            try:
                code = generate_condition_piece(
                    fn, piece_bits, snapshots, live_slot, codegen_rng
                )
                generator = "condition"
            except CodegenError:
                code = None
        if code is None:
            code = generate_loop_piece(fn, piece_bits, live_slot, codegen_rng)
        insert_at_site(marked, site, code)
        result.placements.append(
            Placement(
                piece.statement, site, generator, sites[site].count,
                piece.label,
            )
        )

    verify_module(marked)
    return result
