"""The bytecode watermark recognizer (paper Section 3.3).

Recognition is *dynamic and blind*: it needs only the (possibly
attacked) program and the key. The program is re-executed on the
secret input with branch tracing, the trace is decoded to the bit-
string of Section 3.1, and the recombination algorithm of
``repro.core.recovery`` (window decryption, voting, G/H consistency
graphs, Generalized CRT) extracts the watermark.

The recognizer must know the fingerprint width (a protocol parameter
shared by embedder and recognizer — it determines the moduli); it
does not need the unwatermarked program or the watermark value.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from .. import obs
from ..codec import WatermarkCodec, resolve_codec
from ..core.bitstring import decode_bits
from ..core.primes import choose_moduli
from ..core.recovery import RecoveryResult
from ..obs.recognition import RecognitionReport
from ..vm.interpreter import run_module
from ..vm.program import Module
from ..vm.tracing import Trace
from .keys import WatermarkKey

DEFAULT_WATERMARK_BITS = 64


def trace_bitstring(module: Module, key: WatermarkKey,
                    max_steps: Optional[int] = None) -> bytes:
    """Run the program on the key input; its trace bits (0/1 bytes)."""
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    with obs.span("recognize.trace") as sp:
        result = run_module(module, key.inputs, trace_mode="branch", **kwargs)
        assert result.trace is not None
        sp.set(steps=result.steps, branches=len(result.trace.branches))
    return result.trace.bits


def recognize_bits(
    bits: Sequence[int],
    key: WatermarkKey,
    watermark_bits: int = DEFAULT_WATERMARK_BITS,
    use_voting: bool = True,
    codec: Union[str, WatermarkCodec, None] = None,
) -> RecoveryResult:
    """Recover a watermark from an already-decoded bit-string.

    ``codec`` must match the embedding codec (``None`` = GCRT). The
    phantom-mark guard — demoting a "complete" recovery whose value
    does not fit in ``watermark_bits``, since junk windows decrypted
    under a wrong key occasionally form a consistent-looking recovery
    in a much larger value space — lives in the codec protocol
    (:func:`repro.codec.validate_recovery`), so every codec's decode
    passes through it; partial diagnostics are kept either way.
    """
    return resolve_codec(codec).decode(
        bits, watermark_bits, key.cipher(), use_voting
    )


def recognize(
    module: Module,
    key: WatermarkKey,
    watermark_bits: int = DEFAULT_WATERMARK_BITS,
    use_voting: bool = True,
    max_steps: Optional[int] = None,
    trace: Optional[Trace] = None,
    codec: Union[str, WatermarkCodec, None] = None,
) -> RecoveryResult:
    """End-to-end recognition: trace, decode, recombine.

    Propagates :class:`repro.vm.VMError` if the program is broken (the
    attack harness distinguishes "program broken" from "watermark
    gone").

    Callers that already executed ``module`` on the key input (the
    batch pipeline's in-worker self-check runs every emitted copy
    anyway) pass that run's ``trace`` to skip the re-execution; it
    must be a branch or full trace of this very module on these very
    inputs.
    """
    if trace is None:
        bits = trace_bitstring(module, key, max_steps)
    elif trace.bits is not None:
        bits = trace.bits
    else:  # no bits: a reference-engine or trace_io trace
        bits = decode_bits(trace.branch_pairs())
    with obs.span("recognize.recover", bits=len(bits)) as sp:
        result = recognize_bits(bits, key, watermark_bits, use_voting, codec)
        sp.set(
            windows=result.windows_inspected,
            distinct_windows=result.distinct_windows,
            candidates=result.candidates_found,
            candidates_after_voting=result.candidates_after_voting,
            accepted=len(result.accepted),
        )
    return result


def recognition_report(
    result: RecoveryResult,
    watermark_bits: int = DEFAULT_WATERMARK_BITS,
) -> RecognitionReport:
    """Build the diagnostic funnel report from a recovery outcome.

    ``moduli_covered``/``moduli_missing`` hold *indices* into the
    moduli list (matching the ``p_i`` naming of the paper), so a
    missing entry names both the index and, via ``moduli``, the prime.
    For non-GCRT codecs the moduli funnel reflects only the GCRT
    channel (empty for pure RS); ``scheme`` carries the codec spec.
    """
    moduli = choose_moduli(watermark_bits)
    covered = sorted({idx for s in result.accepted for idx in (s.i, s.j)})
    covered_set = set(covered)
    report = RecognitionReport(
        scheme=(
            "bytecode" if result.codec == "gcrt"
            else f"bytecode/{result.codec}"
        ),
        complete=result.complete,
        value=result.value,
        windows_inspected=result.windows_inspected,
        distinct_windows=result.distinct_windows,
        window_hits=result.candidates_found,
        candidates_after_voting=result.candidates_after_voting,
        statements_accepted=len(result.accepted),
        voting={
            i: dict(tally) for i, tally in result.votes.items() if tally
        },
        clear_winners=dict(result.clear_winners),
        moduli=list(moduli),
        moduli_covered=covered,
        moduli_missing=[
            i for i in range(len(moduli)) if i not in covered_set
        ],
        recovered_modulus=(
            result.congruence.modulus if result.congruence else None
        ),
    )
    if result.windows_inspected and not result.candidates_found:
        report.notes.append(
            "no window decrypted into the statement space - wrong key, "
            "wrong input, or the watermark is gone"
        )
    if (
        not result.complete
        and result.congruence is not None
        and not report.moduli_missing
        and result.congruence.value >= (1 << watermark_bits)
    ):
        report.notes.append(
            f"CRT value {result.congruence.value:#x} exceeds the "
            f"{watermark_bits}-bit watermark space - rejected as a "
            "junk-window false positive"
        )
    return report


def recognize_with_report(
    module: Module,
    key: WatermarkKey,
    watermark_bits: int = DEFAULT_WATERMARK_BITS,
    use_voting: bool = True,
    max_steps: Optional[int] = None,
    trace=None,
    codec: Union[str, WatermarkCodec, None] = None,
) -> Tuple[RecoveryResult, RecognitionReport]:
    """:func:`recognize`, plus the diagnostic funnel for the attempt."""
    result = recognize(
        module, key, watermark_bits, use_voting, max_steps, trace, codec
    )
    return result, recognition_report(result, watermark_bits)
