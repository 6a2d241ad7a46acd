"""Branch-function watermarking for N32 native code (paper Section 4).

The dynamic blind fingerprinting pipeline for native executables::

    from repro.native_wm import embed_native, extract_native

    emb = embed_native(image, watermark=W, width=64, inputs=key_inputs)
    got = extract_native(emb.image, emb.width, emb.begin, emb.end,
                         key_inputs, tracer="smart")
    assert got.watermark == W
"""

from .branch_function import (
    BranchFunctionSpec,
    ENTRY_LABEL,
    branch_function_byte_size,
    emit_branch_function,
)
from .embedder import (
    CALL_LENGTH,
    NativeEmbedding,
    NativeRelease,
    clear_native_releases,
    embed_native,
    prepare_native,
)
from .extractor import (
    BranchFunctionEvent,
    ExtractionResult,
    SimpleTracer,
    SmartTracer,
    extract_native,
    extract_native_auto,
    identify_branch_function,
    native_recognition_report,
)
from .perfect_hash import PerfectHash, build_perfect_hash, hash_geometry

__all__ = [
    "BranchFunctionEvent",
    "BranchFunctionSpec",
    "CALL_LENGTH",
    "ENTRY_LABEL",
    "ExtractionResult",
    "NativeEmbedding",
    "NativeRelease",
    "PerfectHash",
    "SimpleTracer",
    "SmartTracer",
    "branch_function_byte_size",
    "build_perfect_hash",
    "clear_native_releases",
    "embed_native",
    "emit_branch_function",
    "extract_native",
    "extract_native_auto",
    "hash_geometry",
    "identify_branch_function",
    "native_recognition_report",
    "prepare_native",
]
