"""Batch fingerprinting pipeline: many marks from one preparation.

The paper's schemes are fingerprinting schemes — "every distributed
copy of a program encodes a unique integer" — so a vendor's embed cost
scales with the customer count. This package factors the pipeline at
its natural seam:

* :mod:`repro.pipeline.prepare` — run the watermark-independent work
  (trace, CFGs, placement mining, redundancy planning) once and
  snapshot it into a picklable :class:`PreparedProgram`;
* :mod:`repro.pipeline.batch` — fan per-copy embeds out over a
  process pool with deterministic per-copy seeding, per-copy error
  isolation, and an in-worker recognize self-check on every copy;
* :mod:`repro.pipeline.metrics` — stage timings, cache behaviour and
  per-copy verification outcomes, exported as a JSON report;
* :mod:`repro.pipeline.manifest` — the JSON job description consumed
  by ``python -m repro batch-embed``.

Typical use::

    from repro.pipeline import prepare, run_batch, sequential_specs

    prepared = prepare(module, key, watermark_bits=16)
    report = run_batch(prepared, sequential_specs(1000), workers=8,
                       outdir="dist/")
    assert report.all_ok
"""

from .batch import (
    CopySpec,
    default_chunksize,
    embed_copy,
    load_prepared_artifact,
    run_batch,
    sequential_specs,
    service_embed_copy,
    service_recognize,
)
from .manifest import BatchManifest, ManifestError, load_manifest, parse_manifest
from .metrics import BatchReport, CopyResult, StageTimings
from .prepare import (
    FORMAT_VERSION,
    PrepareError,
    PreparedProgram,
    prepare,
    prepare_fingerprint,
    release_address,
    resolve_piece_count,
)

__all__ = [
    "BatchManifest",
    "BatchReport",
    "CopyResult",
    "CopySpec",
    "FORMAT_VERSION",
    "ManifestError",
    "PrepareError",
    "PreparedProgram",
    "StageTimings",
    "default_chunksize",
    "embed_copy",
    "load_manifest",
    "load_prepared_artifact",
    "parse_manifest",
    "prepare",
    "prepare_fingerprint",
    "release_address",
    "resolve_piece_count",
    "run_batch",
    "sequential_specs",
    "service_embed_copy",
    "service_recognize",
]
