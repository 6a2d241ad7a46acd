"""Batch-job manifests: the on-disk description of a fingerprinting run.

A manifest is one JSON document naming the program, the key, the
fingerprint width and the copies to mint::

    {
      "module": "app.wasm",
      "secret": "vendor-master-key",
      "inputs": [25, 10],
      "bits": 16,
      "pieces": 12,
      "copies": [
        {"id": "acme-corp", "watermark": "0x3E9"},
        {"id": "globex",    "watermark": 2477, "seed": 7}
      ]
    }

``copies`` may instead be a generator form for "customers 1..N"::

    "copies": {"count": 16, "start_watermark": 1, "id_prefix": "customer"}

Optional fields: ``pieces`` (explicit redundancy), or ``piece_loss``
plus ``target_success`` to delegate the piece count to the Eq. (1)
planner; ``codec`` (``"gcrt"``/``"rs"``/``"rs-N"``/``"hybrid"``/
``"hybrid-N"``) selects the error-correcting scheme for every copy in
the job; ``seed`` per copy (defaults to the copy's position) salts the
embedder's RNG streams. ``module`` paths resolve relative to the
manifest file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bytecode_wm.keys import WatermarkKey
from ..codec import CodecError, resolve_codec
from .batch import CopySpec, sequential_specs


class ManifestError(ValueError):
    """The manifest document is malformed or inconsistent."""


@dataclass
class BatchManifest:
    """A parsed, validated fingerprinting job."""

    module_path: str
    secret: bytes
    inputs: Tuple[int, ...]
    watermark_bits: int
    copies: List[CopySpec] = field(default_factory=list)
    pieces: Optional[int] = None
    piece_loss: Optional[float] = None
    target_success: float = 0.99
    codec: str = "gcrt"

    def key(self) -> WatermarkKey:
        return WatermarkKey(secret=self.secret, inputs=list(self.inputs))


def parse_watermark(value: Any, where: str = "") -> int:
    """A watermark field of a manifest or request: an integer, or a
    string ``int(text, 0)`` reads (``"0x3E9"``). ``where`` names the
    field in the error."""
    prefix = f"{where}: " if where else ""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise ManifestError(
                f"{prefix}cannot parse watermark {value!r}"
            ) from None
    raise ManifestError(f"{prefix}watermark must be an integer")


def _parse_copies(doc: Any, bits: int) -> List[CopySpec]:
    if isinstance(doc, dict):
        count = doc.get("count")
        if not isinstance(count, int) or count < 1:
            raise ManifestError("copies.count must be a positive integer")
        start = doc.get("start_watermark", 1)
        if not isinstance(start, int) or start < 0:
            raise ManifestError("copies.start_watermark must be >= 0")
        specs = sequential_specs(count, start, doc.get("id_prefix", "copy"))
    elif isinstance(doc, list):
        if not doc:
            raise ManifestError("copies list is empty")
        specs = []
        for index, entry in enumerate(doc):
            if not isinstance(entry, dict):
                raise ManifestError(f"copies[{index}] must be an object")
            where = f"copies[{index}]"
            if "id" not in entry or "watermark" not in entry:
                raise ManifestError(f"{where}: needs 'id' and 'watermark'")
            seed = entry.get("seed", index)
            if not isinstance(seed, int):
                raise ManifestError(f"{where}: seed must be an integer")
            try:
                specs.append(
                    CopySpec(
                        copy_id=str(entry["id"]),
                        watermark=parse_watermark(entry["watermark"], where),
                        seed=seed,
                    )
                )
            except ValueError as exc:
                raise ManifestError(str(exc)) from None
    else:
        raise ManifestError("copies must be a list or a generator object")

    seen = set()
    for spec in specs:
        if spec.copy_id in seen:
            raise ManifestError(f"duplicate copy id {spec.copy_id!r}")
        seen.add(spec.copy_id)
        if spec.watermark >= (1 << bits):
            raise ManifestError(
                f"{spec.copy_id}: watermark {spec.watermark:#x} does not "
                f"fit in {bits} bits"
            )
    return specs


def parse_manifest(doc: Dict[str, Any], base_dir: str = ".") -> BatchManifest:
    """Validate a loaded JSON document into a :class:`BatchManifest`."""
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    for name in ("module", "secret", "bits", "copies"):
        if name not in doc:
            raise ManifestError(f"manifest is missing {name!r}")
    if not isinstance(doc["module"], str) or not doc["module"]:
        raise ManifestError("module must be a non-empty path")
    if not isinstance(doc["secret"], str) or not doc["secret"]:
        raise ManifestError("secret must be a non-empty string")
    bits = doc["bits"]
    if not isinstance(bits, int) or bits < 1:
        raise ManifestError("bits must be a positive integer")
    inputs = doc.get("inputs", [])
    if not isinstance(inputs, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in inputs
    ):
        raise ManifestError("inputs must be a list of integers")
    pieces = doc.get("pieces")
    if pieces is not None and (not isinstance(pieces, int) or pieces < 1):
        raise ManifestError("pieces must be a positive integer")
    piece_loss = doc.get("piece_loss")
    if piece_loss is not None:
        if not isinstance(piece_loss, (int, float)) or not (
            0.0 <= piece_loss < 1.0
        ):
            raise ManifestError("piece_loss must be in [0, 1)")
    target = doc.get("target_success", 0.99)
    if not isinstance(target, (int, float)) or not 0.0 < target < 1.0:
        raise ManifestError("target_success must be in (0, 1)")
    codec = doc.get("codec", "gcrt")
    if not isinstance(codec, str):
        raise ManifestError("codec must be a string")
    try:
        codec = resolve_codec(codec).spec
    except CodecError as exc:
        raise ManifestError(str(exc)) from None

    return BatchManifest(
        module_path=os.path.normpath(os.path.join(base_dir, doc["module"])),
        secret=doc["secret"].encode(),
        inputs=tuple(inputs),
        watermark_bits=bits,
        copies=_parse_copies(doc["copies"], bits),
        pieces=pieces,
        piece_loss=float(piece_loss) if piece_loss is not None else None,
        target_success=float(target),
        codec=codec,
    )


def load_manifest(path: str) -> BatchManifest:
    """Read and validate a manifest file."""
    with open(path) as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"not a JSON manifest: {exc}") from exc
    return parse_manifest(doc, base_dir=os.path.dirname(path) or ".")
