"""The persistent artifact store: pay preparation once per release.

A fingerprinting service amortizes the heavy, watermark-independent
preparation work (key-input tracing, site mining, planning) over
every copy it mints. This module is the one place a preparation is
kept: the artifact is durable, so the cost is paid once per *(program,
key) release* across process restarts, CLI invocations, and every
worker of the serving daemon.

The store is **content-addressed**: an artifact's name is the
:func:`~repro.pipeline.prepare.release_address` digest of everything
preparation depends on (module text, key secret, key inputs,
fingerprint width, piece count, codec). Identical inputs always map
to the same address; a changed release — a new threat model that
plans a different piece count included — maps elsewhere, so stale
artifacts can never be served for new inputs.

On-disk layout::

    <root>/
      store.json              # integrity manifest (version + records)
      store.lock              # advisory lock serializing manifest writers
      blobs/<digest>.pickle   # one PreparedProgram pickle per artifact
      quarantine/             # blobs that failed their integrity checks
        <digest>.pickle       #   the evidence, moved out of blobs/
        <digest>.json         #   why and when it was quarantined

Each manifest record carries the SHA-256 of its blob; :meth:`
ArtifactStore.load` re-hashes the blob before unpickling and refuses
corrupted or substituted files. The blob itself is the
:class:`~repro.pipeline.prepare.PreparedProgram` pickle: the module
snapshot and the site table, with no trace — about a hundred kB for
a jess-scale program, loaded in milliseconds. A blob of another
``FORMAT_VERSION`` is quarantined on load and re-prepared by
:meth:`ArtifactStore.get_or_prepare`. Manifest writes are atomic
(write-new + rename), so a crashed writer leaves the previous
manifest intact; blob writes likewise.

Hardening (the failure modes this module absorbs rather than
propagates):

* **concurrent writers** — every manifest rewrite holds an ``fcntl``
  advisory lock on ``store.lock``, so two processes ``put``-ing into
  the same store serialize instead of interleaving rename races;
* **failed blobs quarantine** — a blob that fails :meth:`load`'s
  integrity funnel is *moved* to ``quarantine/`` (with a JSON sidecar
  recording the reason) instead of deleted: the record leaves the
  manifest so the store heals, while the evidence survives for
  forensics (``repro artifact quarantine-list``);
* **torn manifests rebuild** — a ``store.json`` cut off mid-write by
  a crashed machine (atomic rename makes this rare, not impossible)
  is preserved as ``store.json.corrupt`` and the manifest is rebuilt
  by scanning ``blobs/``; only blobs that decode and self-verify
  re-enter it;
* **fault injection** — the write and load paths declare
  :mod:`repro.faults` sites (``store.write.manifest``,
  ``store.write.blob``, ``store.load``) so tests can inject
  ``ENOSPC``, torn bytes, or corruption deterministically.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
import pickle
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import faults
from ..bytecode_wm.keys import WatermarkKey
from ..obs.journal import emit as emit_event
from ..obs.metrics import get_registry
from ..pipeline.prepare import (
    FORMAT_VERSION,
    PreparedProgram,
    prepare,
    release_address,
)
from ..vm.interpreter import DEFAULT_MAX_STEPS
from ..vm.program import Module

#: Bumped whenever the directory layout or manifest schema changes;
#: opening a store written by a different version is an error, not a
#: silent misread.
STORE_VERSION = 1

MANIFEST_NAME = "store.json"
LOCK_NAME = "store.lock"
BLOB_DIR = "blobs"
QUARANTINE_DIR = "quarantine"

_DIGEST_LEN = 64  # hex sha256


class StoreError(Exception):
    """The store is unusable, an artifact is missing, or it is corrupt."""


@dataclass(frozen=True)
class ArtifactRecord:
    """Manifest entry for one stored artifact (metadata, not the blob)."""

    digest: str
    sha256: str
    size_bytes: int
    created_unix: float
    watermark_bits: int
    pieces: int
    label: str = ""
    codec: str = "gcrt"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "sha256": self.sha256,
            "size_bytes": self.size_bytes,
            "created_unix": self.created_unix,
            "watermark_bits": self.watermark_bits,
            "pieces": self.pieces,
            "label": self.label,
            "codec": self.codec,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ArtifactRecord":
        try:
            return ArtifactRecord(
                digest=str(doc["digest"]),
                sha256=str(doc["sha256"]),
                size_bytes=int(doc["size_bytes"]),
                created_unix=float(doc["created_unix"]),
                watermark_bits=int(doc["watermark_bits"]),
                pieces=int(doc["pieces"]),
                label=str(doc.get("label", "")),
                # Manifests written before the codec layer carry no
                # codec field; those artifacts are GCRT by definition.
                codec=str(doc.get("codec", "gcrt")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed manifest record: {exc}") from exc


@dataclass(frozen=True)
class QuarantineRecord:
    """Sidecar metadata for one quarantined blob."""

    digest: str
    reason: str
    quarantined_at: str  # ISO-ish UTC timestamp for the CLI listing
    sha256_observed: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "reason": self.reason,
            "quarantined_at": self.quarantined_at,
            "sha256_observed": self.sha256_observed,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "QuarantineRecord":
        return QuarantineRecord(
            digest=str(doc.get("digest", "")),
            reason=str(doc.get("reason", "")),
            quarantined_at=str(doc.get("quarantined_at", "")),
            sha256_observed=str(doc.get("sha256_observed", "")),
        )


def _valid_digest(digest: str) -> bool:
    return (
        len(digest) == _DIGEST_LEN
        and all(c in "0123456789abcdef" for c in digest)
    )


def _blob_problem(obj: Any, digest: str) -> Optional[Tuple[str, str]]:
    """(quarantine reason, error message) when a decoded blob cannot be
    served at ``digest``; ``None`` when it can."""
    if not isinstance(obj, PreparedProgram):
        return ("not a PreparedProgram",
                f"artifact {digest[:12]} is not a PreparedProgram")
    if obj.version != FORMAT_VERSION:
        return ("unsupported format version",
                f"artifact {digest[:12]} has format version "
                f"{obj.version} (expected {FORMAT_VERSION})")
    if obj.fingerprint() != digest:
        return ("fingerprint does not match address",
                f"artifact {digest[:12]} decoded to a different "
                f"preparation fingerprint - store is inconsistent")
    return None


def _atomic_write(path: str, data: bytes, site: str = "store.write") -> None:
    """Write-new + rename, declared as a fault-injection site.

    ``site`` names the hook (``store.write.manifest`` /
    ``store.write.blob``): control rules there raise ``ENOSPC``/``EIO``
    before any bytes land; byte rules corrupt or truncate the payload
    on its way to disk — a torn write with the rename still completing.
    """
    faults.check(site, path=path)
    data = faults.filter_bytes(site, data)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fp:
        fp.write(data)
    os.replace(tmp, path)


class ArtifactStore:
    """A directory of integrity-checked :class:`PreparedProgram` pickles.

    One store per deployment; the address of an artifact is its
    preparation fingerprint, so ``put`` is idempotent and ``load`` can
    verify that the blob it decoded really is the artifact it asked
    for. All mutating operations rewrite the manifest atomically.
    """

    def __init__(self, root: str, create: bool = True):
        self.root = root
        self._blob_dir = os.path.join(root, BLOB_DIR)
        self._records: Dict[str, ArtifactRecord] = {}
        manifest = os.path.join(root, MANIFEST_NAME)
        if os.path.exists(manifest):
            self._read_manifest(manifest)
        elif create:
            os.makedirs(self._blob_dir, exist_ok=True)
            self._write_manifest()
        else:
            raise StoreError(f"no artifact store at {root!r}")

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self._blob_dir, f"{digest}.pickle")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Hold the store's advisory write lock (``store.lock``).

        Serializes concurrent manifest writers across processes; the
        lock file itself carries no data and is never removed.
        """
        fd = os.open(
            os.path.join(self.root, LOCK_NAME), os.O_CREAT | os.O_WRONLY,
            0o644,
        )
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _read_manifest(self, path: str) -> None:
        try:
            with open(path) as fp:
                doc = json.load(fp)
        except json.JSONDecodeError:
            # A torn/truncated manifest (crash mid-write on a machine
            # whose rename was not atomic after all). Keep the evidence
            # and rebuild from the blobs themselves.
            self._rebuild_manifest(path)
            return
        except OSError as exc:
            raise StoreError(f"unreadable store manifest: {exc}") from exc
        if not isinstance(doc, dict) or "version" not in doc:
            raise StoreError("store manifest has no version field")
        if doc["version"] != STORE_VERSION:
            raise StoreError(
                f"store version {doc['version']} unsupported "
                f"(expected {STORE_VERSION})"
            )
        records = doc.get("artifacts", [])
        if not isinstance(records, list):
            raise StoreError("store manifest 'artifacts' must be a list")
        for entry in records:
            record = ArtifactRecord.from_dict(entry)
            if not _valid_digest(record.digest):
                raise StoreError(f"bad artifact digest {record.digest!r}")
            self._records[record.digest] = record

    def _rebuild_manifest(self, path: str) -> None:
        """Recover from a torn ``store.json`` by scanning ``blobs/``.

        The unparseable manifest is preserved as ``store.json.corrupt``
        for forensics. Only blobs that pass :meth:`load`'s decode
        checks (a current-format :class:`PreparedProgram` whose own
        fingerprint matches its file name) re-enter the rebuilt
        manifest — anything else is left on disk for ``verify()`` to
        report as an orphan.
        """
        warnings.warn(
            f"store manifest {path!r} is torn/unparseable; rebuilding "
            f"from blob scan (original kept as {MANIFEST_NAME}.corrupt)",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        self._records = {}
        if os.path.isdir(self._blob_dir):
            for name in sorted(os.listdir(self._blob_dir)):
                if not name.endswith(".pickle"):
                    continue
                digest = name.rsplit(".pickle", 1)[0]
                if not _valid_digest(digest):
                    continue
                blob = os.path.join(self._blob_dir, name)
                try:
                    with open(blob, "rb") as fp:
                        data = fp.read()
                    obj = pickle.loads(data)
                except Exception:
                    continue  # verify() will flag it as an orphan
                if _blob_problem(obj, digest) is not None:
                    continue
                self._records[digest] = ArtifactRecord(
                    digest=digest,
                    sha256=hashlib.sha256(data).hexdigest(),
                    size_bytes=len(data),
                    created_unix=os.path.getmtime(blob),
                    watermark_bits=obj.watermark_bits,
                    pieces=obj.pieces,
                    codec=obj.codec,
                )
        get_registry().counter(
            "repro_store_manifest_rebuilds_total",
            "Torn store manifests rebuilt from blob scans",
        ).inc()
        self._write_manifest()

    def refresh(self) -> None:
        """Re-read the manifest: see artifacts other processes added.

        The daemon holds a store open for days while `repro artifact
        prepare` runs land new releases next to it; a refresh per
        store-touching request keeps the view current at the cost of
        one small JSON read.
        """
        manifest = self._manifest_path()
        if os.path.exists(manifest):
            self._records = {}
            self._read_manifest(manifest)

    def _write_manifest(self) -> None:
        doc = {
            "version": STORE_VERSION,
            "artifacts": [
                self._records[d].to_dict() for d in sorted(self._records)
            ],
        }
        os.makedirs(self._blob_dir, exist_ok=True)
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        with self._manifest_lock():
            _atomic_write(
                self._manifest_path(), payload.encode(),
                site="store.write.manifest",
            )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def contains(self, digest: str) -> bool:
        return digest in self._records

    def record(self, digest: str) -> ArtifactRecord:
        try:
            return self._records[digest]
        except KeyError:
            raise StoreError(f"no artifact {digest!r} in store") from None

    def records(self) -> List[ArtifactRecord]:
        """All records, oldest first (stable for CLI listings)."""
        return sorted(
            self._records.values(), key=lambda r: (r.created_unix, r.digest)
        )

    def resolve(self, prefix: str) -> str:
        """Expand a unique digest prefix (CLI convenience) to the digest."""
        if prefix in self._records:
            return prefix
        matches = [d for d in self._records if d.startswith(prefix)]
        if not matches:
            raise StoreError(f"no artifact matches {prefix!r}")
        if len(matches) > 1:
            raise StoreError(f"ambiguous artifact prefix {prefix!r}")
        return matches[0]

    # -- persistence -------------------------------------------------------

    def put(self, prepared: PreparedProgram, label: str = "") -> ArtifactRecord:
        """Persist an artifact under its content address (idempotent)."""
        digest = prepared.fingerprint()
        buf = io.BytesIO()
        pickle.dump(prepared, buf, protocol=pickle.HIGHEST_PROTOCOL)
        data = buf.getvalue()
        record = ArtifactRecord(
            digest=digest,
            sha256=hashlib.sha256(data).hexdigest(),
            size_bytes=len(data),
            created_unix=time.time(),
            watermark_bits=prepared.watermark_bits,
            pieces=prepared.pieces,
            label=label,
            codec=prepared.codec,
        )
        _atomic_write(self._blob_path(digest), data, site="store.write.blob")
        self._records[digest] = record
        self._write_manifest()
        return record

    def export_blob(self, digest: str) -> Tuple[ArtifactRecord, bytes]:
        """The record plus its verified raw blob bytes.

        The fabric's rebalancer moves artifacts between shards with
        this + :meth:`adopt`: bytes-verbatim, never re-pickled, so a
        move cannot change an artifact's identity. The blob is hashed
        before export — a corrupt blob is quarantined here rather than
        smuggled onto another shard.
        """
        record = self.record(digest)
        try:
            with open(self._blob_path(digest), "rb") as fp:
                data = fp.read()
        except OSError as exc:
            raise StoreError(
                f"artifact {digest[:12]} blob missing: {exc}"
            ) from exc
        actual = hashlib.sha256(data).hexdigest()
        if actual != record.sha256:
            self.quarantine(digest, "sha256 mismatch", sha256_observed=actual)
            raise StoreError(
                f"artifact {digest[:12]} failed its integrity check on "
                f"export (sha256 {actual[:12]}.. != manifest "
                f"{record.sha256[:12]}..)"
            )
        return record, data

    def adopt(self, record: ArtifactRecord, data: bytes) -> ArtifactRecord:
        """Accept an artifact moved verbatim from another store.

        The receiving side of a fabric rebalance: the bytes are
        re-hashed against the travelling record before anything lands,
        so a move torn in transit is rejected here, while the source
        still holds the original (moves evict only after adoption).
        """
        if not _valid_digest(record.digest):
            raise StoreError(f"bad artifact digest {record.digest!r}")
        actual = hashlib.sha256(data).hexdigest()
        if actual != record.sha256:
            raise StoreError(
                f"artifact {record.digest[:12]} arrived corrupt "
                f"(sha256 {actual[:12]}.. != record {record.sha256[:12]}..)"
            )
        _atomic_write(
            self._blob_path(record.digest), data, site="store.write.blob"
        )
        self._records[record.digest] = record
        self._write_manifest()
        return record

    def load(self, digest: str) -> PreparedProgram:
        """Read, integrity-check and unpickle one artifact.

        Three defenses, in order: the blob's SHA-256 must match the
        manifest (bit rot, truncation, substitution); the pickle must
        decode to a :class:`PreparedProgram` of the current
        ``FORMAT_VERSION`` (stale format); the decoded artifact's own
        fingerprint must equal the address it was stored under (a
        mislabelled or hand-moved blob). A blob failing any of the
        three is **quarantined** — moved to
        ``quarantine/`` with a reason sidecar and dropped from the
        manifest — before the :class:`StoreError` propagates, so the
        next ``get_or_prepare`` heals the store instead of tripping
        over the same bad bytes.
        """
        record = self.record(digest)
        path = self._blob_path(digest)
        faults.check("store.load", digest=digest)
        try:
            with open(path, "rb") as fp:
                data = fp.read()
        except OSError as exc:
            raise StoreError(
                f"artifact {digest[:12]} blob missing: {exc}"
            ) from exc
        data = faults.filter_bytes("store.load", data)
        actual = hashlib.sha256(data).hexdigest()
        if actual != record.sha256:
            self.quarantine(digest, "sha256 mismatch", sha256_observed=actual)
            raise StoreError(
                f"artifact {digest[:12]} failed its integrity check "
                f"(sha256 {actual[:12]}.. != manifest {record.sha256[:12]}..)"
            )
        try:
            obj = pickle.loads(data)
        except Exception as exc:
            self.quarantine(
                digest, f"does not unpickle: {type(exc).__name__}",
                sha256_observed=actual,
            )
            raise StoreError(
                f"artifact {digest[:12]} does not unpickle: {exc}"
            ) from exc
        problem = _blob_problem(obj, digest)
        if problem is not None:
            reason, message = problem
            self.quarantine(digest, reason, sha256_observed=actual)
            raise StoreError(message)
        return obj

    # -- quarantine --------------------------------------------------------

    def quarantine(
        self, digest: str, reason: str, sha256_observed: str = ""
    ) -> bool:
        """Move a failed blob aside and drop its manifest record.

        Unlike :meth:`evict`, the bytes survive (``quarantine/``) for
        forensics, next to a JSON sidecar saying why. Idempotent and
        safe for a blob that has already vanished; returns True when a
        blob was actually moved.
        """
        src = self._blob_path(digest)
        qdir = self._quarantine_dir()
        os.makedirs(qdir, exist_ok=True)
        moved = False
        try:
            os.replace(src, os.path.join(qdir, f"{digest}.pickle"))
            moved = True
        except OSError:
            pass  # already moved or never landed; the sidecar still tells why
        record = QuarantineRecord(
            digest=digest,
            reason=reason,
            quarantined_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            sha256_observed=sha256_observed,
        )
        sidecar = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        with open(os.path.join(qdir, f"{digest}.json"), "w") as fp:
            fp.write(sidecar + "\n")
        if digest in self._records:
            del self._records[digest]
            self._write_manifest()
        get_registry().counter(
            "repro_store_quarantined_total",
            "Blobs quarantined after failing integrity checks",
        ).inc(reason=reason.split(":")[0])
        emit_event("store.quarantine", digest, digest=digest,
                   reason=reason, moved=moved)
        return moved

    def quarantined(self) -> List[QuarantineRecord]:
        """All quarantine sidecars, oldest first (CLI listing order)."""
        qdir = self._quarantine_dir()
        records: List[QuarantineRecord] = []
        if not os.path.isdir(qdir):
            return records
        for name in sorted(os.listdir(qdir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(qdir, name)) as fp:
                    records.append(QuarantineRecord.from_dict(json.load(fp)))
            except (OSError, ValueError):
                continue  # a torn sidecar should not break the listing
        records.sort(key=lambda r: (r.quarantined_at, r.digest))
        return records

    def evict(self, digest: str) -> bool:
        """Drop an artifact (blob + record). Returns False if absent."""
        if digest not in self._records:
            return False
        del self._records[digest]
        try:
            os.remove(self._blob_path(digest))
        except OSError:
            pass  # record removal is what matters; verify() finds orphans
        self._write_manifest()
        return True

    def verify(self) -> List[str]:
        """Integrity-sweep the whole store; returns the problems found."""
        problems: List[str] = []
        for digest in sorted(self._records):
            record = self._records[digest]
            path = self._blob_path(digest)
            if not os.path.exists(path):
                problems.append(f"{digest[:12]}: blob file missing")
                continue
            with open(path, "rb") as fp:
                data = fp.read()
            if hashlib.sha256(data).hexdigest() != record.sha256:
                problems.append(f"{digest[:12]}: blob does not match sha256")
        if os.path.isdir(self._blob_dir):
            for name in sorted(os.listdir(self._blob_dir)):
                stem = name.rsplit(".pickle", 1)[0]
                if name.endswith(".pickle") and stem not in self._records:
                    problems.append(f"{stem[:12]}: orphan blob (no record)")
        return problems

    # -- the cache-through path --------------------------------------------

    def get_or_prepare(
        self,
        module: Module,
        key: WatermarkKey,
        watermark_bits: int,
        pieces: Optional[int] = None,
        piece_loss: Optional[float] = None,
        target_success: float = 0.99,
        max_steps: int = DEFAULT_MAX_STEPS,
        label: str = "",
        codec: str = "gcrt",
    ) -> Tuple[PreparedProgram, bool]:
        """(artifact, was_hit): load when stored, else prepare and store.

        Hits and misses feed the ambient metrics registry
        (``repro_store_requests_total``). A stored artifact that fails
        its integrity check is quarantined and re-prepared rather than
        trusted. A failed preparation stores nothing; a failed store
        write (disk full) propagates its ``OSError``.
        """
        digest, pieces, codec = release_address(
            module, key, watermark_bits, pieces, piece_loss,
            target_success, codec,
        )
        requests = get_registry().counter(
            "repro_store_requests_total", "Artifact store lookups"
        )
        if digest in self._records:
            try:
                artifact = self.load(digest)
            except StoreError:
                self.evict(digest)
            else:
                requests.inc(outcome="hit")
                return artifact, True
        requests.inc(outcome="miss")
        artifact = prepare(
            module,
            key,
            watermark_bits,
            pieces,
            piece_loss,
            target_success,
            max_steps=max_steps,
            codec=codec,
        )
        self.put(artifact, label=label)
        return artifact, False
