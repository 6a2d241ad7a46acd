"""The sharded artifact fabric: one store address space, N roots.

A single :class:`~repro.serve.store.ArtifactStore` serializes every
manifest write behind one lockfile and puts every blob on one disk.
That is the right shape for one release pipeline; it is the wrong
shape for a fleet minting thousands of releases, where store traffic
should spread across directories (and, behind a shared filesystem,
across machines). The fabric keeps the store's interface and
integrity story but **consistent-hashes release digests over N shard
roots**, each shard being a full, independently hardened
``ArtifactStore`` (lockfile, quarantine, torn-manifest rebuild — all
of PR 5's machinery, unchanged).

Why consistent hashing rather than ``hash(digest) % N``: membership
changes. With modulo placement, growing N remaps nearly every key;
with a hash ring, adding a shard moves **only the keys whose arc the
new shard now owns** (about ``1/(N+1)`` of them), and removing it
moves exactly those keys back. Rebalancing cost is proportional to
the data that must move, never to the data that exists.

On-disk layout::

    <root>/
      fabric.json          # ring membership: version, replicas, shards
      shard-00/            # a complete ArtifactStore
        store.json
        blobs/...
      shard-01/
      ...

The ring is a pure function of the membership list: each shard
contributes ``replicas`` points at ``sha256("<name>#<i>")`` and a
digest is owned by the first point clockwise from ``sha256(digest)``.
Two fabrics with the same ``fabric.json`` route identically, in any
process, forever — routing state is never cached on disk.

Rebalancing (:meth:`ShardedArtifactStore.add_shard` /
:meth:`~ShardedArtifactStore.remove_shard`) recomputes ownership for
every record and moves only the records whose owner changed; blobs
move bytes-verbatim (:meth:`~repro.serve.store.ArtifactStore.
export_blob` → :meth:`~repro.serve.store.ArtifactStore.adopt`), so a
move can never silently re-pickle or corrupt an artifact — the
receiving shard re-checks the SHA-256 before accepting it.

:func:`open_store` is the polymorphic entry point the daemon, the
batch CLI and the service workers use: a root holding ``fabric.json``
opens as a fabric, anything else as a plain store, and both expose
the same surface.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import faults
from ..bytecode_wm.keys import WatermarkKey
from ..obs.metrics import get_registry
from ..pipeline.prepare import PreparedProgram, release_address
from ..vm.interpreter import DEFAULT_MAX_STEPS
from ..vm.program import Module
from .store import (
    ArtifactRecord,
    ArtifactStore,
    QuarantineRecord,
    StoreError,
    _atomic_write,
)

__all__ = [
    "FABRIC_MANIFEST",
    "HashRing",
    "RebalanceReport",
    "ShardedArtifactStore",
    "is_fabric",
    "open_store",
]

#: Bumped when the fabric manifest schema changes; a mismatch is an
#: error, never a silent misread (same contract as STORE_VERSION).
FABRIC_VERSION = 1

FABRIC_MANIFEST = "fabric.json"

#: Ring points per shard. 64 keeps the arc distribution within a few
#: percent of uniform for small fleets while the ring stays tiny
#: (N*64 16-byte entries).
DEFAULT_REPLICAS = 64


def _ring_hash(text: str) -> int:
    """A stable 64-bit position on the ring (independent of
    PYTHONHASHSEED, unlike ``hash()``)."""
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over named shards.

    The ring is deterministic in its membership *set*: insertion order
    does not matter, because every shard's points are a pure function
    of its name. ``route`` is O(log(shards * replicas)).
    """

    def __init__(self, shards: List[str], replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be positive")
        if len(set(shards)) != len(shards):
            raise ValueError("duplicate shard names in ring membership")
        self.replicas = replicas
        self.shards = sorted(shards)
        points: List[Tuple[int, str]] = []
        for shard in self.shards:
            for index in range(replicas):
                points.append((_ring_hash(f"{shard}#{index}"), shard))
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def route(self, key: str) -> str:
        """The shard owning ``key``: first ring point clockwise."""
        if not self._points:
            raise StoreError("fabric has no shards")
        where = bisect.bisect_right(self._positions, _ring_hash(key))
        if where == len(self._points):
            where = 0  # wrap: the ring is a circle
        return self._points[where][1]

    def with_shard(self, name: str) -> "HashRing":
        return HashRing(self.shards + [name], self.replicas)

    def without_shard(self, name: str) -> "HashRing":
        return HashRing(
            [s for s in self.shards if s != name], self.replicas
        )


@dataclass
class RebalanceReport:
    """What a membership change actually moved.

    ``moved`` maps each relocated digest to its ``(source,
    destination)`` shard pair; ``kept`` counts the records the change
    did not touch. The minimal-movement contract — only the affected
    arc relocates — is asserted by the fabric tests over this report.
    """

    added: Optional[str] = None
    removed: Optional[str] = None
    moved: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    kept: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "added": self.added,
            "removed": self.removed,
            "moved": {d: list(pair) for d, pair in self.moved.items()},
            "kept": self.kept,
        }


class ShardedArtifactStore:
    """N hardened :class:`ArtifactStore` roots behind one hash ring.

    Mirrors the single store's surface (``put``/``load``/
    ``get_or_prepare``/``records``/``resolve``/``evict``/``verify``/
    ``quarantined``/``refresh``), so the daemon and CLI use either
    interchangeably via :func:`open_store`. Every operation on one
    artifact touches exactly one shard — the shard the ring routes its
    digest to — so shards never contend on each other's locks.
    """

    def __init__(
        self,
        root: str,
        shards: Optional[int] = None,
        create: bool = True,
        replicas: int = DEFAULT_REPLICAS,
    ):
        self.root = root
        manifest = os.path.join(root, FABRIC_MANIFEST)
        if os.path.exists(manifest):
            self._read_manifest(manifest)
        elif create:
            count = 2 if shards is None else shards
            if count < 1:
                raise ValueError("a fabric needs at least one shard")
            self.replicas = replicas
            self._shard_names = [f"shard-{i:02d}" for i in range(count)]
            os.makedirs(root, exist_ok=True)
            for name in self._shard_names:
                ArtifactStore(os.path.join(root, name))
            self._write_manifest()
        else:
            raise StoreError(f"no artifact fabric at {root!r}")
        self.ring = HashRing(self._shard_names, self.replicas)
        self._stores: Dict[str, ArtifactStore] = {
            name: ArtifactStore(os.path.join(root, name))
            for name in self._shard_names
        }

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, FABRIC_MANIFEST)

    def _read_manifest(self, path: str) -> None:
        try:
            with open(path) as fp:
                doc = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable fabric manifest: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != FABRIC_VERSION:
            raise StoreError(
                f"fabric version {doc.get('version')!r} unsupported "
                f"(expected {FABRIC_VERSION})"
            )
        shards = doc.get("shards")
        if not isinstance(shards, list) or not shards:
            raise StoreError("fabric manifest names no shards")
        self._shard_names = [str(s) for s in shards]
        self.replicas = int(doc.get("replicas", DEFAULT_REPLICAS))

    def _write_manifest(self) -> None:
        doc = {
            "version": FABRIC_VERSION,
            "replicas": self.replicas,
            "shards": sorted(self._shard_names),
        }
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _atomic_write(
            self._manifest_path(), payload.encode(),
            site="store.write.fabric",
        )

    # -- routing -----------------------------------------------------------

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._shard_names)

    def shard(self, name: str) -> ArtifactStore:
        try:
            return self._stores[name]
        except KeyError:
            raise StoreError(f"no shard {name!r} in fabric") from None

    def route(self, digest: str) -> str:
        """The shard name owning ``digest`` under the current ring."""
        return self.ring.route(digest)

    def _owner(self, digest: str) -> ArtifactStore:
        return self._stores[self.ring.route(digest)]

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._stores.values())

    def __contains__(self, digest: str) -> bool:
        return digest in self._owner(digest)

    def contains(self, digest: str) -> bool:
        return digest in self

    def record(self, digest: str) -> ArtifactRecord:
        return self._owner(digest).record(digest)

    def records(self) -> List[ArtifactRecord]:
        """All records fabric-wide, oldest first (CLI listing order)."""
        self._sample_gauges()
        merged: List[ArtifactRecord] = []
        for store in self._stores.values():
            merged.extend(store.records())
        merged.sort(key=lambda r: (r.created_unix, r.digest))
        return merged

    def resolve(self, prefix: str) -> str:
        """Expand a unique digest prefix across every shard."""
        matches = []
        for store in self._stores.values():
            try:
                matches.append(store.resolve(prefix))
            except StoreError as exc:
                if "ambiguous" in str(exc):
                    raise
        if not matches:
            raise StoreError(f"no artifact matches {prefix!r}")
        if len(set(matches)) > 1:
            raise StoreError(f"ambiguous artifact prefix {prefix!r}")
        return matches[0]

    def refresh(self) -> None:
        for store in self._stores.values():
            store.refresh()

    def _sample_gauges(self) -> None:
        gauge = get_registry().gauge(
            "repro_fabric_shard_artifacts",
            "Artifacts stored per fabric shard",
        )
        for name, store in sorted(self._stores.items()):
            gauge.set(len(store), shard=name)

    # -- persistence -------------------------------------------------------

    def put(self, prepared: PreparedProgram, label: str = "") -> ArtifactRecord:
        return self._owner(prepared.fingerprint()).put(prepared, label=label)

    def load(self, digest: str) -> PreparedProgram:
        return self._owner(digest).load(digest)

    def evict(self, digest: str) -> bool:
        return self._owner(digest).evict(digest)

    def quarantined(self) -> List[QuarantineRecord]:
        merged: List[QuarantineRecord] = []
        for store in self._stores.values():
            merged.extend(store.quarantined())
        merged.sort(key=lambda r: (r.quarantined_at, r.digest))
        return merged

    def verify(self) -> List[str]:
        """Per-shard integrity sweeps plus a placement audit: a record
        sitting on a shard the ring does not route it to is a problem
        (an interrupted rebalance, or a hand-copied blob)."""
        problems: List[str] = []
        for name in self.shard_names:
            store = self._stores[name]
            problems.extend(f"{name}: {p}" for p in store.verify())
            for record in store.records():
                owner = self.ring.route(record.digest)
                if owner != name:
                    problems.append(
                        f"{name}: {record.digest[:12]} belongs on {owner} "
                        f"(stale placement; rebalance was interrupted?)"
                    )
        return problems

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
        """Route by the release's address, then delegate.

        The address is the normalized one (planner-sized pieces
        resolved), so an artifact is routed to, and later looked up
        from, the shard its own fingerprint names. The owning shard
        runs the same heal-on-corruption funnel the single store does;
        the fabric only decides *where*.
        """
        digest, pieces, codec = release_address(
            module, key, watermark_bits, pieces, piece_loss,
            target_success, codec,
        )
        return self._owner(digest).get_or_prepare(
            module,
            key,
            watermark_bits,
            pieces=pieces,
            piece_loss=piece_loss,
            target_success=target_success,
            max_steps=max_steps,
            label=label,
            codec=codec,
        )

    # -- membership + rebalancing ------------------------------------------

    def _move(
        self, digest: str, source: str, destination: str
    ) -> None:
        """Relocate one artifact bytes-verbatim between shards.

        Adopt-then-evict ordering: the destination verifies and
        manifests the blob before the source drops it, so a crash
        mid-move leaves a duplicate (flagged by :meth:`verify` as a
        stale placement), never a loss.
        """
        faults.check("fabric.rebalance.move", digest=digest,
                     source=source, destination=destination)
        record, data = self._stores[source].export_blob(digest)
        self._stores[destination].adopt(record, data)
        self._stores[source].evict(digest)

    def _rebalance(self, old_ring: HashRing,
                   report: RebalanceReport) -> RebalanceReport:
        moves: List[Tuple[str, str, str]] = []
        for name in sorted(self._stores):
            if name not in old_ring.shards:
                continue  # a brand-new shard holds nothing yet
            for record in self._stores[name].records():
                owner = self.ring.route(record.digest)
                if owner != name:
                    moves.append((record.digest, name, owner))
                else:
                    report.kept += 1
        for digest, source, destination in moves:
            self._move(digest, source, destination)
            report.moved[digest] = (source, destination)
        get_registry().counter(
            "repro_fabric_rebalanced_total",
            "Artifacts relocated by fabric membership changes",
        ).inc(len(moves))
        self._sample_gauges()
        return report

    def add_shard(self, name: Optional[str] = None) -> RebalanceReport:
        """Grow the ring by one shard and move only its arc's keys."""
        if name is None:
            index = len(self._shard_names)
            while f"shard-{index:02d}" in self._shard_names:
                index += 1
            name = f"shard-{index:02d}"
        if name in self._shard_names:
            raise StoreError(f"shard {name!r} already in fabric")
        old_ring = self.ring
        self._stores[name] = ArtifactStore(os.path.join(self.root, name))
        self._shard_names.append(name)
        self.ring = HashRing(self._shard_names, self.replicas)
        self._write_manifest()
        return self._rebalance(old_ring, RebalanceReport(added=name))

    def remove_shard(self, name: str) -> RebalanceReport:
        """Shrink the ring; the departing shard's keys scatter back to
        exactly the arcs they came from (the inverse of add)."""
        if name not in self._shard_names:
            raise StoreError(f"no shard {name!r} in fabric")
        if len(self._shard_names) == 1:
            raise StoreError("cannot remove the last shard")
        departing = self._stores[name]
        old_ring = self.ring
        self._shard_names.remove(name)
        self.ring = HashRing(self._shard_names, self.replicas)
        self._write_manifest()
        report = RebalanceReport(removed=name)
        # Every record on the departing shard moves, by definition;
        # records elsewhere are untouched (their arcs did not change).
        for record in departing.records():
            destination = self.ring.route(record.digest)
            self._move(record.digest, name, destination)
            report.moved[record.digest] = (name, destination)
        for other in self._stores.values():
            if other is not departing:
                report.kept += len(other)
        del self._stores[name]
        del old_ring
        get_registry().counter(
            "repro_fabric_rebalanced_total",
            "Artifacts relocated by fabric membership changes",
        ).inc(len(report.moved))
        self._sample_gauges()
        return report


def is_fabric(root: str) -> bool:
    """Does ``root`` hold a sharded fabric (vs a plain store)?"""
    return os.path.exists(os.path.join(root, FABRIC_MANIFEST))


def open_store(
    root: str,
    create: bool = False,
    shards: Optional[int] = None,
) -> Union[ArtifactStore, ShardedArtifactStore]:
    """Open whatever lives at ``root``: fabric or single store.

    ``shards`` (with ``create=True``) creates a new fabric when the
    root holds neither; ``shards=None`` creates a plain store. The
    daemon, the batch CLI and the service workers all come through
    here, so a store can be swapped for a fabric without touching any
    caller.
    """
    if is_fabric(root):
        return ShardedArtifactStore(root, create=False)
    if shards is not None:
        if os.path.exists(os.path.join(root, "store.json")):
            raise StoreError(
                f"{root!r} already holds a single store; cannot shard it "
                f"in place (create a fresh fabric root)"
            )
        return ShardedArtifactStore(root, shards=shards, create=True)
    return ArtifactStore(root, create=create)
