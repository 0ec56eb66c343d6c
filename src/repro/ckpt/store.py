"""The tiered checkpoint storage engine.

:class:`CheckpointStore` organises a backend's flat key space into three
regions::

    objects/<codec>/<d0d1>/<digest>         -- content-addressed chunks
    manifests/<stream>/gen<g>.mft           -- per-generation manifests
    refs/<name>                             -- small named records (COMMIT)

A *stream* is one logical sequence of generations (``rank0/state``,
``rank3/log``); a *generation* is one immutable snapshot within it,
indexed by epoch.  Saving a generation is a two-phase commit:

1. every chunk of the pickled payload is written (atomically, under its
   content address) — chunks are invisible until referenced;
2. the checksummed manifest is published with one atomic rename.

A crash anywhere in phase 1, or before phase 2's rename, leaves at most
orphaned chunks: the previous generation's manifest — and therefore the
previous generation — is untouched.

Garbage collection runs off an in-memory *reference index*: the chunk
keys of every live generation, and a reference count per chunk key.  The
index is built from the backend once, on first use (so a store reopened
over a directory sees what an earlier store left), and from then on is
kept current by every operation that publishes or removes a manifest.
Per-commit GC (:meth:`collect`) therefore never lists the backend and
never re-reads a manifest: deleting a generation drops its references,
and a chunk is deleted the moment its count reaches zero, so the cost is
O(chunks of the removed generations).  Chunks orphaned by torn writes
never gained a reference; the full :meth:`sweep_orphans`, run off the hot
path (the recovery driver calls it after a failed attempt), lists the
chunk region and reclaims them.

The index makes the store the **sole writer** of its backend: publishing
or deleting manifests or chunks behind the store's back is not seen by
its GC.  Damage underneath the store is handled conservatively — a
generation whose manifest blob has since become unreadable still keeps
its chunks alive until the generation itself is deleted.  (When the index
is first built, an already-unreadable manifest can name no chunks and
protects none.)

Incremental mode skips every chunk whose content address already exists
(from any generation of any stream, or left by a torn write): it costs
zero bytes.  Compression happens per chunk, after dedup, so the codec
never disturbs content addressing.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from repro.ckpt.backends import Backend
from repro.ckpt.codecs import ChunkCodec, get_chunk_codec
from repro.ckpt.delta import DEFAULT_CHUNK_SIZE, DeltaStats, chunk_digest, split_chunks
from repro.ckpt.manifest import ChunkRef, GenerationManifest
from repro.ckpt.retention import RetentionPolicy
from repro.errors import StorageError
from repro.util.serialization import dumps_framed, loads_framed

#: Progress stages reported to a save hook (fault injection, tests).
STAGE_CHUNK = "chunk"
STAGE_MANIFEST = "manifest"

ProgressHook = Callable[[str, int, int], None]


@dataclass(frozen=True)
class SaveRecord:
    """What one :meth:`CheckpointStore.save` published: its manifest's
    bookkeeping without the chunk list."""

    stream: str
    generation: int
    payload_length: int
    stored_bytes: int
    reused_chunks: int


class CheckpointStore:
    """Generations of checkpoints over a pluggable backend."""

    def __init__(
        self,
        backend: Backend,
        codec: str = "none",
        incremental: bool = True,
        retention: Optional[RetentionPolicy] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.backend = backend
        self.codec: ChunkCodec = get_chunk_codec(codec)
        self.incremental = incremental
        self.retention = retention or RetentionPolicy()
        self.chunk_size = chunk_size
        #: Cumulative encoded bytes that reached the backend.
        self.bytes_written = 0
        #: Cumulative decoded payload bytes saved (what a flat pickle store
        #: would have written); the benchmark's denominator.
        self.logical_bytes = 0
        self.chunks_written = 0
        self.chunks_reused = 0
        self.generations_saved = 0
        #: One record per save this store instance made, in save order —
        #: the bytes-per-generation record benchmarks report from.  (GC
        #: removes generations from the backend, not from this history.)
        self.history: list[SaveRecord] = []
        #: Bumped whenever published data may have changed underneath a
        #: reader (deletes, GC, tampering helpers); validation caches use
        #: it as their invalidation stamp.
        self.mutations = 0
        self._decoders: dict[str, ChunkCodec] = {self.codec.name: self.codec}
        self._chunk_prefix = f"objects/{self.codec.name}/"
        #: The reference index (see the module docstring): stream ->
        #: generation -> chunk keys its manifest names.  None until first
        #: use, when :meth:`_index` builds it from the backend.
        self._live: Optional[dict[str, dict[int, tuple[str, ...]]]] = None
        #: Live references per chunk key (a generation naming one chunk
        #: twice holds two); a key is present iff its count is positive.
        self._refs: Counter[str] = Counter()
        #: Stored (encoded) size of every chunk known to be in the backend
        #: (every referenced chunk, and any this store wrote since), so a
        #: save that dedupes against one need not ask the backend.
        self._stored_sizes: dict[str, int] = {}
        #: Optional :class:`repro.trace.TraceRecorder`; armed per run by the
        #: recovery driver (via the ``Storage`` facade).  Emission sites
        #: guard on this being None, so tracing off costs one attribute read.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Key layout.
    # ------------------------------------------------------------------ #

    @staticmethod
    def _chunk_key(digest: str, codec: str) -> str:
        # Chunks are keyed per codec: dedup must never hand a generation a
        # chunk whose bytes were encoded under a different codec than its
        # manifest records.
        return f"objects/{codec}/{digest[:2]}/{digest}"

    @staticmethod
    def _manifest_key(stream: str, generation: int) -> str:
        return f"manifests/{stream}/gen{generation:08d}.mft"

    @staticmethod
    def _record_key(name: str) -> str:
        return f"refs/{name}"

    def _decoder(self, name: str) -> ChunkCodec:
        if name not in self._decoders:
            self._decoders[name] = get_chunk_codec(name)
        return self._decoders[name]

    # ------------------------------------------------------------------ #
    # Save / load.
    # ------------------------------------------------------------------ #

    def save(
        self,
        stream: str,
        generation: int,
        obj: Any,
        progress: Optional[ProgressHook] = None,
        created_at: Optional[float] = None,
    ) -> GenerationManifest:
        """Write ``obj`` as ``stream``'s generation ``generation``.

        The ``progress`` hook fires before each chunk is processed and once
        more just before the manifest is published; raising from it models
        a crash mid-write (some chunks persisted, manifest never published).

        ``created_at`` stamps the manifest; callers pass *virtual* time (or
        any deterministic value).  The store never reads the host clock:
        wall-clock timestamps baked into persisted bytes would make two
        otherwise-identical runs produce different backends, poisoning
        byte-level rerun determinism and content-addressed result caches.
        """
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._index()  # built before this save's manifest is published
        stored_sizes = self._stored_sizes
        backend = self.backend
        incremental = self.incremental
        prefix = self._chunk_prefix
        chunks = split_chunks(payload, self.chunk_size)
        stats = DeltaStats(chunks_total=len(chunks), bytes_logical=len(payload))
        keys: list[str] = []
        refs: list[ChunkRef] = []
        for index, chunk in enumerate(chunks):
            if progress is not None:
                # Fires *before* chunk ``index`` is processed, so a hook
                # raising at index k leaves exactly k chunks persisted.
                progress(STAGE_CHUNK, index, len(chunks))
            digest = chunk_digest(chunk)
            # Inlined _chunk_key: this loop runs once per chunk of every save.
            key = f"{prefix}{digest[:2]}/{digest}"
            stored = stored_sizes.get(key) if incremental else None
            if stored is None and incremental and backend.exists(key):
                # An orphan this store did not write (e.g. a torn write
                # by an earlier store over the same backend).
                stored = stored_sizes[key] = backend.size(key)
            if stored is not None:
                stats.chunks_reused += 1
            else:
                encoded = self.codec.encode(bytes(chunk))
                backend.put(key, encoded)
                stored = stored_sizes[key] = len(encoded)
                stats.chunks_written += 1
                stats.bytes_stored += stored
            keys.append(key)
            refs.append(ChunkRef(digest, len(chunk), stored))
        manifest = GenerationManifest(
            stream=stream,
            generation=generation,
            codec=self.codec.name,
            chunk_size=self.chunk_size,
            payload_length=len(payload),
            chunks=tuple(refs),
            created_at=created_at if created_at is not None else 0.0,
            stored_bytes=stats.bytes_stored,
            reused_chunks=stats.chunks_reused,
        ).sealed()
        if progress is not None:
            progress(STAGE_MANIFEST, 0, 1)
        blob = dumps_framed(manifest)
        backend.put(self._manifest_key(stream, generation), blob)
        self.bytes_written += stats.bytes_stored + len(blob)
        self.logical_bytes += len(payload)
        self.chunks_written += stats.chunks_written
        self.chunks_reused += stats.chunks_reused
        self.generations_saved += 1
        self.history.append(
            SaveRecord(
                stream, generation, len(payload), stats.bytes_stored, stats.chunks_reused
            )
        )
        # Reference the new chunks before releasing a replaced manifest's:
        # a recovery attempt that re-takes an epoch's checkpoint republishes
        # (stream, generation), and only the chunks the rewrite no longer
        # names may be reclaimed.
        replaced = self._reference(stream, generation, keys)
        if replaced is not None:
            self._release(replaced)
            # Published bytes changed underneath any cached validation.
            self.mutations += 1
        tr = self.tracer
        if tr is not None:
            # The manifest publish is the atomic point of two-phase commit;
            # one event here captures the whole generation write.
            tr.emit(
                "store", "publish", t=manifest.created_at,
                stream=stream, generation=generation,
                chunks_written=stats.chunks_written,
                chunks_reused=stats.chunks_reused,
                bytes_stored=stats.bytes_stored,
            )
        return manifest

    def load(self, stream: str, generation: int) -> Any:
        """Reassemble and deserialise one generation, verifying everything."""
        manifest = self.read_manifest(stream, generation)
        decoder = self._decoder(manifest.codec)
        parts: list[bytes] = []
        for ref in manifest.chunks:
            encoded = self.backend.get(self._chunk_key(ref.digest, manifest.codec))
            try:
                data = decoder.decode(encoded)
            except Exception as exc:
                raise StorageError(
                    f"chunk {ref.digest[:12]} of {stream!r} generation "
                    f"{generation} failed to decode: {exc}"
                ) from exc
            if len(data) != ref.length or chunk_digest(data) != ref.digest:
                raise StorageError(
                    f"chunk {ref.digest[:12]} of {stream!r} generation "
                    f"{generation} fails content verification"
                )
            parts.append(data)
        payload = b"".join(parts)
        if len(payload) != manifest.payload_length:
            raise StorageError(
                f"{stream!r} generation {generation}: reassembled "
                f"{len(payload)} bytes, manifest says {manifest.payload_length}"
            )
        return pickle.loads(payload)

    # ------------------------------------------------------------------ #
    # Manifests / generations.
    # ------------------------------------------------------------------ #

    def read_manifest(
        self, stream: str, generation: int, verify: bool = True
    ) -> GenerationManifest:
        blob = self.backend.get(self._manifest_key(stream, generation))
        manifest = loads_framed(blob)
        if not isinstance(manifest, GenerationManifest):
            raise StorageError(
                f"object at {self._manifest_key(stream, generation)!r} "
                "is not a manifest"
            )
        if verify:
            manifest.verify()
        return manifest

    def has_generation(self, stream: str, generation: int) -> bool:
        return generation in self._index().get(stream, ())

    def generations(self, stream: str) -> list[int]:
        return sorted(self._index().get(stream, ()))

    def streams(self) -> list[str]:
        return sorted(self._index())

    def validate_generation(self, stream: str, generation: int) -> bool:
        """True iff the generation's manifest checks out and every chunk
        is present with matching content (a full read, used before trusting
        a generation for recovery)."""
        try:
            manifest = self.read_manifest(stream, generation)
            decoder = self._decoder(manifest.codec)
            total = 0
            for ref in manifest.chunks:
                encoded = self.backend.get(self._chunk_key(ref.digest, manifest.codec))
                data = decoder.decode(encoded)
                if len(data) != ref.length or chunk_digest(data) != ref.digest:
                    return False
                total += len(data)
            return total == manifest.payload_length
        except Exception:
            return False

    def corrupt_manifest(self, stream: str, generation: int) -> None:
        """Tamper with a published manifest *without* breaking its frame CRC
        (test/fault-injection helper): the inner checksum must catch it."""
        manifest = self.read_manifest(stream, generation, verify=False)
        # The checksum field rides along unchanged and no longer matches.
        tampered = replace(manifest, payload_length=manifest.payload_length + 1)
        self.backend.put(self._manifest_key(stream, generation), dumps_framed(tampered))
        self.mutations += 1

    def delete_generation(self, stream: str, generation: int) -> None:
        """Unpublish one generation and reclaim every chunk that no other
        live generation references."""
        self.backend.delete(self._manifest_key(stream, generation))
        gens = self._index().get(stream)
        if gens is not None and generation in gens:
            self._release(gens.pop(generation))
            if not gens:
                del self._live[stream]
        self.mutations += 1

    # ------------------------------------------------------------------ #
    # Named records (commit records and other small control data).
    # ------------------------------------------------------------------ #

    def put_record(self, name: str, obj: Any) -> None:
        blob = dumps_framed(obj)
        self.backend.put(self._record_key(name), blob)
        self.bytes_written += len(blob)

    def get_record(self, name: str) -> Any:
        return loads_framed(self.backend.get(self._record_key(name)))

    def has_record(self, name: str) -> bool:
        return self.backend.exists(self._record_key(name))

    # ------------------------------------------------------------------ #
    # Garbage collection.
    # ------------------------------------------------------------------ #

    def collect(
        self,
        pinned: Optional[int] = None,
        retention: Optional[RetentionPolicy] = None,
    ) -> int:
        """Apply retention to every stream, deleting the generations it
        does not keep together with the chunks only they referenced.

        Reads nothing but the reference index: no backend listing, no
        manifest re-reads, so per-commit GC costs O(chunks of the removed
        generations), not O(store).  Chunks orphaned without ever gaining
        a manifest (torn writes) hold no reference and are left to
        :meth:`sweep_orphans`, which the recovery driver runs off the hot
        path after a failed attempt.

        Returns the number of generation manifests removed (reclaimed
        chunks are not counted: they are storage internals, not
        checkpoint objects).
        """
        policy = retention or self.retention
        live = self._index()
        removed = 0
        for stream in sorted(live):
            gens = sorted(live[stream])
            keep = policy.live(gens, pinned=pinned)
            for generation in gens:
                if generation not in keep:
                    self.delete_generation(stream, generation)
                    removed += 1
        tr = self.tracer
        if tr is not None and removed:
            tr.emit("store", "gc", removed=removed, pinned=pinned)
        return removed

    def sweep_orphans(self) -> int:
        """Full sweep: delete every chunk no live generation references.

        Lists the whole chunk region, so O(entire store); meant for
        off-hot-path moments — after a failed attempt (reclaiming a torn
        write's chunks) or administratively.  The reference set is the
        index, not a re-read of every manifest.
        """
        self._index()
        referenced = self._refs
        swept = 0
        for key in self.backend.keys("objects/"):
            if key not in referenced:
                self.backend.delete(key)
                self._stored_sizes.pop(key, None)
                swept += 1
        tr = self.tracer
        if tr is not None and swept:
            tr.emit("store", "sweep_orphans", swept=swept)
        return swept

    def wipe(self) -> None:
        self.backend.wipe()
        self._live = {}
        self._refs.clear()
        self._stored_sizes.clear()
        self.mutations += 1

    # ------------------------------------------------------------------ #
    # The reference index.
    # ------------------------------------------------------------------ #

    def _index(self) -> dict[str, dict[int, tuple[str, ...]]]:
        """The live generations' chunk keys, built from the backend once."""
        if self._live is None:
            self._live = {}
            for key in self.backend.keys("manifests/"):
                stream, _sep, leaf = key[len("manifests/"):].rpartition("/")
                if not (stream and leaf.startswith("gen") and leaf.endswith(".mft")):
                    continue
                generation = int(leaf[len("gen"):-len(".mft")])
                try:
                    manifest = self.read_manifest(stream, generation, verify=False)
                except StorageError:
                    # Unreadable before the index existed: its chunks cannot
                    # be named, so it protects none (sweep_orphans may take
                    # them).  It is still a generation retention can delete.
                    self._live.setdefault(stream, {})[generation] = ()
                    continue
                keys = [
                    self._chunk_key(ref.digest, manifest.codec) for ref in manifest.chunks
                ]
                self._stored_sizes.update(
                    zip(keys, (ref.stored_length for ref in manifest.chunks))
                )
                self._reference(stream, generation, keys)
        return self._live

    def _reference(
        self, stream: str, generation: int, keys: Sequence[str]
    ) -> Optional[tuple[str, ...]]:
        """Index a just-published generation; return the chunk keys of the
        generation it replaced (whose references the caller releases)."""
        self._refs.update(keys)
        gens = self._live.setdefault(stream, {})
        replaced = gens.get(generation)
        gens[generation] = tuple(keys)
        return replaced

    def _release(self, keys: tuple[str, ...]) -> None:
        """Drop one reference per key; delete chunks no longer referenced."""
        refs = self._refs
        for key in keys:
            count = refs[key] - 1
            if count:
                refs[key] = count
            else:
                del refs[key]
                del self._stored_sizes[key]
                self.backend.delete(key)
