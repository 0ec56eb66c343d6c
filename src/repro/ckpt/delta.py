"""Incremental snapshots: content-addressed chunking of checkpoint payloads.

The delta strategy works at the byte level of the *single* pickle stream a
checkpoint serialises to.  That choice is deliberate: the rank's whole
state (stack frames, heap, globals, protocol records) must be pickled in
one stream so aliasing between objects survives restore (see
:mod:`repro.util.serialization`) — splitting the object graph into
separately-pickled parts would silently duplicate shared objects.  Instead
the stream is cut into fixed-size chunks, each addressed by a digest of
its decoded bytes; a generation whose chunk already exists in the backend
writes nothing for it.

Fixed-size chunking dedupes well here because scientific application
state is dominated by in-place-mutated arrays of stable shape (the dense
CG matrix block, the Laplace grid): successive generations produce pickle
streams of identical length whose unchanged regions land on identical
chunk boundaries.  For dense CG the constant matrix block — the bulk of
the paper's 8 MB–131 MB state — dedupes to zero bytes every wave.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Default chunk size.  Every chunk costs a digest, a key and an index
#: lookup whether or not it is written, so that fixed cost is amortised over
#: 64 KB here; smaller chunks dedupe finer-grained changes but pay it more
#: often (the scaled paper workloads use 2 KB chunks, where the per-chunk
#: cost is a visible share of each save).
DEFAULT_CHUNK_SIZE = 64 * 1024


def chunk_digest(data: bytes | memoryview) -> str:
    """Content address of one chunk (computed over *decoded* bytes)."""
    return hashlib.blake2b(data, digest_size=20).hexdigest()


def split_chunks(
    payload: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> list[memoryview]:
    """Cut ``payload`` into fixed-size chunks (last one may be short).

    The chunks are zero-copy views into ``payload``: a save copies only
    the chunks it actually writes, not the ones dedup skips.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    view = memoryview(payload)
    # An empty payload is one empty chunk: every generation has a chunk.
    return [
        view[offset : offset + chunk_size]
        for offset in range(0, max(len(view), 1), chunk_size)
    ]


@dataclass
class DeltaStats:
    """What one generation's save actually moved."""

    chunks_total: int = 0
    chunks_written: int = 0
    chunks_reused: int = 0
    bytes_logical: int = 0   # decoded payload size
    bytes_stored: int = 0    # encoded bytes that hit the backend

    @property
    def reuse_fraction(self) -> float:
        return self.chunks_reused / self.chunks_total if self.chunks_total else 0.0
