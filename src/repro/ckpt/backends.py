"""Storage backends: where checkpoint bytes physically live.

A backend is a flat keyed blob namespace with atomic publication: ``put``
must expose either the whole new value or the previous one, never a torn
mixture.  The directory backend gets this from tmp-file + fsync + rename
(:func:`repro.util.serialization.atomic_write_bytes`); the memory backend
is trivially atomic (single assignment under the GIL).

Keys are ``/``-separated paths (``objects/ab/abcdef…``,
``manifests/rank0/state/gen00000003.mft``); the directory backend maps
them directly onto the filesystem.  The registry is open so experiments
can add tiers (e.g. a throttled "parallel filesystem" model for overhead
studies) via :func:`register_backend`.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Protocol

from repro.errors import ConfigError, StorageError
from repro.util.serialization import atomic_write_bytes


class Backend(Protocol):
    """Atomic keyed blob storage."""

    def put(self, key: str, data: bytes) -> None: ...

    def get(self, key: str) -> bytes: ...

    def exists(self, key: str) -> bool: ...

    def size(self, key: str) -> int: ...

    def delete(self, key: str) -> None: ...

    def keys(self, prefix: str = "") -> list[str]: ...

    def wipe(self) -> None: ...


class MemoryBackend:
    """In-process dict store for tests and fast benchmark cells."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self._blobs[key] = bytes(data)

    def get(self, key: str) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise StorageError(f"missing stable-storage object {key!r}") from None

    def exists(self, key: str) -> bool:
        return key in self._blobs

    def size(self, key: str) -> int:
        return len(self.get(key))

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._blobs if k.startswith(prefix))

    def wipe(self) -> None:
        self._blobs.clear()


class DirectoryBackend:
    """One file per key under a root directory, published atomically."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def put(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self._path(key), data)

    def get(self, key: str) -> bytes:
        path = self._path(key)
        if not os.path.exists(path):
            raise StorageError(f"missing stable-storage object {key!r}")
        with open(path, "rb") as fh:
            return fh.read()

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def size(self, key: str) -> int:
        path = self._path(key)
        if not os.path.exists(path):
            raise StorageError(f"missing stable-storage object {key!r}")
        return os.path.getsize(path)

    def delete(self, key: str) -> None:
        path = self._path(key)
        if os.path.exists(path):
            os.unlink(path)

    def keys(self, prefix: str = "") -> list[str]:
        # Walk only the subtree the prefix names: listing one region (the
        # chunks, for an orphan sweep) must not walk the others.
        prefix_dir, _sep, _leaf = prefix.rpartition("/")
        start = os.path.join(self.root, *prefix_dir.split("/")) if prefix_dir else self.root
        if not os.path.isdir(start):
            return []
        out = []
        for dirpath, _dirs, files in os.walk(start):
            for name in files:
                if ".tmp." in name:
                    continue  # in-flight atomic writes are not published keys
                full = os.path.join(dirpath, name)
                key = os.path.relpath(full, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    out.append(key)
        return sorted(out)

    def wipe(self) -> None:
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                os.unlink(os.path.join(dirpath, name))


class CountingBackend:
    """Wraps another backend and counts the calls made to it.

    Instrumentation for asserting *how* the store uses its backend (e.g.
    that per-commit GC never lists keys or re-reads manifests), not for
    timing: ``calls`` maps method name to call count, and ``gets`` holds
    every key read, in order.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.gets: list[str] = []

    def reset(self) -> None:
        self.calls.clear()
        self.gets.clear()

    def put(self, key: str, data: bytes) -> None:
        self.calls["put"] += 1
        self.inner.put(key, data)

    def get(self, key: str) -> bytes:
        self.calls["get"] += 1
        self.gets.append(key)
        return self.inner.get(key)

    def exists(self, key: str) -> bool:
        self.calls["exists"] += 1
        return self.inner.exists(key)

    def size(self, key: str) -> int:
        self.calls["size"] += 1
        return self.inner.size(key)

    def delete(self, key: str) -> None:
        self.calls["delete"] += 1
        self.inner.delete(key)

    def keys(self, prefix: str = "") -> list[str]:
        self.calls["keys"] += 1
        return self.inner.keys(prefix)

    def wipe(self) -> None:
        self.calls["wipe"] += 1
        self.inner.wipe()


_REGISTRY: dict[str, Callable[..., Backend]] = {
    "memory": lambda path=None: MemoryBackend(),
    "directory": lambda path=None: DirectoryBackend(path),
}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _REGISTRY[name] = factory


def make_backend(name: str, path: str | None = None) -> Backend:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown checkpoint backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(path=path)


def list_backends() -> list[str]:
    return sorted(_REGISTRY)
