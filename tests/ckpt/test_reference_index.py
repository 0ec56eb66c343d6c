"""The store's reference index: it always agrees with the manifests on the
backend, GC driven by it reclaims exactly what it should, and steady-state
saves and collects never list the backend or re-read a manifest."""

import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    CheckpointStore,
    CountingBackend,
    DirectoryBackend,
    MemoryBackend,
    RetentionPolicy,
)
from repro.ckpt.store import STAGE_CHUNK, STAGE_MANIFEST
from repro.errors import ManifestCorruptError, StorageError
from repro.util.serialization import loads_framed

CHUNK = 32
STREAMS = ("rank0/state", "rank1/state", "rank0/log")
#: Payloads are built from a few fixed blocks, so generations share chunks
#: within and across streams.
BLOCKS = [bytes([i]) * CHUNK for i in range(4)]


def payload(blocks):
    return b"".join(BLOCKS[b] for b in blocks)


class Torn(Exception):
    pass


def oracle(backend):
    """Every live generation and the chunk keys it references, re-read
    from the manifests on the backend."""
    live, referenced = {}, set()
    for key in backend.keys("manifests/"):
        manifest = loads_framed(backend.get(key))
        live.setdefault(manifest.stream, []).append(manifest.generation)
        referenced.update(
            CheckpointStore._chunk_key(ref.digest, manifest.codec) for ref in manifest.chunks
        )
    return {s: sorted(g) for s, g in live.items()}, referenced


def check(store, model, corrupted, torn_chunks):
    live, referenced = oracle(store.backend)
    assert store.streams() == sorted(live)
    for stream, gens in live.items():
        assert store.generations(stream) == gens
    assert set(store._refs) == referenced
    assert all(count > 0 for count in store._refs.values())
    for key in referenced:
        assert store.backend.exists(key)
    assert {(s, g) for s, gens in live.items() for g in gens} == set(model)
    for (stream, generation), obj in model.items():
        if (stream, generation) in corrupted:
            try:
                store.load(stream, generation)
            except ManifestCorruptError:
                continue
            raise AssertionError("a corrupted manifest loaded")
        assert store.load(stream, generation) == obj
    # Anything at rest that no manifest names was left by a torn save.
    unreferenced = set(store.backend.keys("objects/")) - referenced
    assert unreferenced <= torn_chunks
    return unreferenced


blocks = st.lists(st.integers(0, len(BLOCKS) - 1), min_size=0, max_size=6)
ops = st.one_of(
    st.tuples(st.just("save"), st.sampled_from(STREAMS), st.integers(1, 5), blocks),
    st.tuples(st.just("rewrite"), st.integers(0, 50), blocks),
    st.tuples(
        st.just("torn"), st.sampled_from(STREAMS), st.integers(1, 5), blocks,
        st.sampled_from((STAGE_CHUNK, STAGE_MANIFEST)), st.integers(0, 6),
    ),
    st.tuples(
        st.just("collect"), st.integers(1, 3), st.sampled_from((None, 2, 3)),
        st.one_of(st.none(), st.integers(1, 5)), st.booleans(),
    ),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("corrupt"), st.integers(0, 50)),
    st.tuples(st.just("wipe")),
    st.tuples(st.just("reopen")),
)


def run_ops(backend, sequence):
    def open_store():
        return CheckpointStore(backend, chunk_size=CHUNK)

    store = open_store()
    model, corrupted, torn_chunks = {}, set(), set()

    def pick(i):
        return sorted(model)[i % len(model)] if model else None

    for op in sequence:
        kind = op[0]
        if kind in ("save", "rewrite"):
            if kind == "save":
                _, stream, generation, bl = op
            else:
                if not model:
                    continue
                (stream, generation), bl = pick(op[1]), op[2]
            obj = payload(bl)
            store.save(stream, generation, obj)
            model[(stream, generation)] = obj
            corrupted.discard((stream, generation))
        elif kind == "torn":
            _, stream, generation, bl, stage, after = op

            def progress(at, index, total, stage=stage, after=after):
                if at == STAGE_MANIFEST or (stage == STAGE_CHUNK and index >= after):
                    raise Torn()

            before = set(backend.keys("objects/"))
            try:
                store.save(stream, generation, payload(bl), progress=progress)
            except Torn:
                pass
            torn_chunks |= set(backend.keys("objects/")) - before
        elif kind == "collect":
            _, keep_last, keep_every, pinned, sweep = op
            policy = RetentionPolicy(keep_last=keep_last, keep_every=keep_every)
            for stream in {s for s, _ in model}:
                gens = sorted(g for s, g in model if s == stream)
                for generation in set(gens) - policy.live(gens, pinned=pinned):
                    del model[(stream, generation)]
                    corrupted.discard((stream, generation))
            store.collect(pinned=pinned, retention=policy)
            if sweep:
                # After a collect, the orphan sweep finds only torn writes.
                unreferenced = check(store, model, corrupted, torn_chunks)
                assert store.sweep_orphans() == len(unreferenced)
        elif kind == "delete":
            target = pick(op[1])
            if target is None:
                continue
            store.delete_generation(*target)
            del model[target]
            corrupted.discard(target)
        elif kind == "corrupt":
            target = pick(op[1])
            if target is None:
                continue
            store.corrupt_manifest(*target)
            corrupted.add(target)
        elif kind == "wipe":
            store.wipe()
            model.clear()
            corrupted.clear()
            torn_chunks.clear()
        else:  # reopen
            store = open_store()
        check(store, model, corrupted, torn_chunks)


@settings(max_examples=100, deadline=None)
@given(sequence=st.lists(ops, max_size=25))
def test_index_matches_manifests_memory(sequence):
    run_ops(MemoryBackend(), sequence)


@settings(max_examples=40, deadline=None)
@given(sequence=st.lists(ops, max_size=20))
def test_index_matches_manifests_directory(sequence):
    with tempfile.TemporaryDirectory() as root:
        run_ops(DirectoryBackend(root), sequence)


def test_reopened_store_sees_and_collects_the_same_generations(tmp_path):
    first = CheckpointStore(DirectoryBackend(str(tmp_path)), chunk_size=CHUNK)
    for generation in range(1, 5):
        for stream in STREAMS:
            first.save(stream, generation, payload([0, generation % 4, 1]))
    second = CheckpointStore(DirectoryBackend(str(tmp_path)), chunk_size=CHUNK)
    assert second.streams() == first.streams() == sorted(STREAMS)
    for stream in STREAMS:
        assert second.generations(stream) == first.generations(stream) == [1, 2, 3, 4]
    assert second.collect(pinned=2) == len(STREAMS) * 2
    _live, referenced = oracle(second.backend)
    assert set(second.backend.keys("objects/")) == referenced
    for stream in STREAMS:
        assert second.generations(stream) == [2, 4]
        assert second.load(stream, 4) == payload([0, 0, 1])


# --------------------------------------------------------------------- #
# The mechanism, independent of timing.
# --------------------------------------------------------------------- #


def _state(step):
    # A constant block shared by every generation and a block that changes.
    return {"const": bytes(range(256)) * 8, "hot": pickle.dumps(step) * 64}


def _wave(store, step, streams=4):
    for s in range(streams):
        store.save(f"rank{s}/state", step, _state(step))
    store.collect(pinned=step)


def test_steady_state_save_and_collect_never_scan():
    backend = CountingBackend(MemoryBackend())
    store = CheckpointStore(backend, chunk_size=256, retention=RetentionPolicy(keep_last=2))
    _wave(store, 1)
    assert backend.calls["keys"] == 1  # the first-use index build
    backend.reset()
    for step in range(2, 12):
        _wave(store, step)
    assert backend.calls["keys"] == 0
    assert not [key for key in backend.gets if key.startswith("manifests/")]
    assert backend.calls["delete"] > 0  # GC did reclaim chunks and manifests
    backend.reset()
    store.save("rank0/state", 11, _state(12))  # a rewrite
    assert backend.calls["keys"] == 0 and backend.calls["get"] == 0
    # Only the orphan sweep lists the chunk region.
    assert store.sweep_orphans() == 0
    assert backend.calls["keys"] == 1


def test_reopened_store_builds_its_index_once():
    inner = MemoryBackend()
    _wave(CheckpointStore(inner, chunk_size=256), 1)
    backend = CountingBackend(inner)
    store = CheckpointStore(backend, chunk_size=256)
    assert store.generations("rank0/state") == [1]
    build_gets = len(backend.gets)
    assert backend.calls["keys"] == 1 and build_gets == 4  # one read per manifest
    for step in range(2, 6):
        _wave(store, step)
    assert backend.calls["keys"] == 1
    assert len(backend.gets) == build_gets
    assert store.load("rank3/state", 5) == _state(5)


def test_damaged_manifest_still_protects_its_chunks():
    """A manifest blob damaged underneath the store keeps referencing the
    chunks the store indexed for it: GC is conservative."""
    store = CheckpointStore(MemoryBackend(), chunk_size=256)
    first = store.save("s", 1, _state(1))
    store.save("s", 2, _state(2))
    key = store._manifest_key("s", 1)
    store.backend.put(key, b"\x00" + store.backend.get(key)[1:])  # bit rot
    with pytest.raises(StorageError):
        store.read_manifest("s", 1)
    store.save("s", 3, _state(3))
    assert store.collect(pinned=1) == 1  # generation 2 goes, 1 is pinned
    assert store.sweep_orphans() == 0
    for ref in first.chunks:
        assert store.backend.exists(store._chunk_key(ref.digest, first.codec))
