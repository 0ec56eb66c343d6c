"""Experiment A-CKPT: state-saving cost versus state size.

The paper's dense-CG observation — checkpoint cost is dominated by the
application-state volume — reduced to its mechanism: serialise/deserialise
cost and stored bytes as functions of payload size, for the framed-pickle
checkpoint format and the managed heap.

The second half measures the tiered storage engine (:mod:`repro.ckpt`):
full pickle snapshots versus incremental (content-addressed delta) versus
incremental+compressed generations, on synthetic evolving state and on the
paper's Laplace and dense-CG applications, with bytes written reported per
generation, and the engine's per-commit garbage collection across many
streams.
"""

import numpy as np
import pytest

from repro.apps.workloads import SCALED_CKPT_CHUNK_SIZE, SCALED_CKPT_CODEC
from repro.ckpt import CheckpointStore, CountingBackend, MemoryBackend, RetentionPolicy
from repro.runtime.config import RunConfig
from repro.runtime.driver import run_with_recovery
from repro.statesave.format import CheckpointData
from repro.statesave.heap import ManagedHeap
from repro.statesave.storage import Storage
from repro.util.serialization import dumps_framed, loads_framed

SIZES = {"64KB": 8_192, "1MB": 131_072, "8MB": 1_048_576}  # float64 counts


def make_ckpt(n_floats: int) -> CheckpointData:
    return CheckpointData(
        rank=0,
        epoch=1,
        protocol={"epoch": 1},
        app_state={"grid": np.arange(n_floats, dtype=np.float64)},
    )


@pytest.mark.parametrize("label", list(SIZES))
def test_serialize_cost_vs_size(benchmark, label):
    benchmark.group = "ckpt-serialize"
    data = make_ckpt(SIZES[label])

    blob = benchmark(dumps_framed, data)
    assert len(blob) >= SIZES[label] * 8


@pytest.mark.parametrize("label", list(SIZES))
def test_restore_cost_vs_size(benchmark, label):
    benchmark.group = "ckpt-restore"
    blob = dumps_framed(make_ckpt(SIZES[label]))

    data = benchmark(loads_framed, blob)
    assert data.app_state["grid"].shape[0] == SIZES[label]


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_storage_write_cost(benchmark, backend, tmp_path):
    benchmark.group = "ckpt-storage"
    storage = Storage(None if backend == "memory" else str(tmp_path))
    data = make_ckpt(131_072)  # 1 MB

    def run():
        storage.write_state(0, 1, data)

    benchmark(run)
    assert storage.bytes_written > 0


def test_heap_snapshot_cost(benchmark):
    benchmark.group = "ckpt-heap"
    heap = ManagedHeap()
    for i in range(64):
        heap.alloc_array(f"block{i}", (4096,))

    def run():
        return dumps_framed(heap.snapshot())

    blob = benchmark(run)
    assert len(blob) > 64 * 4096 * 8


def test_cost_scales_linearly():
    """Sanity: serialise time grows roughly linearly with payload size (no
    quadratic copies hiding in the checkpoint path)."""
    import time

    times = {}
    for label, n in SIZES.items():
        data = make_ckpt(n)
        t0 = time.perf_counter()
        for _ in range(3):
            dumps_framed(data)
        times[label] = (time.perf_counter() - t0) / 3
    ratio = times["8MB"] / max(times["64KB"], 1e-9)
    assert ratio < 400, f"8MB/64KB serialise ratio {ratio:.0f} looks superlinear"


# --------------------------------------------------------------------- #
# Experiment B-CKPT: the tiered engine — full vs incremental vs compressed.
# --------------------------------------------------------------------- #

#: The three storage strategies under comparison; chunk size is small
#: relative to the scaled app states so delta granularity is meaningful.
ENGINE_CONFIGS = {
    "full-pickle": dict(incremental=False, codec="none"),
    "incremental": dict(incremental=True, codec="none"),
    "incremental+zlib": dict(incremental=True, codec=SCALED_CKPT_CODEC),
}

ENGINE_CHUNK = SCALED_CKPT_CHUNK_SIZE


def evolving_state(step: int, n_const: int = 65_536, n_hot: int = 4_096):
    """A realistic generation series: a large constant block (the dense-CG
    matrix analogue) plus a small mutating block (the solution vectors)."""
    constant = np.arange(n_const, dtype=np.float64)  # same bytes every step
    hot = np.full(n_hot, float(step))
    return CheckpointData(
        rank=0, epoch=step, protocol={"epoch": step},
        app_state={"matrix": constant, "vectors": hot},
    )


@pytest.mark.parametrize("strategy", list(ENGINE_CONFIGS))
def test_engine_write_cost(benchmark, strategy):
    """Wall cost of saving one more generation under each strategy."""
    benchmark.group = "ckpt-engine-write"
    storage = Storage(None, chunk_size=ENGINE_CHUNK, **ENGINE_CONFIGS[strategy])
    step = 0
    storage.write_state(0, step, evolving_state(step))

    def run():
        nonlocal step
        step += 1
        storage.write_state(0, step, evolving_state(step))

    benchmark(run)
    saves = storage.store.history
    benchmark.extra_info["bytes_per_generation"] = (
        sum(record.stored_bytes for record in saves) // max(1, len(saves))
    )


def test_engine_bytes_full_vs_incremental_vs_compressed():
    """Ten generations of evolving state: the delta engine must beat the
    flat store, and compression must beat delta alone."""
    totals = {}
    for strategy, knobs in ENGINE_CONFIGS.items():
        storage = Storage(None, chunk_size=ENGINE_CHUNK, **knobs)
        for step in range(1, 11):
            storage.write_state(0, step, evolving_state(step))
        totals[strategy] = storage.bytes_written
        assert storage.read_state(0, 10).app_state["vectors"][0] == 10.0
    assert totals["incremental"] < totals["full-pickle"] / 3
    assert totals["incremental+zlib"] < totals["incremental"]


def _per_generation_state_bytes(storage: Storage) -> dict[int, int]:
    """Bytes written per checkpoint generation, summed over ranks."""
    per_gen: dict[int, int] = {}
    for record in storage.store.history:
        if record.stream.endswith("/state"):
            per_gen[record.generation] = (
                per_gen.get(record.generation, 0) + record.stored_bytes
            )
    return dict(sorted(per_gen.items()))


def _run_paper_app(app_name: str, storage: Storage):
    from repro.apps import dense_cg, laplace

    if app_name == "laplace":
        app = laplace.build(laplace.LaplaceParams(n=32, iterations=100))
    else:
        app = dense_cg.build(dense_cg.CGParams(n=48, iterations=60))
    config = RunConfig(
        nprocs=4, seed=7, checkpoint_interval=0.0025, detector_timeout=0.05,
        ckpt_chunk_size=ENGINE_CHUNK,
    )
    return run_with_recovery(app, config, storage=storage)


@pytest.mark.parametrize("app_name", ["laplace", "dense_cg"])
def test_paper_apps_incremental_compressed_beats_full(app_name):
    """Acceptance shape: on the paper's applications, incremental+compressed
    generations write measurably fewer bytes than full pickle snapshots.
    The simulation itself is storage-agnostic, so all three runs take
    identical checkpoints and the byte counts are directly comparable."""
    bytes_written = {}
    per_generation = {}
    outcomes = {}
    for strategy, knobs in ENGINE_CONFIGS.items():
        storage = Storage(None, chunk_size=ENGINE_CHUNK, **knobs)
        outcome = _run_paper_app(app_name, storage)
        assert outcome.checkpoints_committed >= 1
        bytes_written[strategy] = outcome.storage_bytes_written
        per_generation[strategy] = _per_generation_state_bytes(storage)
        outcomes[strategy] = outcome.results
    # Storage strategy must never change the computation.
    assert outcomes["full-pickle"] == outcomes["incremental+zlib"]
    # Every strategy saw the same generations (the per-generation report).
    assert (
        per_generation["incremental"].keys()
        == per_generation["full-pickle"].keys() != set()
    )
    full = bytes_written["full-pickle"]
    packed = bytes_written["incremental+zlib"]
    assert bytes_written["incremental"] <= full
    assert packed < 0.9 * full, (
        f"{app_name}: incremental+zlib wrote {packed} vs full {full} "
        f"({packed / full:.0%}) — not measurably fewer"
    )


def test_dense_cg_constant_matrix_dedupes():
    """The CG matrix block never changes after generation 1: the delta
    engine must reuse chunks across generations where the flat store
    rewrites the full state every wave."""
    storage = Storage(None, chunk_size=ENGINE_CHUNK, incremental=True)
    _run_paper_app("dense_cg", storage)
    assert storage.store.chunks_reused > 0
    per_gen = _per_generation_state_bytes(storage)
    first = min(per_gen)
    later = [g for g in per_gen if g != first]
    assert later, "expected more than one checkpoint generation"
    # Later generations write less than the first (which had no prior
    # generation to dedupe against).
    assert sum(per_gen[g] for g in later) / len(later) < per_gen[first]


# --------------------------------------------------------------------- #
# Experiment C-CKPT: per-commit garbage collection across many streams.
# --------------------------------------------------------------------- #

GC_STREAMS = 16
GC_WAVES = 20


def _gc_store() -> tuple[CheckpointStore, CountingBackend]:
    backend = CountingBackend(MemoryBackend())
    store = CheckpointStore(
        backend, codec=SCALED_CKPT_CODEC, chunk_size=ENGINE_CHUNK,
        retention=RetentionPolicy(keep_last=1),
    )
    return store, backend


def _commit_wave(store: CheckpointStore, step: int) -> None:
    for rank in range(GC_STREAMS):
        store.save(f"rank{rank}/state", step, evolving_state(step, 16_384, 1_024))


def test_engine_gc_cost(benchmark):
    """Retention GC after every commit wave must cost what it removes, not
    what the store holds: no key listing and no manifest re-reads, while
    every retained generation still loads.  The timed part is one
    collect of a superseded wave across all streams."""
    benchmark.group = "ckpt-engine-gc"
    store, backend = _gc_store()
    for step in range(1, GC_WAVES + 1):
        _commit_wave(store, step)
        backend.reset()
        assert store.collect(pinned=step) == (GC_STREAMS if step > 1 else 0)
        assert backend.calls["keys"] == 0
        assert not [key for key in backend.gets if key.startswith("manifests/")]
    for rank in range(GC_STREAMS):
        stream = f"rank{rank}/state"
        assert store.generations(stream) == [GC_WAVES]
        assert store.load(stream, GC_WAVES).app_state["vectors"][0] == GC_WAVES
    assert store.sweep_orphans() == 0  # collect left nothing behind

    def two_waves():
        fresh, _backend = _gc_store()
        _commit_wave(fresh, 1)
        _commit_wave(fresh, 2)
        return (fresh,), {}

    removed = benchmark.pedantic(
        lambda fresh: fresh.collect(pinned=2), setup=two_waves, rounds=5
    )
    assert removed == GC_STREAMS
