"""Byte-level rerun determinism of persisted checkpoint state.

Two identical runs must leave *bit-identical* stable storage behind:
every chunk, every generation manifest, every commit record.  This is
what makes reruns auditable by hash and what the farm's content-addressed
result cache keys on.  The historical bug: ``created_at=time.time()`` in
manifests and ``wall_time=time.time()`` in commit records baked host
wall-clock readings into persisted bytes, so no two runs ever matched.

The golden hashes go further and pin the on-disk format itself: the
chunks, manifests and commit records these runs leave must stay byte-for-
byte what they were when the hashes were taken, so a change to the store's
internals cannot silently move what ``ckpt_bytes`` counts.
"""

import hashlib
from dataclasses import replace

from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage


def ring_app(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < 60:
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        ctx.mpi.send(float(state["i"]), right, tag=1)
        incoming = ctx.mpi.recv(source=left, tag=1)
        state["acc"] += ctx.mpi.allreduce(incoming, SUM)
        state["i"] += 1
        ctx.potential_checkpoint()
    return round(state["acc"], 10)


CONFIG = RunConfig(
    nprocs=3, seed=11, variant=Variant.FULL,
    checkpoint_interval=0.002, detector_timeout=0.03,
)


def _blobs(config, failures=None):
    storage = Storage(None)
    run_with_recovery(
        ring_app,
        config,
        failures=failures() if failures is not None else None,
        storage=storage,
    )
    return dict(storage.store.backend._blobs)


def _digest(blobs):
    """sha256 over the sorted (key, blob) pairs of a backend."""
    h = hashlib.sha256()
    for key in sorted(blobs):
        blob = blobs[key]
        h.update(key.encode())
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def _recovery_schedule():
    return FailureSchedule.single(0.004, rank=1)


#: Backend contents of the two configurations below, by sha256.
GOLDEN_FAILURE_FREE = "2ab574345d174531226dd7944bcca8fbe8960556cc96b305260c17282b982ebe"
GOLDEN_RECOVERY = "2172c64efa20dd9cb0d9ebe622094a360022338c5a6e2d8910b13c801823a548"


class TestByteIdenticalRuns:
    def test_failure_free_runs_leave_identical_bytes(self):
        first = _blobs(CONFIG)
        second = _blobs(CONFIG)
        assert first.keys() == second.keys()
        assert first == second  # every chunk, manifest and commit record

    def test_recovery_runs_leave_identical_bytes(self):
        """The same schedule replayed from scratch writes the same bytes —
        including re-taken generations after the rollback."""
        cfg = replace(CONFIG, ckpt_keep_last=2)
        first = _blobs(cfg, failures=_recovery_schedule)
        second = _blobs(cfg, failures=_recovery_schedule)
        assert first == second

    def test_failure_free_bytes_match_golden(self):
        assert _digest(_blobs(CONFIG)) == GOLDEN_FAILURE_FREE

    def test_recovery_bytes_match_golden(self):
        cfg = replace(CONFIG, ckpt_keep_last=2)
        assert _digest(_blobs(cfg, failures=_recovery_schedule)) == GOLDEN_RECOVERY

    def test_manifest_created_at_is_virtual_time(self):
        storage = Storage(None)
        run_with_recovery(ring_app, CONFIG, storage=storage)
        epoch = storage.committed_epoch()
        assert epoch is not None
        for rank in range(CONFIG.nprocs):
            manifest = storage.state_manifest(rank, epoch)
            data = storage.read_state(rank, epoch)
            assert manifest.created_at == data.taken_at
        # Commit records carry virtual time only; the historical
        # wall-clock duplicate field is gone.
        for record in storage.commit_history():
            assert record.committed_at >= 0.0
            assert not hasattr(record, "wall_time")
