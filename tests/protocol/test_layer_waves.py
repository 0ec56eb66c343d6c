"""In-simulation protocol layer tests: checkpoint waves, logging, counters.

These run real multi-rank programs inside the simulator with manually wired
C3 layers, checking Figure 4's observable behaviour: wave completion, log
content, message classification effects, and the mySendCount bookkeeping.
"""

import pytest

from repro.protocol import C3Config, C3Layer
from repro.simmpi import run_simple
from repro.statesave import Storage


def wire(ctx, storage, interval=None, **cfg_kwargs):
    cfg = C3Config(checkpoint_interval=interval, save_app_state=False, **cfg_kwargs)
    return C3Layer(ctx.comm, cfg, storage)


class TestWaveCompletion:
    def test_single_wave_commits(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(40):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return (layer.state.epoch, layer.stats.checkpoints_taken)

        result = run_simple(main, nprocs=4, seed=0)
        assert result.completed
        assert storage.committed_epoch() == 1
        assert all(r == (1, 1) for r in result.results)

    def test_interval_driven_waves(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.002)
            for i in range(150):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=1)
        assert result.completed
        epochs = set(result.results)
        assert len(epochs) == 1
        assert storage.committed_epoch() >= 2

    def test_every_rank_state_and_log_on_disk(self, tmp_path):
        storage = Storage(str(tmp_path))

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(30):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=2)
        assert result.completed
        epoch = storage.committed_epoch()
        assert storage.has_complete_epoch(3, epoch)
        data = storage.read_state(1, epoch)
        assert data.rank == 1 and data.epoch == epoch

    def test_gc_keeps_only_committed(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.001)
            for i in range(200):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return layer.state.epoch

        run_simple(main, nprocs=2, seed=3)
        committed = storage.committed_epoch()
        assert committed >= 2
        # Only the committed epoch's objects survive garbage collection.
        assert storage.has_complete_epoch(2, committed)
        assert not storage.store.has_generation("rank0/state", committed - 1)


class TestLoggingBehaviour:
    def test_logging_starts_at_checkpoint_and_stops(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            saw_logging = False
            for i in range(60):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
                saw_logging = saw_logging or layer.state.am_logging
            return (saw_logging, layer.state.am_logging, layer.stats.log_finalizations)

        result = run_simple(main, nprocs=3, seed=4)
        assert result.completed
        for saw, still, finals in result.results:
            assert saw, "rank never entered the logging window"
            assert not still, "logging never terminated"
            assert finals == 1

    def test_match_records_written_while_logging(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(50):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return None

        result = run_simple(main, nprocs=2, seed=5)
        assert result.completed
        epoch = storage.committed_epoch()
        logs = storage.read_log(0, epoch)
        # Some receives happened inside the logging window.
        assert len(logs.matches) > 0
        # Every late record is referenced by a match record.
        late_ids = {(r.source, r.message_id) for r in logs.late.records}
        match_late = {
            (m.source, m.message_id) for m in logs.matches.records if m.was_late
        }
        assert late_ids == match_late

    def test_nondet_logged_only_while_logging(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            layer.nondet(lambda: 1)  # before any checkpoint: not logged
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(40):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
                layer.nondet(lambda: i)
            return layer.stats.nondet_logged

        result = run_simple(main, nprocs=2, seed=6)
        assert result.completed
        for logged in result.results:
            assert logged > 0


class TestVariantConfigs:
    def test_piggyback_only_never_checkpoints(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)  # no interval, no force
            for i in range(30):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return (layer.state.epoch, layer.stats.checkpoints_taken)

        result = run_simple(main, nprocs=2, seed=7)
        assert result.completed
        assert all(r == (0, 0) for r in result.results)
        assert storage.committed_epoch() is None

    def test_unpiggybacked_mode(self):
        storage = Storage()

        def main(ctx):
            cfg = C3Config(save_app_state=False)
            layer = C3Layer(ctx.comm, cfg, storage, stack=())
            layer.send("x", 1 - ctx.rank, tag=1)
            return layer.recv(source=1 - ctx.rank, tag=1)

        result = run_simple(main, nprocs=2, seed=8)
        assert result.completed
        assert result.results == ["x", "x"]

    @pytest.mark.parametrize("codec", ["full", "packed"])
    def test_both_codecs_complete_waves(self, codec):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.002, codec=codec)
            for i in range(80):
                layer.send(i, (ctx.rank + 1) % ctx.size, tag=1)
                layer.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                layer.potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=9)
        assert result.completed
        assert storage.committed_epoch() >= 1
