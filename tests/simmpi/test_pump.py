"""The thread pump: plain synchronous mains on the one scheduler.

A rank main with no generator form runs on a per-rank helper thread that
holds the baton only while the rank runs; a generator main (or a
registered generator app) runs on the scheduler thread itself.
"""

import threading

import pytest

import repro
from repro.errors import SimMPIError
from repro.runtime import RunConfig, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, Simulator, SimConfig, coop, run_simple


def on_main_thread():
    return threading.current_thread() is threading.main_thread()


@repro.app(name="pump-test-generator-main")
def registered_generator_main(ctx):
    """A registered generator main: reports where it ran."""
    total = yield from ctx.mpi.co_allreduce(ctx.rank, SUM)
    return total, on_main_thread()


class TestWhereMainsRun:
    def test_registered_generator_main_runs_on_the_scheduler_thread(self):
        cfg = RunConfig(nprocs=3, checkpoint_interval=None)
        out = repro.Session().run("pump-test-generator-main", cfg)
        assert out.results == [(3, True)] * 3

    def test_sync_main_runs_pumped_with_its_rank_current(self):
        def main(ctx):
            total = ctx.comm.allreduce(ctx.rank, SUM)
            return total, on_main_thread(), coop.current_proc() is ctx.proc

        assert run_simple(main, nprocs=3).results == [(3, False, True)] * 3

    def test_generator_main_runs_on_the_scheduler_thread(self):
        def main(ctx):
            total = yield from ctx.comm.co_allreduce(ctx.rank, SUM)
            return total, on_main_thread()

        assert run_simple(main, nprocs=3).results == [(3, True)] * 3


class TestConversionGuard:
    def test_sync_blocking_call_in_generator_main_raises(self):
        """A missing ``co_*`` conversion fails loudly instead of hanging."""

        def main(ctx):
            if ctx.rank == 0:
                ctx.comm.recv(source=1)  # sync call: blocks, nothing queued
            yield from ctx.comm.co_yield_point()

        with pytest.raises(SimMPIError, match="scheduler thread"):
            Simulator(SimConfig(nprocs=2, seed=1), main).run()


class TestPumpTeardown:
    def test_application_error_surfaces_and_helpers_exit(self):
        def main(ctx):
            ctx.mpi.allreduce(ctx.rank, SUM)
            if ctx.rank == 1:
                raise ValueError("rank 1 gave up")
            # The others block here until teardown kills them.
            ctx.mpi.recv(source=1, tag=7)

        before = threading.active_count()
        with pytest.raises(ValueError, match="rank 1 gave up"):
            run_with_recovery(main, RunConfig(nprocs=4, checkpoint_interval=None))
        assert threading.active_count() == before

    def test_killed_rank_recovers_and_helpers_exit(self):
        def main(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < 40:
                state["acc"] += ctx.mpi.allreduce(state["i"], SUM)
                state["i"] += 1
                ctx.potential_checkpoint()
            return state["acc"]

        cfg = RunConfig(nprocs=4, seed=2, checkpoint_interval=0.001, detector_timeout=0.01)
        clean = run_with_recovery(main, cfg)
        before = threading.active_count()
        out = run_with_recovery(
            main, cfg, failures=FailureSchedule.single(time=0.002, rank=2)
        )
        assert threading.active_count() == before
        assert out.completed and out.restarts >= 1
        assert out.results == clean.results
