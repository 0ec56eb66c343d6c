"""Tests of the layer tracer on two synthetic apps with known costs.

Run from the repository root (the repo's own test run does not collect
this directory)::

    python3 -m pytest -q perfbench/test_layers.py

Both apps run two ranks.  Rank 0 spins for ``LONG_S`` and then sends;
rank 1 sits suspended in a receive meanwhile, then spins for ``SHORT_S``.
Every checkpoint pickles a state object that spins for ``CKPT_S``.  One
app is a generator ``main`` (cooperative core), the other a plain
synchronous ``main`` (threaded core).
"""

import os
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import LayerTracer  # noqa: E402
from repro import RunConfig, Session  # noqa: E402

ITERATIONS = 6
LONG_S = 0.02
SHORT_S = 0.004
CKPT_S = 0.01


def spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class SlowState:
    """Application state whose pickling costs ``CKPT_S``."""

    def __reduce__(self):
        spin(CKPT_S)
        return (SlowState, ())


def sync_main(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "blob": SlowState()})
    while state["i"] < ITERATIONS:
        if ctx.rank == 0:
            spin(LONG_S)
            ctx.mpi.send(state["i"], 1, tag=1)
        else:
            ctx.mpi.recv(source=0, tag=1)
            spin(SHORT_S)
        ctx.compute(seconds=0.001)
        state["i"] += 1
        ctx.potential_checkpoint()
    return state["i"]


def gen_main(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "blob": SlowState()})
    while state["i"] < ITERATIONS:
        if ctx.rank == 0:
            spin(LONG_S)
            yield from ctx.mpi.co_send(state["i"], 1, tag=1)
        else:
            yield from ctx.mpi.co_recv(source=0, tag=1)
            spin(SHORT_S)
        ctx.compute(seconds=0.001)
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["i"]


@pytest.fixture
def tracer():
    tracer = LayerTracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def traced_run(tracer, main):
    config = RunConfig(nprocs=2, seed=3, checkpoint_interval=0.002)
    # A bare callable reaches the driver unwrapped, so mark it as app code
    # the way the layer table marks registered apps' entry points.
    app = tracer.wrap(main, "apps", main.__name__)
    tracer.start()
    t0 = perf_counter()
    outcome = Session().run(app, config)
    wall = perf_counter() - t0
    tracer.stop()
    assert outcome.completed and outcome.results == [ITERATIONS, ITERATIONS]
    return outcome, wall


@pytest.mark.parametrize("main", [gen_main, sync_main], ids=["generator", "sync"])
def test_layer_shares_and_wall_sum(tracer, main):
    outcome, wall = traced_run(tracer, main)
    self_s = tracer.self_s
    checkpoints = sum(s.checkpoints_taken for s in outcome.layer_stats)
    assert checkpoints > 0
    compute = ITERATIONS * (LONG_S + SHORT_S)
    # The spins are lower bounds; wrapper and loop overhead add a little.
    assert compute <= self_s["apps"] < 1.3 * compute
    assert checkpoints * CKPT_S <= self_s["ckpt.save"] < 1.5 * checkpoints * CKPT_S
    # Self times plus ``other`` account for the run's wall time.
    assert sum(self_s.values()) == pytest.approx(wall, rel=0.03)


@pytest.mark.parametrize("main", [gen_main, sync_main], ids=["generator", "sync"])
def test_suspended_time_is_not_charged(tracer, main):
    outcome, wall = traced_run(tracer, main)
    # Rank 1 spends ITERATIONS * LONG_S suspended in a receive (inside the
    # pipeline, comm and scheduler layers) while rank 0 computes; none of
    # it may land there.  Everything outside the app and the known
    # checkpoint cost is a small remainder.
    known = ITERATIONS * (LONG_S + SHORT_S) + tracer.self_s["ckpt.save"]
    assert wall - known < 0.5 * ITERATIONS * LONG_S
    for layer in ("protocol.pipeline", "simmpi.comm", "simmpi.scheduler", "protocol.checkpoint"):
        assert tracer.self_s[layer] < 0.25 * ITERATIONS * LONG_S, layer
    # Inclusive time of the receiving layers excludes the suspension too.
    assert tracer.incl_s["simmpi.comm"] < 0.25 * ITERATIONS * LONG_S


@pytest.mark.parametrize("main", [gen_main, sync_main], ids=["generator", "sync"])
def test_stage_calls_match_program_counts(tracer, main):
    outcome, _ = traced_run(tracer, main)
    counted = outcome.stage_totals()
    assert counted
    for stage, entry in counted.items():
        assert tracer.calls[f"protocol.{stage}"] == entry["calls"], stage


def test_uninstall_restores_entry_points():
    from repro.simmpi import datatypes, message
    from repro.simmpi.scheduler import Scheduler

    originals = (datatypes.sizeof, message.sizeof, Scheduler.grant)
    tracer = LayerTracer()
    tracer.install()
    assert message.sizeof is datatypes.sizeof is not originals[0]
    tracer.uninstall()
    assert (datatypes.sizeof, message.sizeof, Scheduler.grant) == originals
