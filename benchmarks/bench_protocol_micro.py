"""Experiment A-PROT: protocol micro-costs.

Per-operation throughput of the pieces that run on every message:
classification, counter bookkeeping, match logging, and the late-message
log — the constant factors behind the layer's per-message overhead —
plus the simulator's scheduler baton handoff, which sits under every
simulated MPI call, and the :mod:`repro.trace` emission path (off, the
single attribute read every hot path pays; on, the full ring append).
"""

import os

import pytest

from repro.farm.bench import BenchRecorder
from repro.farm.engine import FarmStats
from repro.protocol.classify import classify_by_color, classify_by_epoch
from repro.protocol.logs import LateMessageLog, LateRecord, MatchLog, MatchRecord
from repro.protocol.state import ProtocolState
from repro.simmpi import SUM, run_simple
from repro.simmpi.simulator import SimConfig, Simulator
from repro.trace import TraceRecorder

N = 5000


def test_classification_by_epoch(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        out = 0
        for i in range(N):
            out += classify_by_epoch(i % 3, 1).value != ""
        return out

    assert benchmark(run) == N


def test_classification_by_color(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        out = 0
        for i in range(N):
            out += classify_by_color(i & 1, 4, bool(i & 2)).value != ""
        return out

    assert benchmark(run) == N


def test_send_bookkeeping(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        state = ProtocolState(rank=0, nprocs=8)
        for i in range(N):
            state.note_send(1 + (i % 7))
        return state.next_message_id

    assert benchmark(run) == N


def test_match_log_append(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        log = MatchLog()
        for i in range(N):
            log.append(MatchRecord(source=i % 4, tag=1, message_id=i, was_late=False))
        return len(log)

    assert benchmark(run) == N


def test_late_log_append_and_consume(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        log = LateMessageLog()
        for i in range(1000):
            log.append(LateRecord(source=i % 4, tag=1, message_id=i, payload=i))
        consumed = 0
        for i in range(1000):
            if log.take_by_id(i % 4, i) is not None:
                consumed += 1
        return consumed

    assert benchmark(run) == 1000


def test_epoch_transition(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        state = ProtocolState(rank=0, nprocs=16)
        for _ in range(200):
            state.note_send(1)
            state.epoch_transition()
        return state.epoch

    assert benchmark(run) == 200


def test_snapshot_cost(benchmark):
    benchmark.group = "protocol-micro"
    state = ProtocolState(rank=0, nprocs=16)

    def run():
        return state.snapshot_for_checkpoint()

    snap = benchmark(run)
    assert snap.rank == 0


def test_scheduler_baton_handoff(benchmark):
    """Scheduler hot path: baton handoffs with 8 pumped sync ranks.

    Every simulated MPI call of a plain sync main hands the baton
    helper thread → scheduler → helper thread, one lock release and one
    acquire each way; only the target helper ever wakes.
    """
    benchmark.group = "protocol-micro"

    def ring(ctx):
        peer = (ctx.rank + 1) % ctx.size
        for i in range(60):
            ctx.comm.send(i, peer, tag=1)
            ctx.comm.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
        return 1

    def run():
        return sum(run_simple(ring, nprocs=8, seed=3).results)

    assert benchmark(run) == 8


# --------------------------------------------------------------------- #
# Trace-emission overhead (the tentpole's cost envelope).
#
# The two simulator benchmarks below differ only in whether a recorder is
# armed: tracing off must be indistinguishable from the pre-trace
# baseline (every emission site is one attribute read + None check), and
# tracing on must stay within ~10% (one dataclass append per event into a
# bounded deque).  The bench-smoke JSON artifact exhibits the ratio.
# --------------------------------------------------------------------- #


def _ring(ctx):
    peer = (ctx.rank + 1) % ctx.size
    for i in range(60):
        ctx.comm.send(i, peer, tag=1)
        ctx.comm.recv(source=(ctx.rank - 1) % ctx.size, tag=1)
    return 1


def test_sim_run_tracing_off(benchmark):
    benchmark.group = "trace-overhead"

    def run():
        sim = Simulator(SimConfig(nprocs=8, seed=3), _ring)
        return sum(sim.run().results)

    assert benchmark(run) == 8


def test_sim_run_tracing_on(benchmark):
    benchmark.group = "trace-overhead"

    def run():
        sim = Simulator(
            SimConfig(nprocs=8, seed=3), _ring, tracer=TraceRecorder()
        )
        return sum(sim.run().results)

    assert benchmark(run) == 8


def test_trace_emit_throughput(benchmark):
    """Raw cost of one emit: timestamp + dataclass + deque append."""
    benchmark.group = "trace-overhead"

    def run():
        recorder = TraceRecorder(capacity=1024)
        for i in range(N):
            recorder.emit("sched", "grant", t=float(i), rank=i & 7)
        return len(recorder)

    assert benchmark(run) == 1024


# --------------------------------------------------------------------- #
# Rank scaling: generator mains vs plain sync mains.
#
# The same seeded ring and allreduce, written once as generator mains
# (resumed on the scheduler thread) and once as plain synchronous mains
# (each rank pumped on a helper thread), across rank counts.  Both run
# identical scheduling decisions (round_robin, zero network jitter: no
# RNG draws anywhere), so the measured gap is purely the control-transfer
# mechanism: a generator resume (~1us) versus a helper-thread lock
# handoff per scheduling point.  Sync mains are excluded at 1024 ranks: a
# helper thread per rank at that scale exhausts default thread/stack
# budgets on small CI runners.
#
# Medians land in ``_SCALING_MEDIANS`` and, when ``RANK_SCALING_BENCH``
# names a trajectory file, ``test_rank_scaling_record`` stamps them into
# the BENCH trajectory (labels ``rank_scaling.<workload>.n<N>.<main>``,
# generator records carrying ``speedup_vs_sync``).
# --------------------------------------------------------------------- #

RING_ITERS = 10

#: ``(workload, nprocs, main) -> median seconds`` from this process's run.
_SCALING_MEDIANS: dict = {}


def _co_scaling_ring(ctx):
    peer = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for i in range(RING_ITERS):
        yield from ctx.comm.co_send(i, peer, tag=1)
        yield from ctx.comm.co_recv(source=left, tag=1)
    return 1


def _sync_scaling_ring(ctx):
    peer = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for i in range(RING_ITERS):
        ctx.comm.send(i, peer, tag=1)
        ctx.comm.recv(source=left, tag=1)
    return 1


def _co_scaling_allreduce(ctx):
    total = 0
    for _ in range(4):
        total = yield from ctx.comm.co_allreduce(1, SUM)
    return total


def _sync_scaling_allreduce(ctx):
    total = 0
    for _ in range(4):
        total = ctx.comm.allreduce(1, SUM)
    return total


_SCALING_WORKLOADS = {
    "ring": ({"gen": _co_scaling_ring, "sync": _sync_scaling_ring}, lambda n: n),
    "allreduce": (
        {"gen": _co_scaling_allreduce, "sync": _sync_scaling_allreduce},
        lambda n: n * n,
    ),
}

_SCALING_CELLS = [
    (8, "sync"), (8, "gen"),
    (64, "sync"), (64, "gen"),
    (256, "sync"), (256, "gen"),
    (1024, "gen"),
]


def _scaling_config(nprocs):
    # round_robin + zero jitter keeps numpy out of the hot loop, so the
    # comparison isolates the handoff mechanism itself.
    return SimConfig(
        nprocs=nprocs, seed=3, sched_policy="round_robin", jitter=0.0,
    )


@pytest.mark.parametrize("nprocs,main", _SCALING_CELLS)
@pytest.mark.parametrize("workload", sorted(_SCALING_WORKLOADS))
def test_rank_scaling(benchmark, workload, nprocs, main):
    benchmark.group = f"rank-scaling-{workload}"
    mains, expected = _SCALING_WORKLOADS[workload]

    def run():
        sim = Simulator(_scaling_config(nprocs), mains[main])
        return sum(sim.run().results)

    assert benchmark(run) == expected(nprocs)
    _SCALING_MEDIANS[(workload, nprocs, main)] = benchmark.stats.stats.median


def test_rank_scaling_record():
    """Stamp the rank-scaling medians into the BENCH trajectory.

    Opt-in (``RANK_SCALING_BENCH=<path>``): a plain test run must not
    grow the checked-in trajectory.  Runs after the parametrized cells
    above (pytest executes a module in definition order), so the medians
    dict is full whenever the benchmarks actually ran.
    """
    path = os.environ.get("RANK_SCALING_BENCH")
    if not path:
        pytest.skip("set RANK_SCALING_BENCH=<trajectory path> to record")
    if not _SCALING_MEDIANS:
        pytest.skip("no rank-scaling samples collected in this run")
    recorder = BenchRecorder(path)
    for (workload, nprocs, main), median in sorted(_SCALING_MEDIANS.items()):
        extra = {"workload": workload, "ranks": nprocs, "main": main}
        sync_median = _SCALING_MEDIANS.get((workload, nprocs, "sync"))
        if main == "gen" and sync_median:
            extra["speedup_vs_sync"] = round(sync_median / median, 3)
        recorder.record(
            f"rank_scaling.{workload}.n{nprocs}.{main}",
            FarmStats(cells=1, misses=1, executed=1, wall_seconds=median),
            extra=extra,
        )
