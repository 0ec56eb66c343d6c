"""The quickstart ring+allreduce program as a plain synchronous ``main``.

It has no generator form and no precompiled unit, so the recovery driver
runs it on the threaded core: the only benchmark workload on that path.
Registered as an app so ``check_app`` can verify its module.
"""

from repro import app
from repro.simmpi import SUM

#: Ring iterations per run.
ITERATIONS = 150


@app(name="bench_ring", default_params=ITERATIONS)
def ring_main(ctx):
    """Send to the right neighbour, receive from the left, allreduce."""
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < ctx.params:
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        ctx.mpi.send(float(state["i"]) + ctx.rng.random(), right, tag=1)
        incoming = ctx.mpi.recv(source=left, tag=1)
        state["acc"] += ctx.mpi.allreduce(incoming, SUM)
        state["i"] += 1
        ctx.potential_checkpoint()
    return round(state["acc"], 6)
