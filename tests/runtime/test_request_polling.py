"""Polling a nonblocking receive with ``test()``, under every variant.

Regressions:

* ``test()`` on an incomplete request must be a scheduling point.  A
  ``while not ctx.mpi.test(req)`` loop otherwise spins inside one slice
  and the sender never runs (a livelock under V0, V1 and V3 alike).
* V0 counts a receive completed by ``test()`` at its ``wait()``, exactly
  as V1-V3 do, so ``LayerStats.receives`` agrees across variants.
"""

import pytest

from repro.runtime import RunConfig, Variant, run_with_recovery

#: A loop this long means ``test()`` never let the sender run; failing
#: here keeps a livelock from hanging the suite.
MAX_POLLS = 10_000


def sync_main(ctx):
    prev, peer = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    req = ctx.mpi.irecv(prev, tag=1)
    ctx.mpi.send(ctx.rank, peer, tag=1)
    polls = 0
    while not ctx.mpi.test(req):
        polls += 1
        assert polls < MAX_POLLS, "test() polling never yielded to the sender"
    return ctx.mpi.wait(req)


def gen_main(ctx):
    prev, peer = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    req = yield from ctx.mpi.co_irecv(prev, tag=1)
    yield from ctx.mpi.co_send(ctx.rank, peer, tag=1)
    polls = 0
    while not (yield from ctx.mpi.co_test(req)):
        polls += 1
        assert polls < MAX_POLLS, "co_test() polling never yielded to the sender"
    return (yield from ctx.mpi.co_wait(req))


FORMS = pytest.mark.parametrize("main", [sync_main, gen_main], ids=["sync", "generator"])


def run(main, variant):
    return run_with_recovery(main, RunConfig(nprocs=2, seed=5, variant=variant))


@FORMS
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_test_polling_completes(variant, main):
    out = run(main, variant)
    assert out.completed
    assert out.results == [1, 0]


@FORMS
def test_receive_counts_agree_across_variants(main):
    counts = {
        variant: [stats.receives for stats in run(main, variant).layer_stats]
        for variant in Variant
    }
    # One completed receive per rank, whatever the variant.
    assert counts == {variant: [1, 1] for variant in Variant}
