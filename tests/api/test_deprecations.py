"""The supported entry points run without deprecation warnings."""

import warnings

import repro
from repro.runtime.config import RunConfig


def tiny_app(ctx):
    from repro.simmpi import SUM

    return ctx.mpi.allreduce(ctx.rank, SUM)


class TestModernPathsDoNotWarn:
    def test_session_run_is_warning_free(self):
        cfg = RunConfig(nprocs=2, checkpoint_interval=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            out = repro.Session().run(tiny_app, cfg)
        assert out.results == [1, 1]
