"""Sync-main vs generator-main bit-identity: the thread pump's contract.

A rank main with a generator form runs on the scheduler thread; a plain
synchronous main runs behind ``coop.pump`` on a helper thread, reaching
the same ``co_*`` generators through ``coop.drive``.  The scheduler
policy, RNG draw sequence, virtual clock charges, and message matching
are shared code, so every observable outcome must be *bit-identical*
across the two forms.  Each test runs a registered app as-is (its
``co_call`` generator entry) against the same app wrapped in a plain
``def main(ctx): return app(ctx)``, which forces the pump:

1. the full V0-V3 x {laplace, dense_cg} sweep, failure-free and with a
   mid-run kill forcing detector + recovery, fingerprinted down to
   virtual time, network byte counters, storage accounting, and
   per-attempt records;
2. the six pinned ``repro.chaos.regressions`` schedules — the nastiest
   interleavings this project has found — judged in both forms with
   verdicts compared field-for-field;
3. a traced run exported with ``repro.trace.to_jsonl`` byte-compared
   across forms (trace events carry only virtual time, so the exports
   must be identical strings).
"""

from dataclasses import replace

import pytest

from repro.api import registry
from repro.api.registry import AppSpec, get_app
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.chaos.campaign import DEFAULT_PARAMS, CampaignConfig, check_scenario
from repro.chaos.regressions import REGRESSION_SCENARIOS
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import FailureSchedule
from repro.trace import TraceRecorder, to_jsonl

#: Small-but-real workloads: enough iterations to cross several
#: checkpoint intervals, small enough that the 2x form sweep stays cheap.
APP_BUILDS = {
    "laplace": lambda: get_app("laplace").build(LaplaceParams(n=16, iterations=60)),
    "dense_cg": lambda: get_app("dense_cg").build(CGParams(n=48, iterations=30)),
}

VARIANTS = [Variant.UNMODIFIED, Variant.PIGGYBACK, Variant.NO_APP_STATE, Variant.FULL]

FORMS = ("generator", "sync")


def pumped(app):
    """``app`` behind a plain synchronous main: the pump runs it."""

    def main(ctx):
        return app(ctx)

    return main


def _as(form, app):
    return app if form == "generator" else pumped(app)


def _config(variant, seed=3):
    return RunConfig(
        nprocs=4,
        seed=seed,
        variant=variant,
        checkpoint_interval=0.002,
        detector_timeout=0.05,
    )


def _fingerprint(out):
    """Every deterministic observable of a run (wall clock excluded)."""
    attempts = [
        (
            a.index,
            a.completed,
            a.failed,
            a.dead_ranks,
            a.started_from_epoch,
            repr(a.virtual_time),
            repr(a.kills),
            repr(a.checkpoint_crashes),
            repr(sorted(a.stage_calls.items())),
        )
        for a in out.attempts
    ]
    return (
        repr(out.results),
        repr(out.total_virtual_time),
        out.network_bytes,
        out.network_messages,
        out.checkpoints_committed,
        out.storage_bytes_written,
        repr(attempts),
    )


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("app", sorted(APP_BUILDS))
@pytest.mark.parametrize("kill", [None, 0.004], ids=["clean", "killed"])
def test_sync_generator_parity_sweep(app, variant, kill):
    fps = {}
    for form in FORMS:
        failures = (
            FailureSchedule.single(time=kill, rank=1) if kill is not None else None
        )
        out = run_with_recovery(
            _as(form, APP_BUILDS[app]()), _config(variant), failures=failures
        )
        assert out.completed
        if kill is not None:
            assert out.restarts >= 1, "kill must force at least one restart"
        fps[form] = _fingerprint(out)
    assert fps["sync"] == fps["generator"]


@pytest.fixture
def pumped_apps():
    """``<app>-sync`` registry twins of the campaign apps, removed after."""
    names = {}
    for app in DEFAULT_PARAMS:
        spec = get_app(app)
        names[app] = f"{app}-sync"
        registry.register(
            AppSpec(
                names[app],
                factory=lambda params, _spec=spec: pumped(_spec.build(params)),
                module=__name__,
            )
        )
    try:
        yield names
    finally:
        for name in names.values():
            registry._REGISTRY.pop(name, None)


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_pinned_chaos_schedules_form_parity(name, pumped_apps):
    """The pinned regression interleavings judge identically per form."""
    scenario = REGRESSION_SCENARIOS[name]
    params = dict(DEFAULT_PARAMS)
    params.update({pumped_apps[a]: p for a, p in DEFAULT_PARAMS.items()})
    campaign = CampaignConfig(params=params)
    verdicts = {
        "generator": check_scenario(scenario, campaign),
        "sync": check_scenario(
            replace(scenario, app=pumped_apps[scenario.app]), campaign
        ),
    }
    for form, verdict in verdicts.items():
        assert verdict.ok, f"{name} as a {form} main: {verdict.violations}"
    a, b = verdicts["generator"], verdicts["sync"]
    assert (a.attempts, a.restarts, a.kills_fired, a.crashes_fired) == (
        b.attempts, b.restarts, b.kills_fired, b.crashes_fired
    )
    assert repr(a.virtual_time) == repr(b.virtual_time)
    assert a.checkpoints_committed == b.checkpoints_committed


def test_trace_export_byte_identical_across_forms():
    """Same seed, same kill: the JSONL trace export is the same string."""
    exports = {}
    for form in FORMS:
        tracer = TraceRecorder(capacity=None)  # unbounded: full export
        out = run_with_recovery(
            _as(form, APP_BUILDS["laplace"]()),
            _config(Variant.FULL),
            failures=FailureSchedule.single(time=0.004, rank=1),
            tracer=tracer,
        )
        assert out.completed and out.restarts >= 1
        exports[form] = to_jsonl(tracer.events)
    assert exports["sync"] == exports["generator"]
    assert exports["generator"].count("\n") > 100, "trace export looks empty"
