"""The recovery driver: run → fail → roll back → restart.

The paper's recovery model is global rollback: "if any process fails, all
processes are rolled back to the last checkpoint, and the computation is
restarted from there."  :func:`run_with_recovery` realises it:

1. Execute one simulator attempt.  Every rank builds a fresh protocol layer;
   if a committed global checkpoint exists, the rank restores from it
   (suppression exchange + deterministic replay arming) before re-entering
   the application.
2. If the attempt completes, collect results.
3. If the failure detector fires, the whole attempt is torn down (all ranks
   rolled back) and a new attempt starts from the last *committed*
   checkpoint.  A failure before the first commit restarts from scratch.

Failure schedules are stateful across attempts: a kill event consumed in
attempt *n* does not fire again in attempt *n+1* (the faulty node has been
"replaced"), matching how mean-time-between-failure experiments are run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.api.comms import CommLike, RawCommAdapter
from repro.errors import RecoveryError
from repro.protocol.layer import C3Layer
from repro.runtime.config import RunConfig, Variant
from repro.runtime.context import C3AppContext
from repro.simmpi import coop
from repro.simmpi.failures import CheckpointCrash, FailureSchedule, KillEvent
from repro.simmpi.simulator import SimConfig, SimResult, Simulator
from repro.statesave.storage import Storage
from repro.trace.recorder import TraceRecorder

AppMain = Callable[[C3AppContext], Any]


@dataclass
class AttemptRecord:
    """Outcome of one simulation attempt."""

    index: int
    completed: bool
    failed: bool
    dead_ranks: tuple[int, ...]
    started_from_epoch: Optional[int]
    virtual_time: float
    wall_seconds: float
    #: Failure-schedule events realised *during this attempt* (the
    #: attempt-indexed accounting chaos campaigns and post-mortems read):
    #: time-indexed kills consumed by the scheduler …
    kills: tuple[KillEvent, ...] = ()
    #: … and mid-checkpoint crashes realised by stable storage.
    checkpoint_crashes: tuple[CheckpointCrash, ...] = ()
    #: Per-stage pipeline accounting for *this attempt only*, aggregated
    #: over ranks.  ``RunOutcome.stage_totals()`` sums these across
    #: attempts — each attempt builds fresh layers, so summing never
    #: double-counts.
    stage_calls: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class RunOutcome:
    """Final outcome of a driver run."""

    results: list[Any]
    attempts: list[AttemptRecord] = field(default_factory=list)
    total_wall_seconds: float = 0.0
    total_virtual_time: float = 0.0
    #: Number of checkpoint waves committed *during this run* (commit
    #: events observed on the storage, not the last epoch index — the two
    #: differ whenever the storage carries commits from an earlier run).
    checkpoints_committed: int = 0
    #: Bytes written to stable storage during this run (not cumulative
    #: over a shared/reused storage).
    storage_bytes_written: int = 0
    #: Per-rank protocol layer stats from the final (successful) attempt.
    layer_stats: list[Any] = field(default_factory=list)
    network_bytes: int = 0
    network_messages: int = 0
    #: The run's :class:`~repro.trace.TraceRecorder` when the config armed
    #: tracing (``RunConfig.trace=True``) or the caller supplied one;
    #: ``None`` otherwise.
    trace: Optional[TraceRecorder] = None

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def completed(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].completed

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """Per-stage pipeline overhead, aggregated over ranks *and attempts*.

        ``{stage_name: {"calls": int, "seconds": float}}`` summed from each
        attempt's :class:`AttemptRecord` stage accounting (every attempt
        builds fresh layers, so the sum never double-counts); empty for V0
        (the empty stack dispatches into no stages).  Falls back to the
        final attempt's ``layer_stats`` for outcomes recorded before
        per-attempt accounting existed.
        """
        totals: dict[str, dict[str, float]] = {}
        saw_attempt_stats = False
        for rec in self.attempts:
            calls_map = getattr(rec, "stage_calls", None) or {}
            seconds_map = getattr(rec, "stage_seconds", None) or {}
            if calls_map or seconds_map:
                saw_attempt_stats = True
            for name, calls in calls_map.items():
                entry = totals.setdefault(name, {"calls": 0, "seconds": 0.0})
                entry["calls"] += calls
            for name, seconds in seconds_map.items():
                entry = totals.setdefault(name, {"calls": 0, "seconds": 0.0})
                entry["seconds"] += seconds
        if saw_attempt_stats:
            return totals
        for stats in self.layer_stats:
            if stats is None:
                continue
            for name, calls in getattr(stats, "stage_calls", {}).items():
                entry = totals.setdefault(name, {"calls": 0, "seconds": 0.0})
                entry["calls"] += calls
            for name, seconds in getattr(stats, "stage_seconds", {}).items():
                entry = totals.setdefault(name, {"calls": 0, "seconds": 0.0})
                entry["seconds"] += seconds
        return totals

    def metrics_snapshot(self) -> dict[str, Any]:
        """This outcome rendered under the unified ``repro.metrics/1``
        schema (see :mod:`repro.trace.metrics`)."""
        from repro.trace.metrics import outcome_metrics

        return outcome_metrics(self).snapshot()


def run_with_recovery(
    app_main: AppMain,
    config: RunConfig,
    failures: FailureSchedule | None = None,
    storage: Storage | None = None,
    tracer: Optional[TraceRecorder] = None,
) -> RunOutcome:
    """Execute ``app_main`` under the given variant until it completes.

    ``app_main`` receives a :class:`C3AppContext`.  Returns per-rank results
    plus attempt/overhead accounting.  Raises :class:`RecoveryError` when
    ``config.max_restarts`` is exceeded.

    ``tracer`` arms the :mod:`repro.trace` event bus for this run even when
    the config does not; passing a recorder you own means its events
    survive a raising run (the chaos flight recorder relies on this).
    ``config.trace=True`` builds one sized by ``config.trace_buffer``.
    """
    storage = storage if storage is not None else Storage.from_config(config)
    if tracer is None and config.trace:
        tracer = TraceRecorder(capacity=config.trace_buffer)
    failures = failures if failures is not None else FailureSchedule.none()
    # Mid-checkpoint crashes fire inside the storage write path, not at a
    # scheduling point; the store realises them (torn generation +
    # ProcessKilled) when the doomed rank writes the doomed epoch.  Always
    # (re)assigned so a crash left unfired by an earlier run on a reused
    # storage cannot leak into this one.
    storage.crash_plan = (
        failures if failures.remaining_checkpoint_crashes() else None
    )
    # Resolve the declared stage stack for this run (the V0-V3 mapping, or
    # a custom registered stack named by config.stack).
    spec = config.stack_spec()
    c3cfg = spec.c3_config(config)
    # A stack that omits application state from its checkpoints (V2,
    # "Checkpointing, No Application State") cannot *resume* from one: the
    # protocol window would be mid-run while the application restarts from
    # its entry point, desynchronising replay (log-kind mismatches, served
    # stale early messages, deadlocks).  Such runs measure checkpointing
    # overhead; their only sound recovery is re-execution from scratch.
    can_restore = config.checkpointing_active and c3cfg.save_app_state
    # The empty stack is V0 "Unmodified Program": the pipeline in raw
    # pass-through mode — no piggyback word, no protocol state.
    use_raw = not spec.stages
    outcome = RunOutcome(results=[], trace=tracer)
    wall_start = time.perf_counter()
    commits_at_start = storage.commits
    bytes_at_start = storage.bytes_written
    # The per-attempt layer registry lets us read stats after a run; keyed
    # by rank, reset on every attempt so per-attempt stage accounting never
    # reads a stale layer from an earlier attempt.
    layers: list[Optional[CommLike]] = [None] * config.nprocs
    # Stable storage emits store/commit events for the duration of this run
    # (cleared on exit so a reused storage cannot feed a finished recorder).
    if tracer is not None:
        storage.tracer = tracer

    try:
        outcome = _recovery_loop(
            app_main, config, failures, storage, tracer, outcome, layers,
            spec, c3cfg, can_restore, use_raw,
        )
    finally:
        if tracer is not None:
            storage.tracer = None
    outcome.total_wall_seconds = time.perf_counter() - wall_start
    outcome.checkpoints_committed = storage.commits - commits_at_start
    outcome.storage_bytes_written = storage.bytes_written - bytes_at_start
    return outcome


def _attempt_stage_totals(
    layers: list[Optional[CommLike]],
) -> tuple[dict[str, int], dict[str, float]]:
    """Aggregate one attempt's per-rank stage accounting over ranks."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for layer in layers:
        stats = getattr(layer, "stats", None)
        if stats is None:
            continue
        for name, n in getattr(stats, "stage_calls", {}).items():
            calls[name] = calls.get(name, 0) + n
        for name, secs in getattr(stats, "stage_seconds", {}).items():
            seconds[name] = seconds.get(name, 0.0) + secs
    return calls, seconds


def _recovery_loop(
    app_main: AppMain,
    config: RunConfig,
    failures: FailureSchedule,
    storage: Storage,
    tracer: Optional[TraceRecorder],
    outcome: RunOutcome,
    layers: list[Optional[CommLike]],
    spec: Any,
    c3cfg: Any,
    can_restore: bool,
    use_raw: bool,
) -> RunOutcome:
    attempt_index = 0
    while True:
        failures.begin_attempt(attempt_index)
        kills_before = len(failures.consumed_events())
        crashes_before = len(failures.fired_checkpoint_crashes())
        committed = storage.committed_epoch() if can_restore else None
        layers[:] = [None] * config.nprocs
        if tracer is not None:
            tracer.begin_attempt(attempt_index)
            tracer.emit(
                "recovery", "attempt_begin", t=0.0,
                from_epoch=committed, restarts=attempt_index,
            )

        def rank_main(rank_ctx, _committed=committed):
            # One body for every rank: build the layer and restore on the
            # scheduler thread; only a plain synchronous app call is pumped
            # (``coop.main_task``).
            if use_raw:
                adapter = RawCommAdapter(rank_ctx.comm)
                layers[rank_ctx.rank] = adapter
                rank_ctx.c3 = adapter
                app_ctx = C3AppContext(rank_ctx, adapter)
                return (yield from coop.main_task(app_main, app_ctx))
            layer = C3Layer(rank_ctx.comm, c3cfg, storage, stack=spec)
            layers[rank_ctx.rank] = layer
            rank_ctx.c3 = layer
            restored_state = None
            restored = False
            if _committed is not None:
                data = storage.read_state(rank_ctx.rank, _committed)
                logs = storage.read_log(rank_ctx.rank, _committed)
                yield from layer.co_restore_from(data, logs)
                restored_state = data.app_state
                restored = True
                rank_ctx.restoring = True
            app_ctx = C3AppContext(
                rank_ctx, layer, restored_app_state=restored_state, restored=restored
            )
            return (yield from coop.main_task(app_main, app_ctx))

        sim = Simulator(
            SimConfig(
                nprocs=config.nprocs,
                seed=config.seed + attempt_index,  # fresh interleavings per attempt
                app_seed=config.seed,              # application randomness stable
                sched_policy=config.sched_policy,
                ordering=config.ordering,
                base_delay=config.base_delay,
                jitter=config.jitter,
                detector_timeout=config.detector_timeout,
                cost_model=config.cost_model,
                max_slices=config.max_slices,
            ),
            rank_main,
            failures=failures,
            tracer=tracer,
        )
        try:
            result: SimResult = sim.run()
        except BaseException:
            # Keep the recorder coherent even when the attempt dies on an
            # unexpected exception: the flight recorder reads its events.
            if tracer is not None:
                tracer.end_attempt(sim.clock.now)
            raise
        attempt_calls, attempt_seconds = _attempt_stage_totals(layers)
        outcome.attempts.append(
            AttemptRecord(
                index=attempt_index,
                completed=result.completed,
                failed=result.failed,
                dead_ranks=result.dead_ranks,
                started_from_epoch=committed,
                virtual_time=result.virtual_time,
                wall_seconds=result.wall_seconds,
                kills=failures.consumed_events()[kills_before:],
                checkpoint_crashes=failures.fired_checkpoint_crashes()[
                    crashes_before:
                ],
                stage_calls=attempt_calls,
                stage_seconds=attempt_seconds,
            )
        )
        outcome.total_virtual_time += result.virtual_time
        outcome.network_bytes += result.network.bytes_delivered
        outcome.network_messages += result.network.delivered
        attempt_index += 1
        if tracer is not None:
            tracer.emit(
                "recovery", "attempt_end", t=result.virtual_time,
                completed=result.completed, failed=result.failed,
                dead_ranks=list(result.dead_ranks),
            )
            tracer.end_attempt(result.virtual_time)

        if result.completed:
            outcome.results = result.results
            outcome.layer_stats = [
                layer.stats if layer is not None else None for layer in layers
            ]
            break
        if not result.failed:
            raise RecoveryError("attempt neither completed nor failed — simulator bug")
        if attempt_index > config.max_restarts:
            raise RecoveryError(
                f"exceeded max_restarts={config.max_restarts}; "
                f"last failure killed ranks {result.dead_ranks}"
            )
        # A failure may have torn a checkpoint write mid-flight, leaving
        # chunks with no manifest; reclaim them here, off the hot path.
        sweep = getattr(storage, "sweep_orphans", None)
        if sweep is not None:
            sweep()

    return outcome


def run_variant_suite(
    app_main: AppMain,
    base_config: RunConfig,
    variants: tuple[Variant, ...] = (
        Variant.UNMODIFIED,
        Variant.PIGGYBACK,
        Variant.NO_APP_STATE,
        Variant.FULL,
    ),
    storage_factory: Optional[Callable[[], Storage]] = None,
) -> dict[Variant, RunOutcome]:
    """Run the same application under each variant (the Figure-8 protocol).

    Each variant gets a fresh storage from ``storage_factory`` (in-memory
    by default) so checkpoints from one variant cannot leak into another.

    Prefer :meth:`repro.Session.sweep`, which executes the same cells — in
    parallel, with identical results.
    """
    outcomes: dict[Variant, RunOutcome] = {}
    for variant in variants:
        cfg = replace(base_config, variant=variant)
        if storage_factory is not None:
            storage = storage_factory()
        else:
            # In-memory per variant (never a shared directory), but with
            # the config's ckpt_* knobs honoured.
            storage = Storage.from_config(replace(cfg, storage_path=None))
        outcomes[variant] = run_with_recovery(app_main, cfg, storage=storage)
    return outcomes
