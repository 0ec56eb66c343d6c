"""The benchmark's four workloads: inputs from a seed, runs, and oracles.

Every workload runs the paper's full-checkpoint variant V3 and, on the
same inputs, the unmodified program V0.  Inputs -- the ``RunConfig``
seed and, where a workload injects faults, the kill times and ranks --
come from the benchmark seed alone.  Every run is checked: the app's
answer against its reference, V3 against V0, and the run's exact
counters against the first run of the same variant (same seed, so they
must repeat).  A check that fails marks the run failed; nothing is skipped.
"""

from __future__ import annotations

import functools
import gc
import random
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Optional

from repro import RunConfig, Session, Variant
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams, laplace_reference
from repro.simmpi.failures import FailureSchedule, KillEvent
from repro.statesave.storage import Storage

V0, V3 = Variant.UNMODIFIED, Variant.FULL


@dataclass
class Run:
    """One program run and what the benchmark checked about it."""

    variant: Variant
    wall_s: float
    outcome: Any
    #: The checkpoint store's ``(logical_bytes, bytes_written, chunks_reused)``
    #: (the store itself is dropped, so finished runs hold no checkpoints).
    store_counters: tuple = (0, 0, 0)
    #: Why the run failed its checks; ``None`` when it passed them all.
    error: Optional[str] = None

    @property
    def virtual_s(self) -> float:
        return self.outcome.total_virtual_time

    def fingerprint(self) -> tuple:
        """Counters a run with the same inputs must reproduce exactly."""
        control = sum(s.control_messages for s in self.outcome.layer_stats if s is not None)
        return (
            self.outcome.total_virtual_time,
            self.outcome.network_bytes,
            self.outcome.storage_bytes_written,
            control,
            self.outcome.checkpoints_committed,
            len(self.outcome.attempts),
        )


class Workload:
    """One registered app at one size, under V3 and V0."""

    name = ""
    why = ""
    app = ""
    #: Module whose import registers ``app`` (what the set-up probe imports).
    app_module = ""
    #: Kills injected into every V3 run (each after a checkpoint commit).
    kills = 0
    #: Independent seeded kill plans; a round of samples runs V3 once per
    #: plan, so the placement of the kills averages out within one run.
    plans = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.config = self.base_config(self.rng.randrange(2**31))
        self.params = self.base_params()
        self.session = Session()
        self._fingerprints: dict[tuple, tuple] = {}
        self._results: dict[Variant, list] = {}
        #: The failure-free V3 run the kill plans were drawn from, if any.
        self.failure_free: Optional[Run] = None
        self.kill_plans = [self._plan_kills(self.kills) for _ in range(self.plans)]

    def base_config(self, cfg_seed: int) -> RunConfig:
        raise NotImplementedError

    def base_params(self) -> Any:
        raise NotImplementedError

    def check_results(self, results: list) -> Optional[str]:
        """The app-specific oracle; returns what is wrong, or ``None``."""
        raise NotImplementedError

    def extra_checks(self) -> list[Run]:
        """Untimed checked runs made once per benchmark run."""
        return []

    # ------------------------------------------------------------------ #

    def execute(
        self,
        variant: Variant,
        *,
        failures: Optional[FailureSchedule] = None,
        trace: bool = False,
        tracer: Any = None,
        **config_changes: Any,
    ) -> Run:
        """Run once, timed; ``config_changes`` override ``RunConfig`` fields."""
        config = replace(self.config, variant=variant, trace=trace, **config_changes)
        storage = Storage.from_config(config)
        gc.collect()
        if tracer is not None:
            tracer.start()
        t0 = perf_counter()
        try:
            outcome = self.session.run(
                self.app, config, params=self.params, failures=failures, storage=storage
            )
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.stop()
        store = storage.store
        counters = (store.logical_bytes, store.bytes_written, store.chunks_reused)
        return Run(variant, wall, outcome, counters)

    def sample(
        self, variant: Variant, plan: int = 0, *, trace: bool = False, tracer: Any = None
    ) -> Run:
        """One checked run of ``variant``; V3 gets kill plan ``plan``."""
        events = self.kill_plans[plan] if variant is V3 else []
        # A fresh schedule per run: schedules are stateful across attempts.
        failures = FailureSchedule(events) if events else None
        try:
            run = self.execute(variant, failures=failures, trace=trace, tracer=tracer)
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed run
            return Run(variant, 0.0, None, error=f"{type(exc).__name__}: {exc}")
        run.error = self._check(run, events) or self._check_repeat(run, plan)
        return run

    def _check(self, run: Run, kill_events: list[KillEvent]) -> Optional[str]:
        """Completion, the app's oracle, and every planned kill firing."""
        outcome = run.outcome
        if not outcome.completed:
            return "run did not complete"
        wrong = self.check_results(outcome.results)
        if wrong:
            return wrong
        if kill_events:
            fired = [k for a in outcome.attempts for k in a.kills]
            if len(fired) != len(kill_events) or outcome.restarts != len(kill_events):
                return (
                    f"{len(fired)} of {len(kill_events)} planned kills fired, "
                    f"{outcome.restarts} restarts"
                )
            if any(a.started_from_epoch is None for a in outcome.attempts[1:]):
                return "a restart did not resume from a committed checkpoint"
        return None

    def _check_repeat(self, run: Run, plan: int) -> Optional[str]:
        """V3 equals V0; results and exact counters repeat for the seed."""
        results = run.outcome.results
        if results != self._results.setdefault(run.variant, results):
            return "results differ from an earlier run with the same inputs"
        other = V0 if run.variant is V3 else V3
        if other in self._results and results != self._results[other]:
            return "V3 and V0 results differ"
        fingerprint = run.fingerprint()
        if self._fingerprints.setdefault((run.variant, plan), fingerprint) != fingerprint:
            return "exact counters differ from an earlier run with the same seed"
        return None

    # ------------------------------------------------------------------ #
    # Seeded kill plan.
    # ------------------------------------------------------------------ #

    def _plan_kills(self, kills: int) -> list[KillEvent]:
        """Draw one kill per attempt, each after a commit of that attempt.

        Commit times are read from a traced probe run with the kills planned
        so far (the probe is deterministic, so the measured runs see the
        same commits up to each kill; the failure-free probe is shared by
        every plan).  Each kill lands at a seeded point inside the gap after
        the attempt's first commit, so it always fires, always leaves a
        checkpoint to restart from, and every seed kills at the same stage.
        """
        events: list[KillEvent] = []
        for attempt in range(kills):
            if attempt == 0 and self.failure_free is not None:
                commits, end = self._failure_free_commits
            else:
                schedule = FailureSchedule(events) if events else None
                # An unbounded trace buffer: no commit event may be dropped.
                probe = self.execute(V3, failures=schedule, trace=True, trace_buffer=None)
                if not probe.outcome.completed:
                    raise RuntimeError(f"{self.name}: kill-planning probe did not complete")
                offset = sum(a.virtual_time for a in probe.outcome.attempts[:attempt])
                end = probe.outcome.attempts[attempt].virtual_time
                commits = sorted(
                    ev.t - offset
                    for ev in probe.outcome.trace.events
                    if ev.category == "store" and ev.name == "commit" and ev.attempt == attempt
                )
                probe.outcome.trace = None  # read; hold no event log in memory
                if attempt == 0:
                    self.failure_free = probe
                    self._failure_free_commits = commits, end
            if not commits:
                raise RuntimeError(f"{self.name}: attempt {attempt} commits no checkpoint")
            gap_end = commits[1] if len(commits) > 1 else end
            at = commits[0] + self.rng.uniform(0.4, 0.6) * (gap_end - commits[0])
            events.append(KillEvent(at, self.rng.randrange(self.config.nprocs), attempt))
        return events


class CGCollective(Workload):
    name = "cg-collective"
    why = "dense CG at 32 ranks: collectives, message handling and payload sizing dominate"
    app = "dense_cg"
    app_module = "repro.apps.dense_cg"

    def base_config(self, cfg_seed: int) -> RunConfig:
        return RunConfig(nprocs=32, seed=cfg_seed, checkpoint_interval=0.004)

    def base_params(self) -> CGParams:
        return CGParams(n=256, iterations=40)

    def check_results(self, results: list) -> Optional[str]:
        worst = max(r["max_error"] for r in results)
        if not worst <= 1e-6:
            return f"CG solution is off the all-ones vector by {worst:g}"
        return None


class LaplaceCkpt(Workload):
    name = "laplace-ckpt"
    why = "Laplace 512x512 at 8 ranks, frequent waves, zlib chunks: bound by checkpoint writes"
    app = "laplace"
    app_module = "repro.apps.laplace"
    interval = 0.001
    keep_last = 1
    #: Enough iterations for ~16 waves: with ~5, one wave more or less
    #: between seeds moved ``ckpt_bytes`` and ``run_s`` by 17 %.
    iterations = 120

    def base_config(self, cfg_seed: int) -> RunConfig:
        return RunConfig(
            nprocs=8, seed=cfg_seed, checkpoint_interval=self.interval,
            ckpt_codec="zlib", ckpt_chunk_size=2048, ckpt_incremental=True,
            ckpt_keep_last=self.keep_last, detector_timeout=0.005,
        )

    def base_params(self) -> LaplaceParams:
        return LaplaceParams(n=512, iterations=self.iterations)

    @functools.cached_property
    def reference(self):
        return laplace_reference(self.params.n, self.params.iterations)

    def check_results(self, results: list) -> Optional[str]:
        for r in results:
            lo, hi = r["rows"]
            want = self.reference[lo:hi]
            if abs(r["checksum"] - want.sum()) > 1e-9 * abs(want.sum()) or r["max"] != want.max():
                return f"Laplace rows {lo}:{hi} differ from laplace_reference"
        return None


class LaplaceRecover(LaplaceCkpt):
    name = "laplace-recover"
    why = "same Laplace, 6 seeded one-kill plans after a commit: restarts read and replay"
    interval = 0.008
    keep_last = 2
    iterations = 40
    kills = 1
    plans = 6


class RingSync(Workload):
    name = "ring-sync"
    why = "16-rank ring+allreduce plain sync main: threaded core, per-grant handoff, tiny payloads"
    app = "bench_ring"
    app_module = "ringapp"

    def base_config(self, cfg_seed: int) -> RunConfig:
        return RunConfig(
            nprocs=16, seed=cfg_seed, checkpoint_interval=0.003, detector_timeout=0.005,
        )

    def base_params(self) -> int:
        import ringapp

        return ringapp.ITERATIONS

    def check_results(self, results: list) -> Optional[str]:
        if len(set(results)) != 1:
            return "ring ranks disagree on the allreduced sum"
        return None

    def extra_checks(self) -> list[Run]:
        """A V3 run with one seeded kill must equal the failure-free run.

        The timed ring samples stay failure-free, but the ring's recovery is
        still checked on every benchmark run.
        """
        events = self._plan_kills(1)
        try:
            run = self.execute(V3, failures=FailureSchedule(events))
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed run
            return [Run(V3, 0.0, None, error=f"{type(exc).__name__}: {exc}")]
        run.error = self._check(run, events)
        if run.error is None and run.outcome.results != self.failure_free.outcome.results:
            run.error = "recovered ring differs from the failure-free run"
        return [run]


WORKLOADS = {w.name: w for w in (CGCollective, LaplaceCkpt, LaplaceRecover, RingSync)}
