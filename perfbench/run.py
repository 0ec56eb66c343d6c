"""C3 benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cg-collective --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
a V3 run and a V0 run on the seed's inputs until ``--seconds`` have passed
and reports medians.  ``--trace 1`` repeats rounds of an untraced V3 run,
a layer-traced V3 run (:mod:`layers`) and a V3 run with the program's own
``RunConfig(trace=True)``, and reports the per-layer metrics.  Every run is
checked (see :mod:`workloads`); the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The repository's
``src/`` must sit next to this directory; without it the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters per run for the set-up time (its median is reported).
SETUP_REPS = 5
#: V0 runs are repeated within a round until they add up to this many
#: seconds, so a V0 much shorter than V3 still gets a steady median.
MIN_V0_S = 1.0

#: The pipeline stages whose call counts are cross-checked against the
#: program's own ``stage_calls``.
STAGES = ("piggyback", "classifier", "message-log", "result-log", "replay", "checkpoint")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def setup_probes(workload) -> list[dict]:
    """Set-up times of the workload's app, each in a fresh interpreter."""
    probes = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload.app, workload.app_module],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def overhead_pct(v3: float, v0: float) -> float:
    return 100.0 * (v3 - v0) / v0 if v0 else 0.0


def end_to_end(workload, seconds: float) -> tuple[dict, list]:
    """Rounds of one V3 run per kill plan plus V0 runs, until time is up."""
    from workloads import V0, V3

    runs, rounds = [], []
    deadline = perf_counter() + seconds
    while True:
        v3 = [workload.sample(V3, plan) for plan in range(workload.plans)]
        v0 = [workload.sample(V0)]
        while sum(r.wall_s for r in v0) < MIN_V0_S and v0[-1].error is None:
            v0.append(workload.sample(V0))
        runs += v3 + v0
        rounds.append((v3, v0))
        if perf_counter() >= deadline:
            break
    good = [(v3, v0) for v3, v0 in rounds if all(r.error is None for r in v3 + v0)]
    if not good:
        return {}, runs
    # Per-plan exact counters repeat across rounds; average over the plans.
    v3_first, (v0_first, *_) = good[0]
    plans = len(v3_first)
    v3_vs = sum(r.virtual_s for r in v3_first) / plans
    metrics = {
        "run_s": median(sum(r.wall_s for r in v3) / plans for v3, _ in good),
        "v0_run_s": median(r.wall_s for _, v0 in good for r in v0),
        "overhead_vt_pct": overhead_pct(v3_vs, v0_first.virtual_s),
        "virtual_s": v3_vs,
        "ckpt_bytes": sum(r.outcome.storage_bytes_written for r in v3_first) / plans,
        "net_bytes": sum(r.outcome.network_bytes for r in v3_first) / plans,
    }
    return metrics, runs


def layer_snapshot(tracer, traced, plain, workload) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced run, plus what failed the cross-checks."""
    self_s, calls, incl = tracer.self_s, tracer.calls, tracer.incl_s
    outcome = traced.outcome
    stats = [s for s in outcome.layer_stats if s is not None]
    logical, stored, reused = traced.store_counters
    snap = {
        "apps.compute_s": self_s["apps"],
        "precompiler.capture_s": self_s["precompiler.capture"],
        "simmpi.scheduler.grants": tracer.grants,
        "simmpi.scheduler.self_s": self_s["simmpi.scheduler"],
        "simmpi.detector.self_s": self_s["simmpi.detector"],
        "simmpi.datatypes.sizeof_calls": calls["simmpi.datatypes"],
        "simmpi.datatypes.sizeof_s": self_s["simmpi.datatypes"],
        "simmpi.network.posts": tracer.fn_calls["Network.post"],
        "simmpi.network.self_s": self_s["simmpi.network"],
        "simmpi.mailbox.self_s": self_s["simmpi.mailbox"],
        "simmpi.collectives.calls": calls["simmpi.collectives"],
        "simmpi.collectives.self_s": self_s["simmpi.collectives"],
        "simmpi.comm.self_s": self_s["simmpi.comm"],
        "protocol.pipeline.self_s": self_s["protocol.pipeline"],
        "protocol.snapshot_s": self_s["protocol.snapshot"],
        "protocol.control_messages": sum(s.control_messages for s in stats),
        "protocol.late_logged": sum(s.late_logged for s in stats),
        "protocol.early_recorded": sum(s.early_recorded for s in stats),
        "protocol.replayed_late": sum(s.replayed_late for s in stats),
        "statesave.write_state_s": incl["statesave.write_state"],
        "statesave.write_log_s": incl["statesave.write_log"],
        "statesave.read_state_s": incl["statesave.read_state"],
        "statesave.read_log_s": incl["statesave.read_log"],
        "statesave.validate_s": incl["statesave.validate"],
        "statesave.commits": outcome.checkpoints_committed,
        "ckpt.save_s": self_s["ckpt.save"],
        "ckpt.digest_s": self_s["ckpt.digest"],
        "ckpt.compress_s": self_s["ckpt.compress"],
        "ckpt.collect_s": self_s["ckpt.collect"],
        "ckpt.load_s": self_s["ckpt.load"],
        "ckpt.decompress_s": self_s["ckpt.decompress"],
        "ckpt.logical_bytes": logical,
        "ckpt.stored_bytes": stored,
        "ckpt.chunks_reused": reused,
        "ckpt.stored_over_logical": stored / logical if logical else 0.0,
        "runtime.self_s": self_s["runtime"],
        "runtime.attempts": len(outcome.attempts),
        "other.self_s": self_s["other"],
        "bench.layer_sum_over_wall": sum(self_s.values()) / traced.wall_s,
    }
    errors = []
    counted = outcome.stage_totals()
    for stage in STAGES:
        traced_calls = calls[f"protocol.{stage}"]
        snap[f"protocol.{stage}.calls"] = traced_calls
        snap[f"protocol.{stage}.self_s"] = self_s[f"protocol.{stage}"]
        program_calls = counted.get(stage, {}).get("calls", 0)
        if traced_calls != program_calls:
            errors.append(f"{stage}: traced {traced_calls} calls, program counted {program_calls}")
    if abs(snap["bench.layer_sum_over_wall"] - 1.0) > 0.03:
        errors.append(f"layer self times sum to {snap['bench.layer_sum_over_wall']:.3f} of wall")
    # Measured on the untraced run: the program's stage timers and the
    # driver's own attempt accounting.
    p = plain.outcome
    stage_s = sum(entry["seconds"] for entry in p.stage_totals().values())
    snap["protocol.reported_stage_s_over_wall"] = stage_s / p.total_wall_seconds
    snap["runtime.restart_s"] = p.total_wall_seconds - sum(a.wall_seconds for a in p.attempts)
    snap["runtime.recover_s"] = (
        p.total_wall_seconds - p.attempts[0].wall_seconds if p.restarts else 0.0
    )
    base = workload.failure_free.virtual_s if workload.failure_free else plain.virtual_s
    snap["runtime.reexec_vs"] = plain.virtual_s - base
    return snap, errors


def per_layer(workload, seconds: float) -> tuple[dict, list]:
    from layers import LayerTracer
    from workloads import V3

    tracer = LayerTracer()
    runs, snaps = [], []
    plain_walls, traced_walls, program_walls = [], [], []
    deadline = perf_counter() + seconds
    for round_index in itertools.count():
        plan = round_index % workload.plans
        plain = workload.sample(V3, plan)
        tracer.install()
        try:
            traced = workload.sample(V3, plan, tracer=tracer)
        finally:
            tracer.uninstall()
        program = workload.sample(V3, plan, trace=True)
        runs += [plain, traced, program]
        if plain.error is None and traced.error is None:
            snap, errors = layer_snapshot(tracer, traced, plain, workload)
            if errors:
                traced.error = "; ".join(errors)
            else:
                snaps.append(snap)
                plain_walls.append(plain.wall_s)
                traced_walls.append(traced.wall_s)
                if program.error is None:
                    program_walls.append(program.wall_s)
        if perf_counter() >= deadline:
            break
    metrics = {}
    for name in snaps[0] if snaps else ():
        metrics[name] = median(s[name] for s in snaps)
    plain_wall = median(plain_walls)
    if plain_wall:
        metrics["bench.trace_overhead_pct"] = overhead_pct(median(traced_walls), plain_wall)
        metrics["trace.on_overhead_pct"] = overhead_pct(median(program_walls), plain_wall)
    return metrics, runs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_repro()
    sys.path.insert(0, HERE)
    # The simulator runs one rank at a time; on one CPU the threaded core's
    # baton handoffs skip cross-CPU wake-ups, which otherwise vary run times
    # twofold from run to run.  Set-up probes inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    probes = setup_probes(workload_cls)
    workload = workload_cls(args.seed)
    checks = workload.extra_checks()
    if args.trace:
        values, runs = per_layer(workload, args.seconds)
        values["setup.import_s"] = median(p["import_s"] for p in probes)
        values["precompiler.build_s"] = median(p["build_s"] for p in probes)
        values["check.check_app_s"] = median(p["check_s"] for p in probes)
        units = LAYER_UNITS
    else:
        values, runs = end_to_end(workload, args.seconds)
        values["setup_s"] = median(p["import_s"] + p["build_s"] + p["check_s"] for p in probes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    # A metric with no value is one whose runs all failed; ``failed`` says so.
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    runs += checks
    failed = [r for r in runs if r.error is not None]
    failed_setup = sum(not p["check_ok"] for p in probes)
    for r in failed:
        print(f"FAILED {r.variant.name}: {r.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    attempted = len(runs) + len(probes)
    print(json.dumps({
        "correct": not failed and not failed_setup,
        "attempted": attempted,
        "failed": len(failed) + failed_setup,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


E2E_UNITS = {
    "run_s": "s",
    "v0_run_s": "s",
    "overhead_vt_pct": "%",
    "virtual_s": "s",
    "ckpt_bytes": "B",
    "net_bytes": "B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "apps.compute_s": "s",
    "precompiler.capture_s": "s",
    "simmpi.scheduler.grants": "count",
    "simmpi.scheduler.self_s": "s",
    "simmpi.detector.self_s": "s",
    "simmpi.datatypes.sizeof_calls": "count",
    "simmpi.datatypes.sizeof_s": "s",
    "simmpi.network.posts": "count",
    "simmpi.network.self_s": "s",
    "simmpi.mailbox.self_s": "s",
    "simmpi.collectives.calls": "count",
    "simmpi.collectives.self_s": "s",
    "simmpi.comm.self_s": "s",
    "protocol.pipeline.self_s": "s",
    **{f"protocol.{stage}.{kind}": unit for stage in STAGES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "protocol.snapshot_s": "s",
    "protocol.control_messages": "count",
    "protocol.late_logged": "count",
    "protocol.early_recorded": "count",
    "protocol.replayed_late": "count",
    "protocol.reported_stage_s_over_wall": "ratio",
    "statesave.write_state_s": "s",
    "statesave.write_log_s": "s",
    "statesave.commits": "count",
    "statesave.read_state_s": "s",
    "statesave.read_log_s": "s",
    "statesave.validate_s": "s",
    "ckpt.save_s": "s",
    "ckpt.digest_s": "s",
    "ckpt.compress_s": "s",
    "ckpt.collect_s": "s",
    "ckpt.load_s": "s",
    "ckpt.decompress_s": "s",
    "ckpt.logical_bytes": "B",
    "ckpt.stored_bytes": "B",
    "ckpt.chunks_reused": "count",
    "ckpt.stored_over_logical": "ratio",
    "runtime.attempts": "count",
    "runtime.restart_s": "s",
    "runtime.recover_s": "s",
    "runtime.reexec_vs": "s",
    "runtime.self_s": "s",
    "setup.import_s": "s",
    "precompiler.build_s": "s",
    "check.check_app_s": "s",
    "trace.on_overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.layer_sum_over_wall": "ratio",
    "other.self_s": "s",
}


if __name__ == "__main__":
    main()
