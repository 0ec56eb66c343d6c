"""Layer tracer: per-layer self time that counts only resumed time.

The tracer wraps the public entry points of the ``repro`` modules listed
in :data:`LAYERS` (nothing under ``src/`` changes) and charges every
interval of wall time to exactly one layer: the innermost wrapped call on
the stack of the rank that is running.

Why per-rank stacks.  The simulator runs one rank at a time (a baton, on
either execution core).  A rank suspended inside a layer -- say inside
``CheckpointStage.co_potential_checkpoint`` while it waits for a control
message -- must not be charged while the other ranks run.  Timing a
wrapped call from entry to exit would do exactly that (it is the defect
of the program's own ``stage_seconds``).  Instead each rank owns a layer
stack, ``Scheduler.grant`` switches the *active* stack to the granted
rank for the length of its slice, and the clock is charged to the top of
the active stack only.  A suspended rank's stack is simply not active,
so its layers accrue nothing until it is resumed.

* coop core: every rank is a generator resumed by ``grant`` on the one
  thread; ``repro.simmpi.coop.current_proc()`` names the running rank and
  keys its stack.
* threads core: every rank is a thread; the thread keys its stack, and
  ``grant`` on the scheduler thread switches the active stack to it.

Since every interval between ``start`` and ``stop`` is charged to exactly
one bucket, self times plus the ``other`` bucket (the driver stack's base:
time outside every wrapped layer) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: Base of the driver (main-thread) stack: time no wrapped layer covers.
OTHER = "other"
#: Base of every rank stack: the recovery driver's per-rank body
#: (``rank_main`` building the protocol layer, restoring, calling the app).
RANK_BASE = "runtime"

#: ``(layer, module, owner, names)``: ``owner`` is a class name, a tuple of
#: class names, or ``None`` for module-level functions.  Every name is a
#: public entry point of that module, except where a comment says why.
LAYERS: list[tuple[str, str, Any, tuple[str, ...]]] = [
    # Application code (and the numpy it calls): the app entry points.
    ("apps", "repro.precompiler.api", "PrecompiledApp", ("__call__", "co_call")),
    # Plain ``main(ctx)`` apps are invoked through this adapter; it is the
    # only entry point a registered function app has.
    ("apps", "repro.api.registry", "_FunctionApp", ("__call__",)),
    ("precompiler.capture", "repro.precompiler.runtime", "C3StackRuntime",
     ("capture", "begin_restore")),
    # The simulator's run loop is the scheduler: pick, deliver, advance.
    ("simmpi.scheduler", "repro.simmpi.simulator", "Simulator", ("run",)),
    ("simmpi.scheduler", "repro.simmpi.scheduler", "Scheduler",
     ("yield_point", "block", "block_on_recv", "co_yield_point", "co_block",
      "co_block_on_recv", "wait_first_grant")),
    ("simmpi.scheduler", "repro.simmpi.coop", None, ("thread_suspend",)),
    ("simmpi.detector", "repro.simmpi.failure_detector", "HeartbeatFailureDetector",
     ("heard_from", "mark_completed", "tick")),
    ("simmpi.comm", "repro.simmpi.comm", "Comm",
     ("send", "recv", "recv_envelope", "co_send", "co_recv", "co_recv_envelope",
      "co_sendrecv", "co_probe", "isend", "irecv", "sendrecv", "probe", "iprobe",
      "take_matching", "coll_send", "coll_recv", "co_coll_send", "co_coll_recv",
      "dup", "split", "co_split")),
    ("simmpi.comm", "repro.simmpi.request", ("Request", "SendRequest", "RecvRequest"),
     ("test", "wait", "co_wait", "cancel")),
    ("simmpi.collectives", "repro.simmpi.comm", "Comm",
     ("bcast", "reduce", "allreduce", "gather", "allgather", "scatter", "alltoall",
      "barrier", "scan", "co_bcast", "co_reduce", "co_allreduce", "co_gather",
      "co_allgather", "co_scatter", "co_alltoall", "co_barrier", "co_scan")),
    ("simmpi.collectives", "repro.simmpi.collectives_impl", None,
     ("bcast", "reduce", "allreduce", "gather", "allgather", "scatter", "alltoall",
      "barrier", "scan", "co_bcast", "co_reduce", "co_allreduce", "co_gather",
      "co_allgather", "co_scatter", "co_alltoall", "co_barrier", "co_scan")),
    ("simmpi.network", "repro.simmpi.network", "Network",
     ("post", "pop_due", "next_delivery_time", "mark_dead", "revive_all", "drain")),
    ("simmpi.mailbox", "repro.simmpi.mailbox", "Mailbox",
     ("deliver", "post", "cancel", "probe", "take", "clear")),
    ("simmpi.datatypes", "repro.simmpi.datatypes", None, ("sizeof",)),
    # The pipeline's CommLike surface (V0 runs it in pass-through mode).
    ("protocol.pipeline", "repro.protocol.stages.pipeline", "ProtocolPipeline",
     ("send", "co_send", "isend", "co_isend", "recv", "co_recv", "irecv", "co_irecv",
      "wait", "co_wait", "test", "co_test", "sendrecv", "co_sendrecv", "nondet",
      "co_nondet", "bcast", "co_bcast", "reduce", "co_reduce", "allreduce",
      "co_allreduce", "gather", "co_gather", "allgather", "co_allgather", "scatter",
      "co_scatter", "alltoall", "co_alltoall", "scan", "co_scan", "barrier",
      "co_barrier", "potential_checkpoint", "co_potential_checkpoint", "comm_dup",
      "comm_split", "co_comm_split", "op_create", "restore_from", "co_restore_from")),
    # Stage entry points: exactly the calls the pipeline counts in
    # ``LayerStats.stage_calls``, so call counts can be cross-checked.
    ("protocol.piggyback", "repro.protocol.stages.piggyback", "PiggybackStage",
     ("encode", "blank", "decode")),
    ("protocol.classifier", "repro.protocol.stages.classifier", "ClassifierStage",
     ("classify",)),
    ("protocol.message-log", "repro.protocol.stages.message_log", "MessageLogStage",
     ("co_on_message",)),
    ("protocol.result-log", "repro.protocol.stages.result_log", "ResultLogStage",
     ("record_nondet", "record_collective")),
    ("protocol.replay", "repro.protocol.stages.replay", "ReplayStage",
     ("co_serve_recv", "co_serve_nondet", "serve_collective")),
    ("protocol.checkpoint", "repro.protocol.stages.checkpoint", "CheckpointStage",
     ("co_progress", "co_take_local_checkpoint", "co_potential_checkpoint")),
    ("protocol.snapshot", "repro.protocol.state", "ProtocolState",
     ("snapshot_for_checkpoint",)),
    ("statesave.write_state", "repro.statesave.storage", "Storage", ("write_state",)),
    ("statesave.write_log", "repro.statesave.storage", "Storage", ("write_log",)),
    ("statesave.read_state", "repro.statesave.storage", "Storage", ("read_state",)),
    ("statesave.read_log", "repro.statesave.storage", "Storage", ("read_log",)),
    ("statesave.validate", "repro.statesave.storage", "Storage",
     ("validate_epoch", "committed_epoch")),
    ("statesave.commit", "repro.statesave.storage", "Storage",
     ("commit", "gc", "sweep_orphans")),
    ("ckpt.save", "repro.ckpt.store", "CheckpointStore", ("save",)),
    ("ckpt.load", "repro.ckpt.store", "CheckpointStore", ("load",)),
    ("ckpt.collect", "repro.ckpt.store", "CheckpointStore", ("collect", "sweep_orphans")),
    ("ckpt.digest", "repro.ckpt.delta", None, ("chunk_digest",)),
    ("ckpt.compress", "repro.ckpt.codecs", ("NullCodec", "ZlibCodec", "LzmaCodec"),
     ("encode",)),
    ("ckpt.decompress", "repro.ckpt.codecs", ("NullCodec", "ZlibCodec", "LzmaCodec"),
     ("decode",)),
    ("runtime", "repro.runtime.driver", None, ("run_with_recovery",)),
    ("trace", "repro.trace.recorder", "TraceRecorder", ("emit",)),
]


class _Stack:
    """One execution context's layer stack (a rank, or the driver)."""

    __slots__ = ("frames", "charged")

    def __init__(self, base: str) -> None:
        self.frames = [base]
        #: Wall seconds charged while this stack was the active one.
        self.charged = 0.0


class LayerTracer:
    """Charges wall time to the innermost layer of the running rank."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive resumed time of outermost calls into each layer.
        self.incl_s: dict[str, float] = defaultdict(float)
        #: Top-level calls into each layer that returned (a call made from
        #: inside the same layer is part of the outer call, not a new one;
        #: a call unwound by an exception -- a killed rank -- is not counted,
        #: matching how the pipeline counts ``stage_calls``).
        self.calls: dict[str, int] = defaultdict(int)
        #: Top-level calls per wrapped function, ``"Owner.name"``.
        self.fn_calls: dict[str, int] = defaultdict(int)
        #: ``Scheduler.grant`` calls: scheduling slices handed to ranks.
        self.grants = 0
        self.wall_s = 0.0
        self._stacks: dict[Any, _Stack] = {}
        self._active: Optional[_Stack] = None
        self._last = 0.0
        self._t0 = 0.0
        self._patches: list[tuple[Any, str, Any]] = []
        self._current_proc: Callable[[], Any] = lambda: None

    # ------------------------------------------------------------------ #
    # Accounting.
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Reset the counters and start charging on the calling thread."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.fn_calls.clear()
        self.grants = 0
        self._stacks.clear()
        driver = self._stacks[threading.current_thread()] = _Stack(OTHER)
        self._active = driver
        self._t0 = self._last = perf_counter()

    def stop(self) -> float:
        """Charge the last interval; returns the traced wall time."""
        self._charge()
        self.wall_s = self._last - self._t0
        self._active = None
        return self.wall_s

    def _charge(self) -> None:
        now = perf_counter()
        active = self._active
        if active is not None:
            dt = now - self._last
            self.self_s[active.frames[-1]] += dt
            active.charged += dt
        self._last = now

    def _stack_for(self, key: Any) -> _Stack:
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = _Stack(RANK_BASE)
        return stack

    def _caller_stack(self) -> _Stack:
        proc = self._current_proc()
        return self._stack_for(proc if proc is not None else threading.current_thread())

    def enter(self, layer: str) -> Optional[tuple[_Stack, float]]:
        """Push ``layer`` on the caller's stack; ``None`` for a nested call."""
        if self._active is None:
            return None
        stack = self._caller_stack()
        if layer in stack.frames:
            return None
        self._charge()
        stack.frames.append(layer)
        return stack, stack.charged

    def exit(self, token: tuple[_Stack, float], layer: str, fn_name: Optional[str]) -> None:
        """Pop ``layer``; count the call when ``fn_name`` is given (it returned)."""
        stack, charged_at_entry = token
        self._charge()
        frames = stack.frames
        if frames[-1] == layer:
            frames.pop()
        elif layer in frames:
            # A generator finalised out of order (garbage-collected while
            # suspended): drop its own frame, not whatever is on top.
            del frames[len(frames) - 1 - frames[::-1].index(layer)]
        self.incl_s[layer] += stack.charged - charged_at_entry
        if fn_name is not None:
            self.calls[layer] += 1
            self.fn_calls[fn_name] += 1

    def switch_to(self, stack: _Stack) -> _Stack:
        """Make ``stack`` the charged one; returns the previous one."""
        self._charge()
        previous, self._active = self._active, stack
        return previous

    # ------------------------------------------------------------------ #
    # Wrappers.
    # ------------------------------------------------------------------ #

    def wrap(self, fn: Callable, layer: str, fn_name: str) -> Callable:
        """A wrapper charging ``fn``'s resumed time to ``layer``.

        A generator function gets a generator wrapper: its frame is pushed
        when the generator first runs and popped when it finishes, so the
        layer stays on the stack of the rank that owns it across every
        suspension -- but is charged only while that rank is active.
        """
        enter, leave = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                token = enter(layer)
                if token is None:
                    return (yield from fn(*args, **kwargs))
                try:
                    result = yield from fn(*args, **kwargs)
                except BaseException:
                    leave(token, layer, None)
                    raise
                leave(token, layer, fn_name)
                return result

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = enter(layer)
            if token is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(token, layer, None)
                raise
            leave(token, layer, fn_name)
            return result

        return wrapper

    def _wrap_grant(self, grant: Callable) -> Callable:
        tracer = self

        @functools.wraps(grant)
        def traced_grant(scheduler, proc):
            if tracer._active is None:
                return grant(scheduler, proc)
            tracer.grants += 1
            token = tracer.enter("simmpi.scheduler")
            key = proc if proc.task is not None else proc.thread
            previous = tracer.switch_to(tracer._stack_for(key))
            try:
                return grant(scheduler, proc)
            finally:
                tracer.switch_to(previous)
                if token is not None:
                    tracer.exit(token, "simmpi.scheduler", None)

        return traced_grant

    # ------------------------------------------------------------------ #
    # Installation.
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Patch every entry point in the layer table (idempotent)."""
        if self._patches:
            return
        from repro.simmpi import coop
        from repro.simmpi.scheduler import Scheduler

        self._current_proc = coop.current_proc
        for layer, module_name, owner, names in LAYERS:
            module = importlib.import_module(module_name)
            if owner is None:
                for name in names:
                    self._patch_function(module, name, layer)
                continue
            for cls_name in (owner,) if isinstance(owner, str) else owner:
                cls = getattr(module, cls_name)
                for name in names:
                    original = cls.__dict__.get(name)
                    if not inspect.isfunction(original):
                        continue  # inherited or absent: patched on its definer
                    self._set(cls, name, self.wrap(original, layer, f"{cls_name}.{name}"))
        self._set(Scheduler, "grant", self._wrap_grant(Scheduler.__dict__["grant"]))

    def _patch_function(self, module: Any, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(original, layer, f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        # ``from module import name`` copies the binding: rebind every
        # repro module that holds the same function object.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._current_proc = lambda: None
