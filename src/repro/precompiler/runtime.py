"""Runtime support for precompiled (transformed) functions.

The paper maintains an explicit Position Stack (PS) and Variable Descriptor
Stack (VDS) because C offers no stack introspection.  Python does, so this
runtime realises the same architecture lazily:

* **PS** — at checkpoint time, :meth:`C3StackRuntime.capture` walks the live
  Python frames of the calling thread; every frame belonging to a
  transformed function contributes ``(function id, frame locals)``.  The
  transformed function's ``_pc`` local *is* the position label: it names the
  basic block whose first statement is the checkpointable call (or the
  ``potential_checkpoint``) currently active in that frame.
* **VDS** — the captured ``f_locals`` dict plays the VDS role; names listed
  in the unit's ``exclude`` set (runtime handles like ``ctx``) are skipped
  and re-supplied naturally by re-executed call expressions during restore.

On restart, each transformed function's prologue calls :func:`c3_enter`;
while a restore is active this pops the next saved frame, re-seeds the
locals and the ``_pc``, and the dispatch loop jumps straight back into the
middle of the function — re-executing the active call, which re-enters the
next function down, until the innermost frame's ``potential_checkpoint``
block is reached and normal execution resumes (the Figure-6 mechanism).

One runtime instance is active per rank, keyed on the simulator's
current-proc registry (a ``threading.local`` off the simulator).
"""

from __future__ import annotations

import sys
import threading
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import RecoveryError
from repro.simmpi import coop

if TYPE_CHECKING:  # pragma: no cover
    from repro.precompiler.api import PrecompiledUnit

#: One saved frame: (function id, locals-dict including '_pc').
FrameRecord = tuple[str, dict[str, Any]]

_tls = threading.local()


def current_runtime() -> Optional["C3StackRuntime"]:
    """The calling rank's active runtime.

    Generator ranks share the scheduler thread, so "which rank is
    executing" is the coop current-proc registry, not the thread (a
    pumped rank's helper thread sets it too); each
    :class:`~repro.simmpi.process.Proc` carries its runtime in its
    ``c3_runtime`` slot.  Calls off the simulator (plain unit-test calls)
    fall back to a thread-local.
    """
    proc = coop.current_proc()
    if proc is not None:
        return proc.c3_runtime
    return getattr(_tls, "runtime", None)


def c3_enter(func_id: str) -> Optional[dict[str, Any]]:
    """Prologue hook of every transformed function.

    Returns the saved frame dict while a restore is in progress, or None
    for a fresh activation.  Calling a transformed function with no active
    runtime is legal (plain execution, no checkpoint ability).
    """
    rt = current_runtime()
    if rt is None or not rt.restoring:
        return None
    return rt._pop_frame(func_id)


class C3StackRuntime:
    """Per-rank stack capture/restore engine."""

    def __init__(self, unit: "PrecompiledUnit") -> None:
        self.unit = unit
        self._restore_stack: list[FrameRecord] = []
        self.restoring = False
        #: Capture/restore cycle counters (observability).
        self.captures = 0
        self.restores = 0

    # ------------------------------------------------------------------ #

    def activate(self) -> "C3StackRuntime":
        """Install as the calling rank's active runtime.

        Inside a simulated rank the runtime lands in that rank's
        ``Proc.c3_runtime`` slot; off the simulator (plain test calls) in
        the thread-local.
        """
        proc = coop.current_proc()
        if proc is not None:
            proc.c3_runtime = self
        else:
            _tls.runtime = self
        return self

    def deactivate(self) -> None:
        proc = coop.current_proc()
        if proc is not None:
            if proc.c3_runtime is self:
                proc.c3_runtime = None
            return
        if getattr(_tls, "runtime", None) is self:
            _tls.runtime = None

    # ------------------------------------------------------------------ #

    def capture(self) -> list[FrameRecord]:
        """Walk the live stack; returns frame records outermost-first.

        Called (indirectly) from inside ``potential_checkpoint`` via the
        protocol layer's state provider, so every transformed frame of the
        current thread is live and its ``_pc`` names the active block.
        """
        self.captures += 1
        exclude = self.unit.exclude_locals
        records: list[FrameRecord] = []
        frame = sys._getframe()
        while frame is not None:
            func_id = self.unit.code_map.get(frame.f_code)
            if func_id is not None:
                locals_copy = {
                    name: value
                    for name, value in frame.f_locals.items()
                    if name not in exclude and name != "_c3fr"
                }
                if "_pc" not in locals_copy:
                    raise RecoveryError(
                        f"transformed frame {func_id} has no _pc — "
                        "capture outside the dispatch loop?"
                    )
                records.append((func_id, locals_copy))
            frame = frame.f_back
        records.reverse()
        return records

    # ------------------------------------------------------------------ #

    def begin_restore(self, frames: list[FrameRecord]) -> None:
        """Arm the restore: the next entries into transformed functions will
        consume these records outermost-first."""
        if not frames:
            self.restoring = False
            return
        self._restore_stack = list(frames)
        self.restoring = True
        self.restores += 1

    def _pop_frame(self, func_id: str) -> dict[str, Any]:
        if not self._restore_stack:
            raise RecoveryError(
                f"restore stack empty but {func_id} still asked for a frame"
            )
        saved_id, saved_locals = self._restore_stack.pop(0)
        if saved_id != func_id:
            raise RecoveryError(
                f"restore mismatch: stack says {saved_id!r}, entering {func_id!r}"
            )
        if not self._restore_stack:
            # Deepest frame reached: restore complete, run free from here.
            self.restoring = False
        return saved_locals
