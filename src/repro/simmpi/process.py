"""Simulated rank processes.

Each rank runs its application function as a resumable generator, its
``task``, and the scheduler resumes **exactly one** rank at any moment,
which keeps execution fully deterministic.  A plain synchronous main runs
on a helper thread behind the :func:`~repro.simmpi.coop.pump` task, so it
keeps a real Python call stack (which the precompiler's checkpoint
runtime walks with ``sys._getframe``) under the same one-at-a-time rule.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simmpi.mailbox import Mailbox, RecvDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.simulator import Simulator


class ProcState(enum.Enum):
    NEW = "new"            # not yet started
    RUNNABLE = "runnable"  # ready to run
    BLOCKED = "blocked"    # waiting on a receive (or explicit wait)
    DONE = "done"          # main returned normally
    DEAD = "dead"          # stopping fault injected
    ERRORED = "errored"    # main raised an application exception


# Tuple, not frozenset: ``in`` over a 3-tuple of enum members is identity
# comparisons in C, while a set probe routes through Enum.__hash__ (a
# Python-level call) — and ``alive`` runs once per scheduling step.
_FINISHED_STATES = (ProcState.DONE, ProcState.DEAD, ProcState.ERRORED)


class BlockInfo:
    """Why a rank is blocked (for deadlock diagnostics)."""

    def __init__(self, kind: str, desc: Optional[RecvDescriptor] = None, detail: str = ""):
        self.kind = kind
        self.desc = desc
        self.detail = detail

    def __repr__(self) -> str:
        if self.desc is not None:
            return (
                f"{self.kind}(source={self.desc.source}, tag={self.desc.tag}, "
                f"ctx={self.desc.context})"
            )
        return f"{self.kind}({self.detail})"


class Proc:
    """One simulated rank: task, mailbox, and scheduling state."""

    def __init__(self, sim: "Simulator", rank: int, main: Callable[..., Any]) -> None:
        self.sim = sim
        self.rank = rank
        self.main = main
        self._state = ProcState.NEW
        self.mailbox = Mailbox(rank)
        #: The rank's resumable generator, set when the simulator starts.
        self.task: Any = None
        #: Per-rank slot for the precompiler's active checkpoint runtime;
        #: generator ranks share the scheduler thread, so a thread-local
        #: cannot distinguish them.
        self.c3_runtime: Any = None
        self.kill_flag = False
        self.block_info: Optional[BlockInfo] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Number of scheduling slices this rank has received.
        self.slices = 0
        #: Wall-clock seconds this rank spent running (real work measurement).
        self.wall_seconds = 0.0

    @property
    def state(self) -> ProcState:
        return self._state

    @state.setter
    def state(self, value: ProcState) -> None:
        """State transition; keeps the simulator's runnable index current.

        Every transition site in the codebase assigns ``proc.state``, so
        routing the runnable-set bookkeeping through this setter lets the
        scheduler loop read a maintained rank-ordered list instead of
        rescanning all procs each step — the scan was O(nprocs) per
        scheduling point and dominated large-rank-count runs.
        """
        old = self._state
        if value is old:
            return
        self._state = value
        if value is ProcState.RUNNABLE:
            insort(self.sim._runnable_ranks, self.rank)
        elif old is ProcState.RUNNABLE:
            ranks = self.sim._runnable_ranks
            ranks.pop(bisect_left(ranks, self.rank))

    @property
    def alive(self) -> bool:
        return self._state not in _FINISHED_STATES

    @property
    def finished(self) -> bool:
        return self._state in _FINISHED_STATES

    def describe(self) -> str:
        base = f"rank {self.rank}: {self.state.value}"
        if self.state is ProcState.BLOCKED and self.block_info is not None:
            base += f" on {self.block_info!r}"
        return base
