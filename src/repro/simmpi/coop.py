"""Simulator-core plumbing: rank bodies, the thread pump, and the
current-proc registry.

The simulator runs every rank as a *generator* resumed by
``Scheduler.grant`` on one thread, the scheduler thread.  Scheduling
points are ``yield`` statements inside shared ``co_*`` generator code; a
``yield`` anywhere down the ``yield from`` chain suspends the whole rank.

A rank main with no generator form (a plain synchronous ``main(ctx)``)
runs behind :func:`pump`, a generator that runs the call on a per-rank
helper thread.  The helper's synchronous MPI calls reach the same
``co_*`` generators through :func:`drive`, which parks the helper in
:func:`thread_suspend` at every ``yield``; the pump then yields on its
behalf.  Exactly one thread is ever runnable (the scheduler thread or
the helper holding the baton), so a pair of plain locks passes control,
and every kill check, trace emission and clock charge happens in the
same order as for a generator main.  The helper gives each sync rank a
real Python stack, which ``sys._getframe``-based state capture walks.

:func:`drive` is the one bridge from synchronous code to a ``co_*``
generator: every synchronous MPI entry point (communicator, collective,
protocol pipeline) is a ``coop.drive(co_…)`` one-liner.

The thread-local **current proc** registry names the rank executing on
the calling thread: ``Scheduler.grant`` sets it on the scheduler thread
around every resume, and the pump sets it once in its helper thread.
Per-rank state (the precompiler's active runtime) is keyed on it.
"""

from __future__ import annotations

import _thread
import inspect
import threading
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.process import Proc

_here = threading.local()


def set_current_proc(proc: Optional["Proc"]) -> None:
    """Install ``proc`` as the rank the calling thread is executing."""
    _here.proc = proc


def current_proc() -> Optional["Proc"]:
    """The rank executing on this thread, if any."""
    return getattr(_here, "proc", None)


def thread_suspend(baton: tuple[Any, Any]) -> None:
    """Park a pumped helper thread until its rank's next slice.

    Lock ping-pong only: every kill check, trace emission and clock
    charge lives inside the ``co_*`` generator being driven, after its
    ``yield``.
    """
    go, back = baton
    back.release()
    go.acquire()


def drive(gen: Generator[None, None, Any]) -> Any:
    """Run a ``co_*`` generator to completion on behalf of a sync caller.

    On a pumped helper thread each ``yield`` parks the helper in
    :func:`thread_suspend`.  On any other thread a synchronous call that
    reaches a real scheduling point is a missing ``co_*`` conversion (the
    scheduler thread cannot park on itself), so the first yield raises
    :class:`SimMPIError`.  Generators that complete without yielding
    (fake in-test comms, already-matched receives) work anywhere, with
    no simulator at all.
    """
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    baton = getattr(_here, "baton", None)
    if baton is None:
        gen.close()
        raise SimMPIError(
            "synchronous MPI call reached a scheduling point on the "
            "scheduler thread; generator mains (and co_call apps) must use "
            "the co_* forms"
        )
    while True:
        thread_suspend(baton)
        try:
            gen.send(None)
        except StopIteration as stop:
            return stop.value


def pump(fn: Callable[..., Any], *args: Any) -> Generator[None, None, Any]:
    """Run the plain call ``fn(*args)`` as a resumable rank body.

    The helper thread starts on the generator's first resume and runs
    while the resuming thread waits; each time the helper parks in
    :func:`thread_suspend` the pump yields, and the next resume hands the
    baton back.  Returns ``fn``'s result, or re-raises what it raised
    (a :class:`~repro.errors.ProcessKilled` included) once the helper
    has exited.
    """
    proc = current_proc()
    go = _thread.allocate_lock()
    go.acquire()
    back = _thread.allocate_lock()
    back.acquire()
    outcome: list[tuple[bool, Any]] = []

    def helper() -> None:
        _here.proc = proc
        _here.baton = (go, back)
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the pump
            outcome.append((False, exc))
        finally:
            back.release()

    name = f"rank-{proc.rank}" if proc is not None else "pump"
    thread = threading.Thread(target=helper, name=name, daemon=True)
    thread.start()
    back.acquire()
    while not outcome:
        yield
        go.release()
        back.acquire()
    thread.join()
    ok, value = outcome[0]
    if ok:
        return value
    raise value


def main_task(main: Callable[..., Any], ctx: Any) -> Generator[None, None, Any]:
    """The generator that runs ``main(ctx)`` as a rank body.

    A generator-capable main (one with a ``co_call`` entry, or a
    generator function) runs on the resuming thread; any other main runs
    behind :func:`pump`.  Returned rather than delegated to, so a rank's
    ``yield from`` chain gains no frame.
    """
    co_call = getattr(main, "co_call", None)
    if co_call is not None:
        return co_call(ctx)
    if inspect.isgeneratorfunction(main):
        return main(ctx)
    return pump(main, ctx)

