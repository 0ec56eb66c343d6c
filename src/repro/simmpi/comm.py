"""Communicators: the application-facing MPI interface of the simulator.

A :class:`Comm` binds a rank's :class:`~repro.simmpi.process.Proc` to a
:class:`~repro.simmpi.group.Group` and a context id.  The API mirrors
mpi4py's lowercase object interface (``send``/``recv``/``isend``/``irecv``/
``bcast``/``allreduce``...), with ranks expressed group-locally.

Context ids isolate communicators: a message sent on one communicator can
never match a receive on another.  ``dup``/``split`` derive child contexts
through a simulator-global registry keyed by ``(parent context, child
sequence)`` so every member allocates the *same* child id without any
message exchange, regardless of when each rank reaches the call (MPI
requires communicator construction to be called collectively and in the
same order, which keeps the per-parent sequence numbers aligned).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import MatchError
from repro.simmpi import collectives_impl as coll
from repro.simmpi import coop
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, is_user_tag
from repro.simmpi.group import Group
from repro.simmpi.mailbox import RecvDescriptor
from repro.simmpi.message import Envelope
from repro.simmpi.op import Op
from repro.simmpi.process import Proc
from repro.simmpi.request import RecvRequest, Request, SendRequest
from repro.simmpi.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.simulator import Simulator


class Comm:
    """A communicator bound to one rank of the simulation."""

    def __init__(self, sim: "Simulator", proc: Proc, group: Group, context: int) -> None:
        self.sim = sim
        self.proc = proc
        self.group = group
        self.context = context
        #: The simulation clock, cached: every send/recv charges it.
        self._clock = sim.clock
        self._network = sim.network
        self._coll_seq = 0
        self._child_seq = 0
        self.last_status: Optional[Status] = None

    # ------------------------------------------------------------------ #
    # Identity.
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self.group.rank_of(self.proc.rank)

    @property
    def size(self) -> int:
        """Number of processes in the communicator."""
        return self.group.size

    def wtime(self) -> float:
        """Current virtual time (the MPI_Wtime analogue)."""
        return self.sim.clock.now

    # ------------------------------------------------------------------ #
    # Internal plumbing.
    # ------------------------------------------------------------------ #

    def _world(self, local_rank: int) -> int:
        if local_rank == ANY_SOURCE:
            return ANY_SOURCE
        return self.group.world_rank(local_rank)

    def _local(self, world_rank: int) -> int:
        return self.group.rank_of(world_rank)

    def co_yield_point(self):
        yield from self.sim.scheduler.co_yield_point(self.proc)

    def _co_block_on_recv(self, desc: RecvDescriptor):
        yield from self.sim.scheduler.co_block_on_recv(self.proc, desc)

    def _cancel_recv(self, desc: RecvDescriptor) -> bool:
        return self.proc.mailbox.cancel(desc)

    def _check_send_args(self, dest: int, tag: int) -> None:
        if not 0 <= dest < self.size:
            raise MatchError(f"send dest {dest} out of range for size {self.size}")
        if not is_user_tag(tag) and tag >= 0:
            raise MatchError(f"tag {tag} exceeds MAX_USER_TAG")

    def _post_envelope(
        self, dest_world: int, payload: Any, tag: int, piggyback: Any = None
    ) -> Envelope:
        env = Envelope(
            source=self.proc.rank,
            dest=dest_world,
            tag=tag,
            context=self.context,
            payload=payload,
            piggyback=piggyback,
        )
        clock = self._clock
        clock.charge(clock.cost.message_cost(env.nbytes))
        self._network.post(env, clock.now)
        return env

    # ------------------------------------------------------------------ #
    # Point-to-point.
    # ------------------------------------------------------------------ #

    # Each blocking operation is written once, as a ``co_*`` generator
    # whose yields are its scheduling points; the synchronous method of
    # the same name drives it with ``coop.drive``.  The suspension-free
    # calls (``isend``, ``irecv``, ``iprobe``, ``take_matching``, ``dup``)
    # have no generator form.

    def send(self, payload: Any, dest: int, tag: int = 0, piggyback: Any = None) -> None:
        """Eager-buffered blocking send (returns once the message is posted).

        ``piggyback`` is reserved for the C3 protocol layer; application code
        should never pass it.
        """
        coop.drive(self.co_send(payload, dest, tag, piggyback))

    def co_send(self, payload: Any, dest: int, tag: int = 0, piggyback: Any = None):
        self._check_send_args(dest, tag)
        self._post_envelope(self._world(dest), payload, tag, piggyback)
        yield from self.sim.scheduler.co_yield_point(self.proc)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload.

        The matched message's metadata is available as ``last_status``.
        """
        return self.recv_envelope(source, tag).payload

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        env = yield from self.co_recv_envelope(source, tag)
        return env.payload

    def recv_envelope(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ) -> Envelope:
        """Blocking receive returning the full envelope (piggyback included).

        The C3 protocol layer uses this to read piggybacked words and, during
        recovery replay, to wait for the message with a specific
        ``messageID`` via ``predicate``.
        """
        return coop.drive(self.co_recv_envelope(source, tag, predicate))

    def co_recv_envelope(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ):
        desc = RecvDescriptor(self._world(source), tag, self.context, predicate)
        self.proc.mailbox.post(desc)
        if desc.matched is None:
            yield from self.sim.scheduler.co_block_on_recv(self.proc, desc)
        else:
            # Matching an already-queued message is still a scheduling point;
            # without it, tight recv loops would starve other ranks.
            yield from self.sim.scheduler.co_yield_point(self.proc)
        env = desc.matched
        assert env is not None
        self._clock.charge(self._clock.cost.step)
        self.last_status = Status(
            source=self._local(env.source), tag=env.tag, nbytes=env.nbytes
        )
        return env

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Combined send+receive (deadlock-free under eager sends)."""
        return coop.drive(self.co_sendrecv(payload, dest, recv_source, send_tag, recv_tag))

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ):
        if recv_tag is None:
            recv_tag = send_tag
        self._check_send_args(dest, send_tag)
        self._post_envelope(self._world(dest), payload, send_tag)
        return (yield from self.co_recv(recv_source, recv_tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait until a matching message is queued."""
        return coop.drive(self.co_probe(source, tag))

    def co_probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        while True:
            env = self.proc.mailbox.probe(self._world(source), tag, self.context)
            if env is not None:
                return Status(
                    source=self._local(env.source), tag=env.tag, nbytes=env.nbytes
                )
            yield from self.sim.scheduler.co_yield_point(self.proc)

    def isend(self, payload: Any, dest: int, tag: int = 0, piggyback: Any = None) -> Request:
        """Nonblocking send; the returned request is already complete."""
        self._check_send_args(dest, tag)
        self._post_envelope(self._world(dest), payload, tag, piggyback)
        return SendRequest(self)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Nonblocking receive; complete it with ``req.wait()``/``req.test()``."""
        desc = RecvDescriptor(self._world(source), tag, self.context)
        self.proc.mailbox.post(desc)
        return RecvRequest(self, desc)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe; None if no matching message is queued."""
        env = self.proc.mailbox.probe(self._world(source), tag, self.context)
        if env is None:
            return None
        return Status(source=self._local(env.source), tag=env.tag, nbytes=env.nbytes)

    def take_matching(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ) -> Optional[Envelope]:
        """Nonblocking receive of a queued message (used by the C3 layer to
        drain control traffic without blocking)."""
        return self.proc.mailbox.take(self._world(source), tag, self.context, predicate)

    # ------------------------------------------------------------------ #
    # Collective endpoint interface (see collectives_impl).
    # ------------------------------------------------------------------ #

    @property
    def coll_rank(self) -> int:
        return self.rank

    @property
    def coll_size(self) -> int:
        return self.size

    def coll_next_tag_block(self) -> int:
        from repro.simmpi.constants import TAG_COLLECTIVE_BASE

        base = TAG_COLLECTIVE_BASE - self._coll_seq * coll._TAG_STRIDE
        self._coll_seq += 1
        return base

    def co_coll_send(self, dest: int, payload: Any, tag: int):
        self._post_envelope(self._world(dest), payload, tag)
        yield from self.sim.scheduler.co_yield_point(self.proc)

    def co_coll_recv(self, source: int, tag: int):
        desc = RecvDescriptor(self._world(source), tag, self.context)
        self.proc.mailbox.post(desc)
        if desc.matched is None:
            # Note the asymmetry with co_recv_envelope: an already-matched
            # collective receive is not a scheduling point.
            yield from self.sim.scheduler.co_block_on_recv(self.proc, desc)
        self._clock.charge(self._clock.cost.step)
        return desc.matched.payload

    # ------------------------------------------------------------------ #
    # Collectives.
    # ------------------------------------------------------------------ #

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return coll.bcast(self, obj, root)

    def reduce(self, obj: Any, op: Op, root: int = 0) -> Any:
        return coll.reduce(self, obj, op, root)

    def allreduce(self, obj: Any, op: Op) -> Any:
        return coll.allreduce(self, obj, op)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        return coll.gather(self, obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        return coll.allgather(self, obj)

    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        return coll.scatter(self, objs, root)

    def alltoall(self, objs: list[Any]) -> list[Any]:
        return coll.alltoall(self, objs)

    def barrier(self) -> None:
        coll.barrier(self)

    def scan(self, obj: Any, op: Op) -> Any:
        return coll.scan(self, obj, op)

    # -- generator twins of the collectives ----------------------------- #

    def co_bcast(self, obj: Any, root: int = 0):
        return (yield from coll.co_bcast(self, obj, root))

    def co_reduce(self, obj: Any, op: Op, root: int = 0):
        return (yield from coll.co_reduce(self, obj, op, root))

    def co_allreduce(self, obj: Any, op: Op):
        return (yield from coll.co_allreduce(self, obj, op))

    def co_gather(self, obj: Any, root: int = 0):
        return (yield from coll.co_gather(self, obj, root))

    def co_allgather(self, obj: Any):
        return (yield from coll.co_allgather(self, obj))

    def co_scatter(self, objs: list[Any] | None, root: int = 0):
        return (yield from coll.co_scatter(self, objs, root))

    def co_alltoall(self, objs: list[Any]):
        return (yield from coll.co_alltoall(self, objs))

    def co_barrier(self):
        yield from coll.co_barrier(self)

    def co_scan(self, obj: Any, op: Op):
        return (yield from coll.co_scan(self, obj, op))

    # ------------------------------------------------------------------ #
    # Communicator construction.
    # ------------------------------------------------------------------ #

    def dup(self) -> "Comm":
        """Duplicate this communicator (same group, fresh context)."""
        ctx = self.sim.allocate_context(self.context, self._child_seq)
        self._child_seq += 1
        return Comm(self.sim, self.proc, self.group, ctx)

    def split(self, color: int, key: int | None = None) -> Optional["Comm"]:
        """Split by color/key (collective: every member must call it).

        Returns None for ``color is None`` (the MPI_UNDEFINED analogue).
        Uses an allgather to agree on membership.
        """
        return coop.drive(self.co_split(color, key))

    def co_split(self, color: int, key: int | None = None):
        if key is None:
            key = self.rank
        triples = yield from self.co_allgather((color, key, self.rank))
        child_seq = self._child_seq
        self._child_seq += 1
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        group = Group(tuple(self.group.world_rank(r) for _, r in members))
        ctx = self.sim.allocate_context(self.context, (child_seq, color))
        return Comm(self.sim, self.proc, group, ctx)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Comm(rank={self.rank}/{self.size}, ctx={self.context})"
