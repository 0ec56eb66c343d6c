"""The protocol pipeline: a stage stack behind the ``CommLike`` surface.

:class:`ProtocolPipeline` is the engine that used to be the monolithic
``C3Layer``: it owns the shared protocol state (Figure 4's variables,
the epoch logs, pseudo-handle tables, per-communicator collective
sequence numbers) and threads every ``CommLike`` call through the
single-responsibility stages of this package.  Which concerns are active
is decided purely by which stages are present:

* the **empty stack** is the paper's V0 "Unmodified Program": every call
  is a raw pass-through over the underlying communicator — the same code
  path :class:`repro.api.comms.RawCommAdapter` exposes;
* any other stack contains the five protocol stages (``piggyback``/
  ``classifier``/``message-log``/``result-log``/``replay``, V1's stack)
  and runs the full Figure-4 event handler; adding ``checkpoint``
  enables waves — the paper's V2/V3.  Extra observer stages may ride
  along in any non-empty stack.

Per-stage dispatch is counted and timed into
``LayerStats.stage_calls`` / ``stage_seconds``, giving the per-stage
overhead accounting the flat layer could not.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigError, ProtocolError, RecoveryError
from repro.protocol import control as ctl
from repro.protocol.logs import EpochLogs
from repro.protocol.mpi_state import HandleRegistry, MpiStateLog
from repro.protocol.piggyback import get_codec
from repro.protocol.pseudo_handles import PseudoHandle, RequestTable
from repro.protocol.stages.base import C3Config, LayerStats, ProtocolStage
from repro.protocol.stages.registry import PROTOCOL_STAGES
from repro.protocol.state import ProtocolState
from repro.simmpi import collectives_impl as coll_impl
from repro.simmpi import coop
from repro.simmpi.comm import Comm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, TAG_CONTROL
from repro.simmpi.op import Op
from repro.simmpi.request import RecvRequest
from repro.statesave.format import CheckpointData

#: Base of the tag region used by pipeline-level collective instances.  Raw
#: communicator collectives use the -1000 region; keeping the pipeline in
#: its own region means a V0 (uninstrumented) app and the pipeline can
#: never clash.
LAYER_COLL_BASE = -10_000_000

#: Tag block used by the one-shot suppression exchange at restart.
RESTORE_BASE = -1_000_000_000

#: Pseudo-handle id denoting the world communicator.
WORLD_HANDLE = -1

class RawHandle:
    """Opaque handle over a raw communicator or op (the V0 analogue of a
    pseudo-handle: same ``handle_id`` surface, no record/replay)."""

    __slots__ = ("kind", "handle_id", "_live")

    def __init__(self, kind: str, handle_id: int, live: Any) -> None:
        self.kind = kind
        self.handle_id = handle_id
        self._live = live

    def __repr__(self) -> str:  # pragma: no cover
        return f"RawHandle(kind={self.kind!r}, id={self.handle_id})"


class ProtocolPipeline:
    """Per-process protocol engine: shared state + a stage stack."""

    def __init__(
        self,
        comm: Comm,
        stages: Sequence[ProtocolStage] = (),
        config: Optional[C3Config] = None,
        storage: Any = None,
        state_provider: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.comm = comm
        self.config = config if config is not None else C3Config()
        self.storage = storage
        self.state_provider = state_provider
        self.codec = get_codec(self.config.codec)
        self.rank = comm.rank
        self.nprocs = comm.size
        #: The simulator's repro.trace recorder, when armed (None otherwise;
        #: every emit site below guards on that, so tracing off costs one
        #: attribute read per traced operation).
        self.tracer = getattr(getattr(comm, "sim", None), "tracer", None)
        self.state = ProtocolState(rank=self.rank, nprocs=self.nprocs)
        self.logs = EpochLogs(epoch=0)
        self.replay: Optional[EpochLogs] = None
        self._replay_done_sent = False
        self.suppress: dict[int, set[int]] = {}
        self.requests = RequestTable()
        self.mpi_log = MpiStateLog()
        self.handles = HandleRegistry()
        #: Creation-replay cursor (see _creation_replay); None == disabled
        #: (fresh start or precompiled resume), set to 0 by restore_from.
        self._creation_cursor: Optional[int] = None
        #: Per-communicator collective call sequence (world = WORLD_HANDLE).
        self.coll_seqs: dict[int, int] = {WORLD_HANDLE: 0}
        self.stats = LayerStats()
        #: Set by the checkpoint stage at bind time (initiator rank only).
        self.initiator = None
        #: Hook invoked right after a local checkpoint is written (tests).
        self.on_checkpoint: Optional[Callable[[CheckpointData], None]] = None
        #: Raw-handle table (empty-stack mode).
        self._handles: dict[int, RawHandle] = {}
        self._next_handle_id = 0

        # -- stage stack ------------------------------------------------ #
        self.stages: list[ProtocolStage] = list(stages)
        by_name: dict[str, ProtocolStage] = {}
        for stage in self.stages:
            if stage.name in by_name:
                raise ConfigError(f"duplicate stage {stage.name!r} in stack")
            by_name[stage.name] = stage
        # The empty stack is V0; every other stack runs the full protocol
        # (the paper has no build that piggybacks without it).
        missing = [n for n in PROTOCOL_STAGES if n not in by_name] if by_name else []
        if missing:
            raise ConfigError(
                f"stack {[s.name for s in self.stages]} requires stages {missing}: "
                "a non-empty stack runs the full protocol"
            )
        self.stage_by_name = by_name
        self.pb = by_name.get("piggyback")
        self.clf = by_name.get("classifier")
        self.msg_log = by_name.get("message-log")
        self.res_log = by_name.get("result-log")
        self.rep = by_name.get("replay")
        self.ckpt = by_name.get("checkpoint")
        self._raw = not self.stages
        if self.ckpt is not None and storage is None:
            raise ConfigError("a checkpoint stage requires a storage")
        self.stats.stage_calls = {s.name: 0 for s in self.stages}
        self.stats.stage_seconds = {s.name: 0.0 for s in self.stages}
        for stage in self.stages:
            stage.bind(self)
        # Generic observer hooks: dispatched only when overridden, so the
        # built-in stacks pay nothing for them.
        self._send_observers = [
            s for s in self.stages if type(s).on_send is not ProtocolStage.on_send
        ]
        self._recv_observers = [
            s for s in self.stages if type(s).on_receive is not ProtocolStage.on_receive
        ]

    # ------------------------------------------------------------------ #
    # Per-stage accounting.
    # ------------------------------------------------------------------ #

    def _charge(self, name: str, t0: float) -> None:
        self.stats.stage_calls[name] += 1
        self.stats.stage_seconds[name] += perf_counter() - t0

    # ------------------------------------------------------------------ #
    # Generator plumbing.
    #
    # Every CommLike operation below is written ONCE, as a ``co_*``
    # generator whose yields are the scheduling points; the synchronous
    # method of the same name just drives that generator with
    # ``coop.drive`` (a yield parks the pumped helper thread of a
    # synchronous main).  The underlying communicator is always a
    # :class:`~repro.simmpi.comm.Comm`, so its ``co_*`` forms are called
    # directly.
    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # Control plane (shared by the checkpoint and replay stages).
    # ------------------------------------------------------------------ #

    def _co_send_control(self, msg: ctl.ControlMessage, dest: int):
        if dest == self.rank:
            yield from self._co_handle_control(msg, self.rank)
        else:
            yield from self.comm.co_send(msg, dest, TAG_CONTROL)

    def _co_handle_control(self, msg: ctl.ControlMessage, source: int):
        if self.ckpt is None:
            raise ProtocolError(
                f"rank {self.rank}: control message {msg!r} but the stack "
                "has no checkpoint stage"
            )
        yield from self.ckpt.co_handle_control(msg, source)

    def _co_progress(self):
        """Drain control traffic and poll the initiator (checkpoint stage)."""
        if self.ckpt is None:
            return
        t0 = perf_counter()
        yield from self.ckpt.co_progress()
        self._charge("checkpoint", t0)

    def _co_finalize_log(self):
        if self.ckpt is not None:
            yield from self.ckpt.co_finalize_log()

    def _co_received_all_check(self):
        if self.ckpt is not None:
            yield from self.ckpt.co_received_all_check()

    # ------------------------------------------------------------------ #
    # Raw-mode helpers (empty stack — the V0 pass-through).
    # ------------------------------------------------------------------ #

    def _new_handle(self, kind: str, live: Any) -> RawHandle:
        handle = RawHandle(kind, self._next_handle_id, live)
        self._next_handle_id += 1
        self._handles[handle.handle_id] = handle
        return handle

    def _resolve(self, handle: Any) -> Comm:
        if handle is None:
            return self.comm
        live = getattr(handle, "_live", None)
        if not isinstance(live, Comm):
            raise ProtocolError(f"not a communicator handle: {handle!r}")
        return live

    # ------------------------------------------------------------------ #
    # Send path.
    # ------------------------------------------------------------------ #

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Application blocking send with piggybacked protocol data."""
        coop.drive(self.co_send(payload, dest, tag))

    def co_send(self, payload: Any, dest: int, tag: int = 0):
        if self._raw:
            self.stats.sends += 1
            yield from self.comm.co_send(payload, dest, tag)
            return
        yield from self._co_progress()
        self.stats.sends += 1
        for stage in self._send_observers:
            t0 = perf_counter()
            stage.on_send(payload, dest, tag)
            self._charge(stage.name, t0)
        message_id = self.state.note_send(dest)
        tr = self.tracer
        if self.rep.is_suppressed(dest, message_id):
            # Early-message resend suppression (Section 4.2 question 3):
            # the receiver's checkpoint already contains this message, so it
            # must not be re-posted; bookkeeping still advances so that
            # subsequent IDs and the next wave's counts line up.
            self.stats.suppressed_sends += 1
            if tr is not None:
                tr.emit(
                    "proto", "suppress_send", rank=self.rank,
                    epoch=self.state.epoch, dest=dest, mid=message_id,
                )
            return
        if tr is not None:
            tr.emit(
                "proto", "send", rank=self.rank, epoch=self.state.epoch,
                dest=dest, mid=message_id, logging=self.state.am_logging,
            )
        t0 = perf_counter()
        wire = self.pb.encode(self.state.epoch, self.state.am_logging, message_id)
        self._charge("piggyback", t0)
        yield from self.comm.co_send(payload, dest, tag, wire)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Any:
        """Nonblocking send; returns a pseudo-request (Section 5.2) on a
        staged stack, a raw request on the empty stack."""
        return coop.drive(self.co_isend(payload, dest, tag))

    def co_isend(self, payload: Any, dest: int, tag: int = 0):
        # The underlying isend never suspends (eager sends); the scheduling
        # points here are the progress drain only.
        if self._raw:
            self.stats.sends += 1
            return self.comm.isend(payload, dest, tag)
        yield from self._co_progress()
        self.stats.sends += 1
        for stage in self._send_observers:
            t0 = perf_counter()
            stage.on_send(payload, dest, tag)
            self._charge(stage.name, t0)
        req = self.requests.new("isend", dest=dest, tag=tag)
        message_id = self.state.note_send(dest)
        tr = self.tracer
        if self.rep.is_suppressed(dest, message_id):
            self.stats.suppressed_sends += 1
            if tr is not None:
                tr.emit(
                    "proto", "suppress_send", rank=self.rank,
                    epoch=self.state.epoch, dest=dest, mid=message_id,
                )
            return req
        if tr is not None:
            tr.emit(
                "proto", "send", rank=self.rank, epoch=self.state.epoch,
                dest=dest, mid=message_id, logging=self.state.am_logging,
            )
        t0 = perf_counter()
        wire = self.pb.encode(self.state.epoch, self.state.am_logging, message_id)
        self._charge("piggyback", t0)
        self.comm.isend(payload, dest, tag, piggyback=wire)
        return req

    # ------------------------------------------------------------------ #
    # Receive path.
    # ------------------------------------------------------------------ #

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Application blocking receive."""
        return coop.drive(self.co_recv(source, tag))

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        if self._raw:
            self.stats.receives += 1
            return (yield from self.comm.co_recv(source, tag))
        yield from self._co_progress()
        self.stats.receives += 1
        if self.replay is not None and not self.replay.matches.exhausted:
            return (yield from self._co_replay_recv())
        env = yield from self.comm.co_recv_envelope(source, tag)
        return (yield from self._co_classify_and_deliver(env))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Nonblocking receive pseudo-request (raw request on empty stack)."""
        return coop.drive(self.co_irecv(source, tag))

    def co_irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        # Posting the receive never suspends; only the progress drain does.
        if self._raw:
            return self.comm.irecv(source, tag)
        yield from self._co_progress()
        req = self.requests.new("irecv", source=source, tag=tag)
        if self.replay is not None:
            # During replay, completion is resolved through the match log at
            # wait time; posting a raw receive could steal messages that the
            # replay engine must route by messageID.
            return req
        req._live = self.comm.irecv(source, tag)
        return req

    def wait(self, req: Any) -> Any:
        """Complete a pseudo-request (the MPI_Wait analogue)."""
        return coop.drive(self.co_wait(req))

    def co_wait(self, req: Any):
        if self._raw:
            # Every completed receive counts once, at its wait, as on the
            # staged stacks (even when a test() already completed it).
            if isinstance(req, RecvRequest):
                self.stats.receives += 1
            return (yield from req.co_wait())
        yield from self._co_progress()
        if req.consumed:
            raise ProtocolError("wait() on an already-completed pseudo-request")
        if req.kind == "isend":
            # Paper rule: a restored (or live, under the eager model) isend
            # request completes immediately — the message is in the
            # receiver's checkpoint or its late-message log.
            self.requests.retire(req)
            yield from self.comm.co_yield_point()
            return None
        # irecv:
        if req.has_payload:
            payload = req.payload
            self.requests.retire(req)
            return payload
        if req._live is None:
            # Restored-unmatched or replay-posted: resolve like a fresh recv
            # (paper rule: match the late log, else re-post the receive).
            self.stats.receives += 1
            if self.replay is not None and not self.replay.matches.exhausted:
                payload = yield from self._co_replay_recv()
            else:
                env = yield from self.comm.co_recv_envelope(req.source, req.tag)
                payload = yield from self._co_classify_and_deliver(env)
            self.requests.retire(req)
            return payload
        self.stats.receives += 1
        yield from req._live.co_wait()
        env = req._live._desc.matched
        self.requests.retire(req)
        return (yield from self._co_classify_and_deliver(env))

    def test(self, req: Any) -> bool:
        """Completion check for a pseudo-request (raw request on the empty
        stack); an incomplete check is a scheduling point."""
        return coop.drive(self.co_test(req))

    def co_test(self, req: Any):
        if self._raw:
            done = req.test()
        else:
            yield from self._co_progress()
            if req.kind == "isend" or req.has_payload:
                return True
            if req._live is None:
                # Replay-resolved requests are only completed by wait().
                done = self.replay is not None and not self.replay.matches.exhausted
            else:
                done = req._live.test()
        if not done:
            # An incomplete test is a scheduling point (as in waitany), so
            # a ``while not test(req)`` polling loop lets the sender run.
            yield from self.comm.co_yield_point()
        return done

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Combined exchange built from the pipeline's own send + recv."""
        return coop.drive(
            self.co_sendrecv(payload, dest, recv_source, send_tag, recv_tag)
        )

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ):
        if self._raw:
            self.stats.sends += 1
            self.stats.receives += 1
            return (
                yield from self.comm.co_sendrecv(
                    payload, dest, recv_source, send_tag, recv_tag
                )
            )
        if recv_tag is None:
            recv_tag = send_tag
        yield from self.co_send(payload, dest, send_tag)
        return (yield from self.co_recv(recv_source, recv_tag))

    # ------------------------------------------------------------------ #

    def _classify_and_deliver(self, env) -> Any:
        """Figure 4's communicationEventHandler for one arrived message."""
        return coop.drive(self._co_classify_and_deliver(env))

    def _co_classify_and_deliver(self, env):
        t0 = perf_counter()
        info = self.pb.decode(env)
        self._charge("piggyback", t0)
        t0 = perf_counter()
        mclass = self.clf.classify(info)
        self._charge("classifier", t0)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "proto", "classify", rank=self.rank, epoch=self.state.epoch,
                source=env.source, cls=mclass.name.lower(), mid=info.message_id,
            )
        t0 = perf_counter()
        yield from self.msg_log.co_on_message(env, info, mclass)
        self._charge("message-log", t0)
        for stage in self._recv_observers:
            t0 = perf_counter()
            stage.on_receive(env)
            self._charge(stage.name, t0)
        return env.payload

    def _co_replay_recv(self):
        """Serve one receive deterministically from the match log."""
        t0 = perf_counter()
        payload = yield from self.rep.co_serve_recv()
        self._charge("replay", t0)
        return payload

    # ------------------------------------------------------------------ #
    # Non-determinism (Section 3.2 / Figure 4 phase 2).
    # ------------------------------------------------------------------ #

    def nondet(self, compute: Callable[[], Any]) -> Any:
        """Execute a non-deterministic decision under protocol control.

        While logging, the result is recorded; during recovery replay, the
        recorded result is returned instead of re-computing, so the replayed
        execution is identical to the one peers' checkpoints observed.
        """
        return coop.drive(self.co_nondet(compute))

    def co_nondet(self, compute: Callable[[], Any]):
        if self._raw:
            return compute()
        yield from self._co_progress()
        if self.replay is not None and not self.replay.nondet.exhausted:
            t0 = perf_counter()
            value = yield from self.rep.co_serve_nondet()
            self._charge("replay", t0)
            return value
        value = compute()
        if self.state.am_logging:
            t0 = perf_counter()
            self.res_log.record_nondet(value)
            self._charge("result-log", t0)
        return value

    # ------------------------------------------------------------------ #
    # Collectives (Section 4.5).
    # ------------------------------------------------------------------ #

    def _coll_endpoint(self, handle_id: int, phase: int) -> "_LayerCollEndpoint":
        seq = self.coll_seqs.get(handle_id, 0)
        raw = self._raw_comm(handle_id)
        base = LAYER_COLL_BASE - (seq * 2 + phase) * coll_impl._TAG_STRIDE
        return _LayerCollEndpoint(raw, base)

    def _raw_comm(self, handle_id: int) -> Comm:
        if handle_id == WORLD_HANDLE:
            return self.comm
        handle = self.handles.by_id.get(handle_id)
        if handle is None or handle._live is None:
            raise ProtocolError(f"unknown or unbound communicator handle {handle_id}")
        return handle._live

    def _advance_coll_seq(self, handle_id: int) -> None:
        self.coll_seqs[handle_id] = self.coll_seqs.get(handle_id, 0) + 1

    def _co_collective(
        self,
        kind: str,
        executor: Callable[[Any], Any],
        comm: Optional[PseudoHandle] = None,
        loggable: bool = True,
    ):
        """Shared machinery for every staged collective call.

        ``executor`` builds the generator form of the collective algorithm
        over the handed endpoint.  ``loggable=False`` marks barrier: never
        served from the result log (all participants re-execute it after
        restart — guaranteed by the epoch-alignment rule) and never
        recorded.
        """
        yield from self._co_progress()
        self.stats.collectives += 1
        handle_id = comm.handle_id if comm is not None else WORLD_HANDLE
        if (
            loggable
            and self.replay is not None
            and not self.replay.collectives.exhausted
        ):
            t0 = perf_counter()
            result = self.rep.serve_collective(kind)
            self._charge("replay", t0)
            self._advance_coll_seq(handle_id)
            yield from self.rep.co_maybe_end_replay()
            return result
        # Command exchange before the data call (paper: "each data
        # MPI_Allgather is preceded by a command MPI_Allgather which sends
        # around the relevant control information").
        ctl_ep = self._coll_endpoint(handle_id, 0)
        peer_info = yield from coll_impl.co_allgather(
            ctl_ep, (self.state.epoch, self.state.am_logging)
        )
        data_ep = self._coll_endpoint(handle_id, 1)
        result = yield from executor(data_ep)
        self._advance_coll_seq(handle_id)
        if self.state.am_logging and loggable:
            my_epoch = self.state.epoch
            ended = any(
                epoch == my_epoch and not logging
                for i, (epoch, logging) in enumerate(peer_info)
                if i != self._group_rank(handle_id)
            )
            if ended:
                # A same-epoch participant has stopped logging: logging has
                # globally terminated; do not record the result.
                yield from self._co_finalize_log()
            else:
                t0 = perf_counter()
                self.res_log.record_collective(kind, result)
                self._charge("result-log", t0)
        return result

    def _group_rank(self, handle_id: int) -> int:
        return self._raw_comm(handle_id).rank

    def bcast(self, obj: Any, root: int = 0, comm: Any = None) -> Any:
        return coop.drive(self.co_bcast(obj, root, comm))

    def co_bcast(self, obj: Any, root: int = 0, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_bcast(obj, root))
        return (
            yield from self._co_collective(
                "bcast", lambda ep: coll_impl.co_bcast(ep, obj, root), comm
            )
        )

    def reduce(self, obj: Any, op: Op, root: int = 0, comm: Any = None) -> Any:
        return coop.drive(self.co_reduce(obj, op, root, comm))

    def co_reduce(self, obj: Any, op: Op, root: int = 0, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_reduce(obj, op, root))
        return (
            yield from self._co_collective(
                "reduce", lambda ep: coll_impl.co_reduce(ep, obj, op, root), comm
            )
        )

    def allreduce(self, obj: Any, op: Op, comm: Any = None) -> Any:
        return coop.drive(self.co_allreduce(obj, op, comm))

    def co_allreduce(self, obj: Any, op: Op, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_allreduce(obj, op))
        return (
            yield from self._co_collective(
                "allreduce", lambda ep: coll_impl.co_allreduce(ep, obj, op), comm
            )
        )

    def gather(self, obj: Any, root: int = 0, comm: Any = None) -> Any:
        return coop.drive(self.co_gather(obj, root, comm))

    def co_gather(self, obj: Any, root: int = 0, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_gather(obj, root))
        return (
            yield from self._co_collective(
                "gather", lambda ep: coll_impl.co_gather(ep, obj, root), comm
            )
        )

    def allgather(self, obj: Any, comm: Any = None) -> list[Any]:
        return coop.drive(self.co_allgather(obj, comm))

    def co_allgather(self, obj: Any, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_allgather(obj))
        return (
            yield from self._co_collective(
                "allgather", lambda ep: coll_impl.co_allgather(ep, obj), comm
            )
        )

    def scatter(self, objs: list[Any] | None, root: int = 0, comm: Any = None) -> Any:
        return coop.drive(self.co_scatter(objs, root, comm))

    def co_scatter(self, objs: list[Any] | None, root: int = 0, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_scatter(objs, root))
        return (
            yield from self._co_collective(
                "scatter", lambda ep: coll_impl.co_scatter(ep, objs, root), comm
            )
        )

    def alltoall(self, objs: list[Any], comm: Any = None) -> list[Any]:
        return coop.drive(self.co_alltoall(objs, comm))

    def co_alltoall(self, objs: list[Any], comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_alltoall(objs))
        return (
            yield from self._co_collective(
                "alltoall", lambda ep: coll_impl.co_alltoall(ep, objs), comm
            )
        )

    def scan(self, obj: Any, op: Op, comm: Any = None) -> Any:
        return coop.drive(self.co_scan(obj, op, comm))

    def co_scan(self, obj: Any, op: Op, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            return (yield from self._resolve(comm).co_scan(obj, op))
        return (
            yield from self._co_collective(
                "scan", lambda ep: coll_impl.co_scan(ep, obj, op), comm
            )
        )

    def barrier(self, comm: Any = None) -> None:
        """MPI_Barrier with the paper's epoch-alignment rule (Section 4.5).

        "All processes involved in the barrier execute an all-to-all
        communication just before the barrier to determine if they are all
        in the same epoch.  If not, processes that have not yet taken their
        local checkpoints do so."
        """
        coop.drive(self.co_barrier(comm))

    def co_barrier(self, comm: Any = None):
        if self._raw:
            self.stats.collectives += 1
            yield from self._resolve(comm).co_barrier()
            return
        yield from self._co_progress()
        handle_id = comm.handle_id if comm is not None else WORLD_HANDLE
        if self.replay is None:
            ctl_ep = self._coll_endpoint(handle_id, 0)
            epochs = yield from coll_impl.co_allgather(ctl_ep, self.state.epoch)
            if self.state.epoch < max(epochs) and self.ckpt is not None:
                # The forced local checkpoint happens BEFORE this barrier's
                # collective-sequence advance: the checkpoint's resume point
                # re-executes the whole barrier call (the paper's inserted
                # potentialCheckpoint-before-barrier), so its snapshot must
                # not count the alignment exchange the re-execution will
                # perform again.
                t0 = perf_counter()
                yield from self.ckpt.co_take_local_checkpoint()
                self._charge("checkpoint", t0)
            self._advance_coll_seq(handle_id)
        else:
            # Re-executed barrier during replay: alignment already held in
            # the original execution (all participants were in this epoch),
            # but the exchange itself must re-run so tags stay aligned.
            ctl_ep = self._coll_endpoint(handle_id, 0)
            yield from coll_impl.co_allgather(ctl_ep, self.state.epoch)
            self._advance_coll_seq(handle_id)
        yield from self._co_collective(
            "barrier", lambda ep: coll_impl.co_barrier(ep), comm, loggable=False
        )

    # ------------------------------------------------------------------ #
    # potentialCheckpoint (Figure 4).
    # ------------------------------------------------------------------ #

    def potential_checkpoint(self) -> bool:
        """Take a local checkpoint if one has been requested.

        Returns True if a checkpoint was taken; always False on stacks
        without a checkpoint stage.
        """
        return coop.drive(self.co_potential_checkpoint())

    def co_potential_checkpoint(self):
        if self._raw:
            return False
        yield from self._co_progress()
        if self.ckpt is None:
            return False
        t0 = perf_counter()
        taken = yield from self.ckpt.co_potential_checkpoint()
        self._charge("checkpoint", t0)
        return taken

    def request_checkpoint_now(self) -> None:
        """Ask the initiator to start a wave at its next poll (tests/API)."""
        if self.ckpt is None:
            raise ProtocolError(
                "request_checkpoint_now needs a checkpoint stage (initiator-only)"
            )
        self.ckpt.request_checkpoint_now()

    # ------------------------------------------------------------------ #
    # MPI library persistent-object virtualisation (Section 5.2).
    # ------------------------------------------------------------------ #

    def _creation_replay(self, fn: str) -> tuple[bool, Optional[PseudoHandle]]:
        """Swallow a re-executed persistent-object creation after restore.

        Applications that restart *from the top* (the manual-state path)
        re-execute their pre-checkpoint ``comm_dup``/``comm_split``/... calls.
        Those objects already exist — recreated by the call-record replay at
        restore — so while the creation cursor has records left, a creation
        call returns the restored handle instead of making a new one.  The
        precompiled path resumes past these calls and disables the cursor.
        """
        if (
            self._creation_cursor is None
            or self._creation_cursor >= len(self.mpi_log.records)
        ):
            return False, None
        record = self.mpi_log.records[self._creation_cursor]
        if record.fn != fn:
            raise RecoveryError(
                f"rank {self.rank}: re-executed creation {fn!r} but the "
                f"restored call record says {record.fn!r}"
            )
        self._creation_cursor += 1
        if record.handle_id >= 0:
            return True, self.handles.by_id[record.handle_id]
        return True, None

    def skip_creation_replay(self) -> None:
        """Disable creation-cursor matching (precompiled-application path)."""
        self._creation_cursor = None

    def comm_dup(self, parent: Any = None) -> Any:
        """Duplicate a communicator behind a (pseudo or raw) handle."""
        if self._raw:
            return self._new_handle("comm", self._resolve(parent).dup())
        replayed, handle = self._creation_replay("comm_dup")
        if replayed:
            return handle
        parent_id = parent.handle_id if parent is not None else WORLD_HANDLE
        handle = self.mpi_log.new_handle("comm")
        handle._live = self._raw_comm(parent_id).dup()
        self.mpi_log.record("comm_dup", (parent_id,), handle)
        self.handles.add(handle)
        self.coll_seqs[handle.handle_id] = 0
        return handle

    def comm_split(
        self, color: int, key: int | None = None, parent: Any = None
    ) -> Optional[Any]:
        """Split a communicator behind a (pseudo or raw) handle (collective)."""
        return coop.drive(self.co_comm_split(color, key, parent))

    def co_comm_split(self, color: int, key: int | None = None, parent: Any = None):
        if self._raw:
            child = yield from self._resolve(parent).co_split(color, key)
            if child is None:
                return None
            return self._new_handle("comm", child)
        if self._creation_cursor is not None and self._creation_cursor < len(self.mpi_log.records):
            record = self.mpi_log.records[self._creation_cursor]
            fn = "comm_split" if record.fn == "comm_split" else "comm_split_undefined"
            replayed, handle = self._creation_replay(fn)
            if replayed:
                return handle
        parent_id = parent.handle_id if parent is not None else WORLD_HANDLE
        raw_child = yield from self._raw_comm(parent_id).co_split(color, key)
        if raw_child is None:
            # Participation is still recorded: the split must be re-executed
            # collectively on restore even by ranks that got no child.
            self.mpi_log.record("comm_split_undefined", (parent_id, key))
            return None
        handle = self.mpi_log.new_handle("comm")
        handle._live = raw_child
        self.mpi_log.record("comm_split", (parent_id, color, key), handle)
        self.handles.add(handle)
        self.coll_seqs[handle.handle_id] = 0
        return handle

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> Any:
        """Create a user-defined reduction op behind a (pseudo or raw) handle.

        On staged stacks ``fn`` must be importable/stable under ``name``:
        the call record replays ``Op.create(name, fn)`` by looking the op up
        at restore, so the application must re-register the op before
        restore (module import time is the natural place).
        """
        if self._raw:
            return self._new_handle("op", Op.create(name, fn))
        replayed, handle = self._creation_replay("op_create")
        if replayed:
            return handle
        handle = self.mpi_log.new_handle("op")
        handle._live = Op.create(name, fn)
        self.mpi_log.record("op_create", (name,), handle)
        self.handles.add(handle)
        return handle

    def attach_buffer(self, nbytes: int) -> None:
        """Record a direct library state change (MPI_Attach_buffer analogue)."""
        if self._raw:
            return
        replayed, _ = self._creation_replay("attach_buffer")
        if replayed:
            return
        self.mpi_log.record("attach_buffer", (nbytes,))

    def comm_rank(self, handle: Any = None) -> int:
        if self._raw:
            return self._resolve(handle).rank
        return self._raw_comm(handle.handle_id if handle else WORLD_HANDLE).rank

    def comm_size(self, handle: Any = None) -> int:
        if self._raw:
            return self._resolve(handle).size
        return self._raw_comm(handle.handle_id if handle else WORLD_HANDLE).size

    def _co_replay_executors(self) -> dict[str, Callable[..., Any]]:
        """Generator-form executors for the recorded-call replay at restore.

        ``comm_split`` is a collective over the parent communicator, so its
        re-execution is a scheduling point; the other creations are local.
        """

        def comm_dup(parent_id: int):
            return self._raw_comm(parent_id).dup()
            yield  # pragma: no cover -- marks this function as a generator

        def comm_split(parent_id: int, color: int, key: int | None):
            return (yield from self._raw_comm(parent_id).co_split(color, key))

        def comm_split_undefined(parent_id: int, key: int | None):
            yield from self._raw_comm(parent_id).co_split(None, key)
            return None

        def op_create(name: str):
            return Op.lookup(name)
            yield  # pragma: no cover

        def attach_buffer(nbytes: int):
            return None
            yield  # pragma: no cover

        return {
            "comm_dup": comm_dup,
            "comm_split": comm_split,
            "comm_split_undefined": comm_split_undefined,
            "op_create": op_create,
            "attach_buffer": attach_buffer,
        }

    def _co_mpi_replay(self):
        """Re-execute every recorded persistent-object call in order (the
        generator form of :meth:`MpiStateLog.replay`)."""
        executors = self._co_replay_executors()
        handles = self.handles.by_id
        for rec in self.mpi_log.records:
            fn = executors.get(rec.fn)
            if fn is None:
                raise RecoveryError(f"no executor for recorded MPI call {rec.fn!r}")
            live = yield from fn(*rec.args)
            if rec.handle_id >= 0:
                handle = handles.get(rec.handle_id)
                if handle is None:
                    raise RecoveryError(
                        f"recorded call {rec.fn!r} targets unknown handle {rec.handle_id}"
                    )
                handle._live = live

    # ------------------------------------------------------------------ #
    # Recovery (restart from a committed checkpoint).
    # ------------------------------------------------------------------ #

    def restore_from(self, data: CheckpointData, logs: EpochLogs) -> None:
        """Reinitialise this pipeline from a committed local checkpoint.

        Must be called by *every* rank of the job at restart, before any
        application re-execution: it performs a synchronous suppression
        exchange (each receiver tells each sender which early-message IDs to
        suppress) and arms the deterministic replay engine.
        """
        coop.drive(self.co_restore_from(data, logs))

    def co_restore_from(self, data: CheckpointData, logs: EpochLogs):
        if self.rep is None:
            raise RecoveryError(
                f"rank {self.rank}: restore_from on a stack without a replay stage"
            )
        if data.rank != self.rank:
            raise RecoveryError(
                f"rank {self.rank} handed checkpoint of rank {data.rank}"
            )
        self.state = copy.deepcopy(data.protocol)
        self.coll_seqs = dict(data.coll_seqs)
        self.mpi_log = copy.deepcopy(data.mpi_records) if data.mpi_records else MpiStateLog()
        self.handles.restore([copy.deepcopy(h) for h in data.handles])
        yield from self._co_mpi_replay()
        # Arm the creation cursor: a from-the-top restart will re-execute
        # these recorded creations and must be handed the restored handles.
        self._creation_cursor = 0
        self.requests.restore([copy.deepcopy(r) for r in data.requests])
        logs = copy.deepcopy(logs)
        logs.rewind()
        self.replay = logs
        self._replay_done_sent = False
        # --- suppression exchange (synchronous, all ranks participate) ---
        outgoing = [
            tuple(data.early_ids.get(sender, ())) for sender in range(self.nprocs)
        ]
        ep = _LayerCollEndpoint(self.comm, RESTORE_BASE)
        incoming = yield from coll_impl.co_alltoall(ep, outgoing)
        self.suppress = {
            dest: set(ids) for dest, ids in enumerate(incoming) if ids
        }
        if self.initiator is not None:
            self.initiator.begin_recovery(set(range(self.nprocs)))
            self.initiator.last_commit_time = self.comm.wtime()
        for stage in self.stages:
            if type(stage).on_restore is not ProtocolStage.on_restore:
                stage.on_restore(data, logs)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "proto", "restore", rank=self.rank, epoch=self.state.epoch,
                late=len(logs.late), matches=len(logs.matches),
            )
        yield from self.rep.co_maybe_end_replay()

    @property
    def in_replay(self) -> bool:
        return self.replay is not None


class _LayerCollEndpoint:
    """Collective endpoint over a raw communicator with an explicit tag base.

    The pipeline cannot use the raw communicator's own collective tag
    counter: replay-served collectives perform no raw communication, so raw
    counters would drift apart between ranks.  The pipeline derives tags
    from its own checkpointed per-communicator sequence numbers instead.
    """

    def __init__(self, raw: Comm, base: int) -> None:
        self._raw = raw
        self._base = base
        self._used = False

    @property
    def coll_rank(self) -> int:
        return self._raw.rank

    @property
    def coll_size(self) -> int:
        return self._raw.size

    def coll_next_tag_block(self) -> int:
        if self._used:
            raise ProtocolError("layer collective endpoint reused")
        self._used = True
        return self._base

    # The raw generators are returned, not delegated to, so a collective
    # round's ``yield from`` chain gains no frame.

    def co_coll_send(self, dest: int, payload: Any, tag: int):
        return self._raw.co_coll_send(dest, payload, tag)

    def co_coll_recv(self, source: int, tag: int):
        return self._raw.co_coll_recv(source, tag)
