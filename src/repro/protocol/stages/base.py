"""Protocol-stage interface, configuration, and the stage registry.

The C3 layer (paper Figure 4) is composed of single-responsibility
*stages* threaded together by a :class:`~repro.protocol.stages.pipeline.
ProtocolPipeline`.  Each stage owns one protocol concern:

=============  =====================================================
Stage name     Concern
=============  =====================================================
piggyback      attach/strip the ``(color, amLogging, messageID)``
               word on every application message (Section 4.2)
classifier     late / intra-epoch / early classification (Def. 1)
message-log    late-message payload log, early-ID recording, match
               records, receive counters (Figure 4 event handler)
result-log     non-deterministic decision + collective result
               logging under the amLogging rule (Sections 3.2, 4.5)
replay         deterministic re-execution from the logged window and
               early-message resend suppression (recovery)
checkpoint     control plane, initiator, ``potentialCheckpoint``,
               epoch transitions, ``mySendCount``/``receivedAll?``
=============  =====================================================

Stages share the pipeline as a blackboard: protocol variables
(:class:`~repro.protocol.state.ProtocolState`), logs, handle tables and
stats live on the pipeline core; stages carry behaviour.  Custom stages
are registered with :func:`register_stage` — the same open-registry
idiom as :func:`repro.ckpt.register_backend` — and composed into named
stacks with :func:`repro.protocol.stages.registry.register_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.stages.pipeline import ProtocolPipeline


@dataclass
class C3Config:
    """Tuning of the protocol layer; the stage stack decides what runs.

    The four benchmark variants of Section 6 are stage stacks of
    :mod:`repro.protocol.stages.registry`, and this configuration only
    tunes them:

    * V0 "unmodified"      — the empty stack: no piggyback word, no
      protocol (raw pass-through);
    * V1 "piggyback"       — the protocol layer is active (piggybacking,
      classification, logging machinery) but there is no checkpoint stage
      and ``checkpoint_interval=None``, so no wave is ever initiated — the
      paper's "Using Protocol Layer, No Checkpoints";
    * V2 "no app state"    — V1 plus the checkpoint stage, with
      ``save_app_state=False``;
    * V3 "full"            — V1 plus the checkpoint stage, saving
      application state.
    """

    codec: str = "packed"
    checkpoint_interval: Optional[float] = None
    save_app_state: bool = True
    initiator_rank: int = 0
    #: Deep-copy logged payloads (protects the log from later mutation by
    #: the application; disable only for immutable-payload benchmarks).
    copy_logged_payloads: bool = True


@dataclass
class LayerStats:
    """Per-rank protocol observability counters."""

    sends: int = 0
    receives: int = 0
    suppressed_sends: int = 0
    late_logged: int = 0
    early_recorded: int = 0
    nondet_logged: int = 0
    collectives: int = 0
    collective_results_logged: int = 0
    checkpoints_taken: int = 0
    replayed_late: int = 0
    replayed_matches: int = 0
    replayed_nondet: int = 0
    replayed_collectives: int = 0
    control_messages: int = 0
    log_finalizations: int = 0
    #: Checkpoint-storage accounting from per-generation manifests: what a
    #: flat pickle store would have written vs. what actually hit storage.
    ckpt_logical_bytes: int = 0
    ckpt_stored_bytes: int = 0
    ckpt_chunks_reused: int = 0
    #: Per-stage observability: dispatches into each pipeline stage and
    #: the wall-clock seconds spent inside them (keys are stage names;
    #: populated only for the stages present in this rank's stack).
    stage_calls: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)


class ProtocolStage:
    """Base class for pipeline stages.

    A stage is bound to exactly one pipeline via :meth:`bind` before any
    traffic flows.  The six built-in concerns are dispatched explicitly by
    the pipeline; in addition, *any* stage may override the generic
    observer hooks below (``on_send`` / ``on_receive`` / ``on_restore``)
    — the pipeline invokes them only when overridden, so unused hooks
    cost nothing on the hot path.
    """

    #: Registry name; also the key under which per-stage counters appear.
    name: ClassVar[str] = "stage"

    def __init__(self, config: C3Config) -> None:
        self.config = config
        self.core: "ProtocolPipeline" = None  # type: ignore[assignment]

    def bind(self, core: "ProtocolPipeline") -> None:
        self.core = core

    # -- generic observer hooks (override to participate) --------------- #

    def on_send(self, payload, dest: int, tag: int) -> None:
        """Called for every application send/isend (staged stacks only)."""

    def on_receive(self, env) -> None:
        """Called after a received message has been classified/delivered."""

    def on_restore(self, data, logs) -> None:
        """Called at the end of ``restore_from`` (recovery restart)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


# ===================================================================== #
# Stage registry (open, like repro.ckpt's backend registry).
# ===================================================================== #

StageFactory = Callable[[C3Config], ProtocolStage]

_STAGES: dict[str, StageFactory] = {}


def register_stage(name: str, factory: StageFactory, *, replace: bool = False) -> None:
    """Register a stage factory under ``name``.

    ``factory(config)`` must return a fresh, unbound
    :class:`ProtocolStage`.  Re-registering an existing name requires
    ``replace=True`` (guards against accidental shadowing of built-ins).
    """
    if name in _STAGES and not replace:
        raise ConfigError(
            f"stage {name!r} is already registered; pass replace=True to override"
        )
    _STAGES[name] = factory


def make_stage(name: str, config: C3Config) -> ProtocolStage:
    try:
        factory = _STAGES[name]
    except KeyError:
        raise ConfigError(
            f"unknown protocol stage {name!r}; available: {sorted(_STAGES)}"
        ) from None
    return factory(config)


def list_stages() -> list[str]:
    return sorted(_STAGES)
