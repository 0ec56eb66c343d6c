"""The C3 protocol layer (paper Section 4, Figure 4) — facade.

``C3Layer`` sits between the application and the (simulated) MPI library
and intercepts every communication call, exactly as in the paper's
architecture (Figure 2).  Since the stage-pipeline refactor it is a slim
facade: the engine is :class:`repro.protocol.stages.pipeline.
ProtocolPipeline`, and each protocol concern lives in its own
single-responsibility stage under :mod:`repro.protocol.stages`:

* ``piggyback``   — attach/strip of ``(epoch-color, amLogging,
  messageID)`` on every application message (Section 4.2);
* ``classifier``  — late / intra-epoch / early classification
  (Figure 4, ``communicationEventHandler``);
* ``message-log`` — late-message logging, early-ID recording, match
  records and receive counters;
* ``result-log``  — non-determinism and collective result logging under
  the amLogging conjunction rule (Sections 3.2, 4.5);
* ``replay``      — recovery: early-message resend suppression and
  deterministic replay of the logged window;
* ``checkpoint``  — control plane, initiator, local checkpoints at
  ``potentialCheckpoint`` call sites, the ``mySendCount`` /
  ``receivedAll?`` completion mechanism (Section 4.3).

``C3Layer(comm, config, storage)`` builds the full stack (V2/V3's six
stages); pass ``stack=`` for any other composition.  The empty stack is
the raw pass-through (V0); any other stack must contain V1's five
protocol stages.  The recovery driver builds layers from *named* stacks
— see :func:`repro.protocol.stages.registry.variant_stack`.

One deliberate refinement over the paper's prose: the collective logging
rule exchanges ``(epoch, amLogging)`` rather than ``amLogging`` alone.  A
bare conjunction cannot distinguish Figure 5's call A (a participant that
has *not yet checkpointed* — result must be logged) from call B (a
participant that *finished* logging — logging must stop).  Classifying each
participant's contribution with the same late/intra/early rule as
point-to-point messages resolves both cases; with the packed codec this is
exactly the paper's color-bit reasoning applied to collectives.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.protocol.stages.base import C3Config, LayerStats
from repro.protocol.stages.pipeline import (
    LAYER_COLL_BASE,
    RESTORE_BASE,
    WORLD_HANDLE,
    ProtocolPipeline,
)
from repro.protocol.stages.registry import FULL_STACK, StackSpec, build_stages
from repro.simmpi.comm import Comm
from repro.statesave.storage import Storage

__all__ = [
    "C3Config",
    "C3Layer",
    "LAYER_COLL_BASE",
    "LayerStats",
    "RESTORE_BASE",
    "WORLD_HANDLE",
]


class C3Layer(ProtocolPipeline):
    """Per-process protocol engine (facade over the stage pipeline).

    ``stack`` may name an explicit stage composition (a
    :class:`~repro.protocol.stages.registry.StackSpec` or a sequence of
    stage names); without one, the layer runs the full stack.
    """

    def __init__(
        self,
        comm: Comm,
        config: C3Config,
        storage: Storage,
        state_provider: Optional[Callable[[], Any]] = None,
        stack: StackSpec | Sequence[str] | None = None,
    ) -> None:
        super().__init__(
            comm,
            stages=build_stages(FULL_STACK if stack is None else stack, config),
            config=config,
            storage=storage,
            state_provider=state_provider,
        )
