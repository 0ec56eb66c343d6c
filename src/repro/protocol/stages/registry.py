"""Named stage stacks: the paper's V0–V3 plus user-registered variants.

A *stack* is a declared composition of protocol stages.  The four build
variants of Section 6.2 are pinned here as named stacks instead of flag
soup:

=====  =========================================  ==========================
Name   Paper name                                 Stage stack
=====  =========================================  ==========================
V0     "Unmodified Program"                       (empty — raw pass-through)
V1     "Using Protocol Layer, No Checkpoints"     piggyback, classifier,
                                                  message-log, result-log,
                                                  replay
V2     "Checkpointing, No Application State"      V1 stages + checkpoint
                                                  (``save_app_state=False``)
V3     "Full Checkpoints"                         V1 stages + checkpoint
=====  =========================================  ==========================

Custom stacks are registered with :func:`register_stack`, the same way
``repro.ckpt`` backends are; resolve any stack — built-in or custom —
with :func:`variant_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.protocol.stages.base import C3Config, ProtocolStage, make_stage

#: The protocol stages shared by every instrumented variant (V1's stack).
PROTOCOL_STAGES = ("piggyback", "classifier", "message-log", "result-log", "replay")

#: V2/V3: the protocol stages plus the checkpoint controller.
FULL_STACK = PROTOCOL_STAGES + ("checkpoint",)


@dataclass(frozen=True)
class StackSpec:
    """One named, declared stage composition."""

    name: str
    stages: tuple[str, ...]
    description: str = ""
    #: Whether checkpoints taken under this stack capture application state
    #: (meaningful only when the stack has a ``checkpoint`` stage; V2 is
    #: exactly V3 with this off).
    save_app_state: bool = True

    def c3_config(self, run_config) -> C3Config:
        """Derive the pipeline configuration for one run.

        ``run_config`` is any object with ``codec`` and
        ``checkpoint_interval`` attributes (in practice a
        :class:`repro.runtime.config.RunConfig`).  Which protocol concerns
        run is decided by the stack itself, not by the configuration.
        """
        has_ckpt = "checkpoint" in self.stages
        return C3Config(
            codec=run_config.codec,
            checkpoint_interval=run_config.checkpoint_interval if has_ckpt else None,
            save_app_state=self.save_app_state and has_ckpt,
        )


_STACKS: dict[str, StackSpec] = {}

#: Aliases: ``Variant`` enum values resolve to the canonical stack names.
_ALIASES = {
    "unmodified": "V0",
    "piggyback": "V1",
    "no-app-state": "V2",
    "full": "V3",
}


def register_stack(
    name: str,
    stages: Sequence[str],
    *,
    description: str = "",
    save_app_state: bool = True,
    replace: bool = False,
) -> StackSpec:
    """Register (or with ``replace=True`` redefine) a named stage stack.

    Stage names are resolved against the stage registry when a pipeline is
    built, so a stack may reference a custom stage registered afterwards.
    """
    if name in _STACKS and not replace:
        raise ConfigError(
            f"stack {name!r} is already registered; pass replace=True to override"
        )
    spec = StackSpec(
        name=name,
        stages=tuple(stages),
        description=description,
        save_app_state=save_app_state,
    )
    _STACKS[name] = spec
    return spec


def variant_stack(name: str) -> StackSpec:
    """Resolve a stack by name (``"V0"``–``"V3"``, a ``Variant`` value such
    as ``"full"``, or any user-registered name)."""
    key = getattr(name, "value", name)  # accept the Variant enum directly
    key = _ALIASES.get(key, key)
    try:
        return _STACKS[key]
    except KeyError:
        raise ConfigError(
            f"unknown variant stack {name!r}; available: {sorted(_STACKS)}"
        ) from None


def list_stacks() -> list[str]:
    return sorted(_STACKS)


def build_stages(spec: StackSpec | Sequence[str], config: C3Config) -> list[ProtocolStage]:
    """Instantiate the (unbound) stage objects for a stack."""
    names = spec.stages if isinstance(spec, StackSpec) else tuple(spec)
    return [make_stage(name, config) for name in names]


# -- built-in stacks ---------------------------------------------------- #

register_stack(
    "V0", (), description="Unmodified Program — raw pass-through (empty stack)",
    save_app_state=False,
)
register_stack(
    "V1", PROTOCOL_STAGES,
    description="Using Protocol Layer, No Checkpoints",
    save_app_state=False,
)
register_stack(
    "V2", FULL_STACK,
    description="Checkpointing, No Application State",
    save_app_state=False,
)
register_stack(
    "V3", FULL_STACK,
    description="Full Checkpoints",
)
