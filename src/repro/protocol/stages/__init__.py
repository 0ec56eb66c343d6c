"""Composable protocol stages (the decomposed C3 layer).

See :mod:`repro.protocol.stages.base` for the stage interface and
:mod:`repro.protocol.stages.registry` for the named V0–V3 stacks.
"""

from repro.protocol.stages.base import (
    C3Config,
    LayerStats,
    ProtocolStage,
    list_stages,
    make_stage,
    register_stage,
)
from repro.protocol.stages.checkpoint import CheckpointStage
from repro.protocol.stages.classifier import ClassifierStage
from repro.protocol.stages.message_log import MessageLogStage
from repro.protocol.stages.piggyback import PiggybackStage
from repro.protocol.stages.pipeline import ProtocolPipeline, RawHandle
from repro.protocol.stages.registry import (
    FULL_STACK,
    PROTOCOL_STAGES,
    StackSpec,
    build_stages,
    list_stacks,
    register_stack,
    variant_stack,
)
from repro.protocol.stages.replay import ReplayStage
from repro.protocol.stages.result_log import ResultLogStage

# Built-in stage factories (the names the V0-V3 stacks are declared with).
register_stage("piggyback", PiggybackStage, replace=True)
register_stage("classifier", ClassifierStage, replace=True)
register_stage("message-log", MessageLogStage, replace=True)
register_stage("result-log", ResultLogStage, replace=True)
register_stage("replay", ReplayStage, replace=True)
register_stage("checkpoint", CheckpointStage, replace=True)

__all__ = [
    "C3Config",
    "CheckpointStage",
    "ClassifierStage",
    "FULL_STACK",
    "LayerStats",
    "MessageLogStage",
    "PROTOCOL_STAGES",
    "PiggybackStage",
    "ProtocolPipeline",
    "ProtocolStage",
    "RawHandle",
    "ReplayStage",
    "ResultLogStage",
    "StackSpec",
    "build_stages",
    "list_stacks",
    "list_stages",
    "make_stage",
    "register_stack",
    "register_stage",
    "variant_stack",
]
