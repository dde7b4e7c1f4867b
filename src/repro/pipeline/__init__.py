"""Pipeline topologies: PBPL generalised to multi-stage DAGs.

Public surface:

* :class:`~repro.pipeline.topology.Topology` /
  :class:`~repro.pipeline.topology.Stage` /
  :class:`~repro.pipeline.topology.Edge` — the declarative, validated
  DAG spec, plus the :data:`~repro.pipeline.topology.STOCK_TOPOLOGIES`
  registry (``telemetry``, ``aggregate``);
* :class:`~repro.pipeline.stage.StageConsumer` — a latching consumer
  that is simultaneously the next stage's producer;
* :class:`~repro.pipeline.system.PipelineSystem` — PBPL over a
  topology (chaos and migration machinery applies unchanged);
* :class:`~repro.pipeline.baseline.BaselinePipelineSystem` — the same
  topology under Mutex/Sem/BP/PBP/SPBP for comparison.
"""

from repro.pipeline.baseline import BaselinePipelineSystem
from repro.pipeline.stage import StageConsumer
from repro.pipeline.system import PipelineSystem, StageMetrics
from repro.pipeline.topology import (
    AGGREGATE,
    Edge,
    Stage,
    STOCK_TOPOLOGIES,
    TELEMETRY,
    Topology,
)

__all__ = [
    "AGGREGATE",
    "BaselinePipelineSystem",
    "Edge",
    "PipelineSystem",
    "Stage",
    "StageConsumer",
    "StageMetrics",
    "STOCK_TOPOLOGIES",
    "TELEMETRY",
    "Topology",
]
