"""Staged pipeline core: composable, checkpointable clustering stages.

Public surface:

* :class:`~repro.pipeline.pipeline.QSCPipeline` — the staged driver
  (``run(graph, save_stages=..., resume_from=..., ...)``);
* :data:`~repro.pipeline.stages.STAGE_NAMES` / ``build_stages`` — the five
  concrete stages in execution order;
* :class:`~repro.pipeline.stage.Stage` / ``StageContext`` — the contract
  for new stages;
* :mod:`~repro.pipeline.telemetry` — per-stage profiling
  (``stage_totals`` feeds the sweep-artifact profile field);
* :mod:`~repro.pipeline.checkpoint` — the content-store keys of stage and
  shard checkpoints;
* :mod:`~repro.pipeline.sharding` / :mod:`~repro.pipeline.supervisor` —
  deterministic row-sharding of the readout stage under a supervised
  work queue (``sharded_readout``, ``ShardSupervisor``).
"""

from repro.pipeline.checkpoint import CHECKPOINT_VERSION
from repro.pipeline.pipeline import QSCPipeline
from repro.pipeline.sharding import (
    RowShard,
    ShardedReadout,
    shard_layout,
    sharded_readout,
)
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.stages import STAGE_NAMES, build_stages
from repro.pipeline.supervisor import (
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardSupervisor,
    ShardTask,
    SupervisorCancelled,
)
from repro.pipeline.telemetry import (
    ShardReport,
    StageReport,
    reset_stage_totals,
    stage_totals,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "InlineShardExecutor",
    "ProcessShardExecutor",
    "QSCPipeline",
    "RowShard",
    "STAGE_NAMES",
    "ShardReport",
    "ShardSupervisor",
    "ShardTask",
    "ShardedReadout",
    "Stage",
    "StageContext",
    "StageReport",
    "SupervisorCancelled",
    "build_stages",
    "reset_stage_totals",
    "shard_layout",
    "sharded_readout",
    "stage_totals",
]
