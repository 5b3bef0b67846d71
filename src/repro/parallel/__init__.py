"""Sharded parallel view maintenance (see :mod:`repro.parallel.engine`).

Select it through the facade::

    from repro import ChronicleDatabase, DatabaseConfig

    db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=4))
"""

from ..algebra.plan import UNPARTITIONABLE, PartitionSpec, infer_partition
from .engine import (
    MergedView,
    NonPortableViewWarning,
    ParallelMaintainer,
    ProcessShardBackend,
    ShardTask,
    ShardedDatabase,
    ShardGroup,
    ShardUnit,
    UnpartitionableViewWarning,
    rebind,
    rebind_summary,
)
from .router import ShardRouter, stable_hash
from .worker import ShardUnitSpec, UnitReplica

__all__ = [
    "MergedView",
    "NonPortableViewWarning",
    "ParallelMaintainer",
    "PartitionSpec",
    "ProcessShardBackend",
    "ShardGroup",
    "ShardRouter",
    "ShardTask",
    "ShardUnit",
    "ShardUnitSpec",
    "ShardedDatabase",
    "UNPARTITIONABLE",
    "UnitReplica",
    "UnpartitionableViewWarning",
    "infer_partition",
    "rebind",
    "rebind_summary",
    "stable_hash",
]
