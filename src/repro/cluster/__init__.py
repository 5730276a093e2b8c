"""Scatter-gather cluster serving: replicated shard nodes behind one backend.

The cluster tier is the one hash-partitioned backend: documents route by
a stable CRC32 of their URL to N shards, each a set of replica nodes.  A
search walks the shards in the calling thread (the tier starts no thread
of its own) under a per-scatter deadline, with replica failover and
hedged duplicates for injected stragglers -- while keeping clean-path
rankings byte-identical to :class:`~repro.store.memory.InMemoryBackend`
and degrading to exact-score subsets (fewer hits, never wrong ones) under
failure.
"""

from repro.cluster.backend import ClusterBackend, ClusterStats
from repro.cluster.executor import (
    REASON_DEADLINE,
    REASON_DOWN,
    REASON_ERROR,
    REASON_STALLED,
    ScatterGatherExecutor,
    ShardOutcome,
)
from repro.cluster.node import AGENT_CLUSTER, ShardNode, replica_name, shard_of

__all__ = [
    "AGENT_CLUSTER",
    "ClusterBackend",
    "ClusterStats",
    "REASON_DEADLINE",
    "REASON_DOWN",
    "REASON_ERROR",
    "REASON_STALLED",
    "ScatterGatherExecutor",
    "ShardNode",
    "ShardOutcome",
    "replica_name",
    "shard_of",
]
