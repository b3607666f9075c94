"""The paper's primary contribution: log managers and their RAM structures.

Public surface:

* :class:`~repro.core.ephemeral.EphemeralLogManager` — ephemeral logging
  (the contribution): multi-generation log, forwarding, recirculation,
  continuous flushing, no checkpoints.
* :class:`~repro.core.firewall.FirewallLogManager` — the System-R-style
  firewall baseline (single queue, no recirculation).
* :class:`~repro.core.hybrid.HybridLogManager` — the EL–FW hybrid sketched
  in the paper's concluding remarks.
* :class:`~repro.core.sharded.ShardedLogManager` — N independent EL/FW
  shards on their own disks with range routing and cross-shard group
  commit (scale-out beyond one log disk's bandwidth).
* Supporting structures: cells and per-generation circular doubly-linked
  lists, the LOT and LTT, block buffers with group commit, generations and
  the locality-aware flush scheduler.
"""
