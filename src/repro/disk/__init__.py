"""Disk substrate.

Models the two kinds of disk resources the paper's simulator uses:

* the **log area** — per-generation circular arrays of fixed-size blocks
  (:class:`~repro.disk.circular.CircularBlockArray`) holding block images
  (:class:`~repro.disk.block.BlockImage`), written sequentially;
* the **database area** — an array of independent
  :class:`~repro.disk.drive.DiskDrive` objects over which objects are
  range-partitioned (:class:`~repro.disk.partition.RangePartitioner`), used
  by the flush scheduler with locality-aware servicing.
"""
