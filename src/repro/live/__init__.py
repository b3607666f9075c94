"""Live execution backend: the bridge from reproduction to system.

Everything below ``repro.core`` was written against the ``Simulator``
scheduling interface and the block/record wire format — neither knows
whether time is simulated or real, nor whether a "disk write" is a modelled
delay or an ``os.pwrite``.  This package supplies the real implementations:

* :mod:`repro.live.clock` — :class:`RealTimeScheduler`, the ``Simulator``
  interface on an asyncio event loop;
* :mod:`repro.live.storage` — :class:`FileBackedDrive` (preallocated log
  files, ``pwrite`` + coalesced ``fsync`` on a bounded thread pool) and
  :class:`FileBackedDatabase`;
* :mod:`repro.live.protocol` — the length-prefixed BEGIN/UPDATE/COMMIT/ABORT
  wire protocol;
* :mod:`repro.live.server` — the asyncio append/commit service;
* :mod:`repro.live.loadgen` — the closed-loop load generator.

The log managers themselves run byte-for-byte unmodified.
"""
