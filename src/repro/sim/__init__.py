"""Discrete-event simulation engine.

The paper's evaluation is driven by "an event-driven simulator ... written in
C".  This package is the Python equivalent: a deterministic event scheduler
(:mod:`repro.sim.engine`), cancellable event handles (:mod:`repro.sim.events`)
and a seedable random-number facade (:mod:`repro.sim.rng`).  Traced runs
record into :class:`repro.obs.events.EventStream`.
"""
