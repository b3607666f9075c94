"""Ablations over EL's design choices, at a 25 s simulated span.

Not paper figures: each test checks one of the paper's qualitative design
arguments or §6 proposals on the simulator — recirculation, the policy for
committed-unflushed records at a head, lifetime-hint placement, the EL-FW
hybrid, the generation count and Poisson arrivals.
"""

from __future__ import annotations

import pytest

from repro.core.interface import UnflushedHeadPolicy
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import run_simulation

RUNTIME = 25.0


def test_recirculation_keeps_a_small_log_alive():
    # Below the no-recirculation minimum, recirculation is what keeps
    # transactions alive.
    config = SimulationConfig.ephemeral((18, 10), recirculation=True, runtime=RUNTIME)
    with_recirc = run_simulation(config)
    without = run_simulation(config.replace(recirculation=False))
    assert with_recirc.no_kills
    assert without.transactions_killed > 0


def test_demand_flush_at_head_trades_recirculation_for_flushes():
    keep = SimulationConfig.ephemeral(
        (18, 12), runtime=RUNTIME, flush_write_seconds=0.045
    )
    kept = run_simulation(keep)
    flushed = run_simulation(
        keep.replace(unflushed_head_policy=UnflushedHeadPolicy.DEMAND_FLUSH)
    )
    assert flushed.demand_flushes > kept.demand_flushes
    assert flushed.recirculated_records <= kept.recirculated_records


def test_lifetime_placement_cuts_forwarding():
    # "It directly adds the transaction's log records to the tail of a
    # generation in which the records are unlikely to reach the head."
    base = SimulationConfig.ephemeral((18, 16), long_fraction=0.2, runtime=RUNTIME)
    plain = run_simulation(base)
    placed = run_simulation(base.replace(placement_boundaries=(5.0,)))
    assert placed.forwarded_records < plain.forwarded_records


def test_hybrid_trades_memory_for_bandwidth():
    # "This can drastically reduce main memory consumption ... but at a
    # price of higher bandwidth."
    el = run_simulation(SimulationConfig.ephemeral((18, 16), runtime=RUNTIME))
    hybrid = run_simulation(
        SimulationConfig(
            technique=Technique.HYBRID,
            generation_sizes=(24, 40),
            recirculation=True,
            runtime=RUNTIME,
        )
    )
    assert hybrid.memory_peak_bytes < el.memory_peak_bytes
    assert hybrid.failed is None


@pytest.mark.parametrize("generations", [2, 3])
def test_advisor_sized_generations_sustain_three_lifetime_classes(generations):
    from repro.core.sizing import recommend_generation_sizes
    from repro.workload.spec import TransactionType, WorkloadMix

    mix = WorkloadMix(
        [
            TransactionType("short", 0.80, 1.0, 2, 100),
            TransactionType("medium", 0.17, 10.0, 4, 100),
            TransactionType("long", 0.03, 60.0, 6, 100),
        ]
    )
    advice = recommend_generation_sizes(mix, 100.0, generations=generations)
    result = run_simulation(
        SimulationConfig(
            generation_sizes=advice.generation_sizes,
            recirculation=True,
            mix=mix,
            arrival_rate=100.0,
            runtime=RUNTIME,
        )
    )
    assert result.no_kills


def test_poisson_arrivals_match_deterministic_rate():
    base = SimulationConfig.ephemeral((20, 16), runtime=RUNTIME)
    deterministic = run_simulation(base)
    poisson = run_simulation(base.replace(poisson_arrivals=True))
    assert poisson.transactions_begun == pytest.approx(
        deterministic.transactions_begun, rel=0.15
    )
