"""Property-based crash-consistency tests (design invariant 5).

For an arbitrary crash instant, single-pass recovery over the durable log
plus the stable database must reconstruct exactly the updates of
transactions acknowledged by then — through buffering, group commit,
forwarding, recirculation and flushing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.crash import crash_simulation
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import Simulation
from repro.recovery.two_pass import TwoPassRecovery


def crash_and_verify(config: SimulationConfig, crash_time: float) -> None:
    simulation = Simulation(config)
    check = crash_simulation(simulation, crash_time)
    report = check.report
    assert report.ok, (
        f"{report.violations} violations at t={crash_time}: "
        f"lost {report.lost_updates[:5]}, phantom {report.phantom_objects[:5]}"
    )
    # The traditional two-pass structure must agree exactly.
    stable = simulation.capture_stable_database()
    assert TwoPassRecovery(check.recovery.images).recover(stable) == check.recovered


def small_config(**kwargs) -> SimulationConfig:
    defaults = dict(
        long_fraction=0.2,
        arrival_rate=40.0,
        runtime=30.0,
        num_objects=5000,
        flush_drives=2,
        flush_write_seconds=0.01,
        sample_period=1.0,
        collect_truth=True,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestCrashConsistencyEphemeral:
    @given(crash_time=st.floats(min_value=0.5, max_value=25.0))
    @settings(max_examples=10, deadline=None)
    def test_el_with_recirculation(self, crash_time):
        config = small_config(
            technique=Technique.EPHEMERAL,
            generation_sizes=(6, 5),
            recirculation=True,
        )
        crash_and_verify(config, crash_time)

    @given(crash_time=st.floats(min_value=0.5, max_value=25.0))
    @settings(max_examples=6, deadline=None)
    def test_el_without_recirculation(self, crash_time):
        config = small_config(
            technique=Technique.EPHEMERAL,
            generation_sizes=(6, 8),
            recirculation=False,
        )
        crash_and_verify(config, crash_time)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=6, deadline=None)
    def test_el_random_seeds(self, seed):
        config = small_config(
            technique=Technique.EPHEMERAL,
            generation_sizes=(6, 5),
            recirculation=True,
            seed=seed,
        )
        crash_and_verify(config, 18.0)


class TestCrashConsistencyFirewall:
    @given(crash_time=st.floats(min_value=0.5, max_value=25.0))
    @settings(max_examples=6, deadline=None)
    def test_fw(self, crash_time):
        config = small_config(
            technique=Technique.FIREWALL,
            generation_sizes=(40,),
            recirculation=False,
        )
        crash_and_verify(config, crash_time)


class TestCrashConsistencyHybrid:
    @given(crash_time=st.floats(min_value=0.5, max_value=25.0))
    @settings(max_examples=6, deadline=None)
    def test_hybrid(self, crash_time):
        config = small_config(
            technique=Technique.HYBRID,
            generation_sizes=(10, 40),
            recirculation=True,
        )
        crash_and_verify(config, crash_time)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=4, deadline=None)
    def test_hybrid_random_seeds(self, seed):
        config = small_config(
            technique=Technique.HYBRID,
            generation_sizes=(10, 40),
            recirculation=True,
            seed=seed,
        )
        crash_and_verify(config, 18.0)


class TestCrashConsistencyUnderPressure:
    @pytest.mark.parametrize("crash_time", [5.0, 12.0, 22.0])
    def test_scarce_flush_bandwidth(self, crash_time):
        # Slow flushing forces committed-unflushed records through
        # recirculation and pressure-mode demand flushes.
        config = small_config(
            technique=Technique.EPHEMERAL,
            generation_sizes=(8, 8),
            recirculation=True,
            flush_write_seconds=0.04,
        )
        crash_and_verify(config, crash_time)

    @pytest.mark.parametrize("crash_time", [8.0, 20.0])
    def test_with_kills_happening(self, crash_time):
        # An undersized log kills transactions; acknowledged work must
        # still recover exactly.
        config = small_config(
            technique=Technique.EPHEMERAL,
            generation_sizes=(5, 4),
            recirculation=False,
            long_fraction=0.3,
        )
        crash_and_verify(config, crash_time)
