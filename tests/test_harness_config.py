"""Tests for SimulationConfig validation and helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.harness.config import SimulationConfig, Technique
from repro.workload.spec import paper_mix


class TestValidation:
    def test_defaults_are_paper_values(self):
        config = SimulationConfig()
        assert config.arrival_rate == 100.0
        assert config.runtime == 500.0
        assert config.num_objects == 10_000_000
        assert config.payload_bytes == 2000
        assert config.gap_blocks == 2
        assert config.flush_drives == 10
        assert config.flush_write_seconds == 0.025

    def test_empty_generation_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(generation_sizes=())

    def test_fw_requires_single_queue(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                technique=Technique.FIREWALL,
                generation_sizes=(10, 10),
                recirculation=False,
            )

    def test_fw_never_recirculates(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                technique=Technique.FIREWALL,
                generation_sizes=(10,),
                recirculation=True,
            )

    def test_generation_must_exceed_gap(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(generation_sizes=(18, 2))

    @pytest.mark.parametrize("field,value", [
        ("runtime", 0.0),
        ("arrival_rate", -1.0),
        ("sample_period", 0.0),
    ])
    def test_positive_fields(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: value})


class TestHelpers:
    def test_workload_mix_from_fraction(self):
        config = SimulationConfig(long_fraction=0.25)
        mix = config.workload_mix()
        assert mix.types[1].probability == pytest.approx(0.25)

    def test_explicit_mix_wins(self):
        explicit = paper_mix(0.4)
        config = SimulationConfig(long_fraction=0.05, mix=explicit)
        assert config.workload_mix() is explicit

    def test_replace(self):
        config = SimulationConfig()
        changed = config.replace(runtime=60.0)
        assert changed.runtime == 60.0
        assert config.runtime == 500.0

    def test_total_blocks(self):
        assert SimulationConfig(generation_sizes=(18, 16)).total_blocks == 34

    def test_firewall_constructor(self):
        config = SimulationConfig.firewall(123, long_fraction=0.1)
        assert config.technique is Technique.FIREWALL
        assert config.generation_sizes == (123,)
        assert not config.recirculation

    def test_ephemeral_constructor(self):
        config = SimulationConfig.ephemeral([18, 16], recirculation=False)
        assert config.technique is Technique.EPHEMERAL
        assert config.generation_sizes == (18, 16)
