"""Tests for the minimum-space searches.

Most use a stubbed runner: a synthetic feasibility rule (kills iff total
blocks below a threshold) makes the searches fast and their correctness
exactly checkable.  ``TestStopAtFirstKill`` runs real short searches.
"""

from __future__ import annotations

import pytest

from repro.errors import SearchError
from repro.harness.config import SimulationConfig, Technique
from repro.harness.results import GenerationResult, SimulationResult
from repro.harness.parallel import ParallelRunner
from repro.harness.search import SpaceSearch
from repro.harness.simulator import run_simulation
from repro.harness.sweep import SweepCache


def stub_runner_factory(feasible_rule):
    """A runner whose kill count follows ``feasible_rule(sizes)``."""

    calls = []

    def runner(config: SimulationConfig) -> SimulationResult:
        calls.append(config.generation_sizes)
        feasible = feasible_rule(config.generation_sizes)
        result = SimulationResult(
            technique=config.technique.value,
            generation_sizes=list(config.generation_sizes),
            recirculation=config.recirculation,
            long_fraction=config.long_fraction,
            runtime=config.runtime,
            seed=config.seed,
            flush_write_seconds=config.flush_write_seconds,
            transactions_killed=0 if feasible else 5,
        )
        result.generations = [
            GenerationResult(s, 0, 0, 0, 0.0, 0, 0) for s in config.generation_sizes
        ]
        return result

    runner.calls = calls
    return runner


class TestFwMinimum:
    def test_finds_exact_threshold(self):
        runner = stub_runner_factory(lambda sizes: sizes[0] >= 123)
        template = SimulationConfig.firewall(50, runtime=10.0)
        outcome = SpaceSearch(template, runner).fw_minimum()
        assert outcome.sizes == (123,)

    def test_threshold_at_floor(self):
        runner = stub_runner_factory(lambda sizes: sizes[0] >= 3)
        template = SimulationConfig.firewall(50, runtime=10.0)
        outcome = SpaceSearch(template, runner).fw_minimum()
        assert outcome.sizes == (3,)  # gap + 1 is the smallest legal size

    def test_caches_repeat_evaluations(self):
        runner = stub_runner_factory(lambda sizes: sizes[0] >= 60)
        search = SpaceSearch(SimulationConfig.firewall(50, runtime=10.0), runner)
        search.fw_minimum()
        assert len(runner.calls) == len(set(runner.calls))

    def test_unsatisfiable_raises(self):
        runner = stub_runner_factory(lambda sizes: False)
        search = SpaceSearch(SimulationConfig.firewall(50, runtime=10.0), runner)
        with pytest.raises(SearchError):
            search.fw_minimum()

    def test_requires_fw_template(self):
        runner = stub_runner_factory(lambda sizes: True)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        with pytest.raises(SearchError):
            SpaceSearch(template, runner).fw_minimum()

    def test_estimate_scales_with_longest_duration(self):
        template = SimulationConfig.firewall(50, long_fraction=0.05, runtime=10.0)
        estimate = SpaceSearch(template, stub_runner_factory(lambda s: True)).estimate_fw_blocks()
        # ~11.3 blocks/s for 11 s plus slack.
        assert 100 <= estimate <= 160


class TestElMinimum:
    def test_joint_minimum_found(self):
        # Feasible iff gen1 >= 40 - gen0 (total of 40), with gen0 <= 30.
        def rule(sizes):
            gen0, gen1 = sizes
            return gen0 <= 30 and gen0 + gen1 >= 40

        runner = stub_runner_factory(rule)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        outcome = SpaceSearch(template, runner).el_minimum([8, 16, 24, 30], refine_radius=1)
        assert outcome.total_blocks == 40

    def test_respects_gen0_candidates(self):
        def rule(sizes):
            gen0, gen1 = sizes
            return gen0 + 2 * gen1 >= 60  # favours large gen0

        runner = stub_runner_factory(rule)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        outcome = SpaceSearch(template, runner).el_minimum([10, 20, 40], refine_radius=0)
        gen0, gen1 = outcome.sizes
        assert gen0 in (10, 20, 40)
        assert gen0 + 2 * gen1 >= 60
        assert gen0 + 2 * (gen1 - 1) < 60  # gen1 is minimal for that gen0

    def test_refinement_improves_best(self):
        # Optimal gen0 is 19, just off the candidate grid.
        def rule(sizes):
            gen0, gen1 = sizes
            needed = 10 if gen0 == 19 else 20
            return gen1 >= needed

        runner = stub_runner_factory(rule)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        without = SpaceSearch(template, runner).el_minimum([18], refine_radius=0)
        with_refine = SpaceSearch(template, runner).el_minimum([18], refine_radius=1)
        assert with_refine.total_blocks < without.total_blocks
        assert with_refine.sizes == (19, 10)

    def test_requires_el_template(self):
        runner = stub_runner_factory(lambda sizes: True)
        template = SimulationConfig.firewall(50, runtime=10.0)
        with pytest.raises(SearchError):
            SpaceSearch(template, runner).el_minimum([10])

    def test_custom_feasibility_criterion(self):
        # Feasibility can be stricter than zero kills (the scarce-flush
        # experiment also caps bandwidth); here: require >= 20 total blocks
        # even though the stub never kills anyone.
        runner = stub_runner_factory(lambda sizes: True)
        search = SpaceSearch(
            SimulationConfig.firewall(50, runtime=10.0),
            runner,
            feasible_fn=lambda result: sum(result.generation_sizes) >= 20,
        )
        outcome = search.fw_minimum()
        assert outcome.sizes == (20,)

    def test_extra_criterion_cannot_accept_a_kill(self):
        # ``feasible_fn`` only adds to the zero-kills rule: a run with kills
        # is rejected even by a test that accepts everything.
        runner = stub_runner_factory(lambda sizes: sizes[0] >= 30)
        search = SpaceSearch(
            SimulationConfig.firewall(50, runtime=10.0),
            runner,
            feasible_fn=lambda result: True,
        )
        assert search.fw_minimum().sizes == (30,)

    def test_infeasible_gen0_candidates_skipped(self):
        # gen0 below 15 never satisfies the rule, at any gen1; the joint
        # search must skip those candidates rather than error out.
        def rule(sizes):
            gen0, gen1 = sizes
            return gen0 >= 15 and gen1 >= 10

        runner = stub_runner_factory(rule)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        search = SpaceSearch(template, runner)
        search.MAX_BLOCKS = 64
        outcome = search.el_minimum([8, 15, 20], refine_radius=0)
        assert outcome.sizes == (15, 10)

    def test_all_candidates_infeasible_raises(self):
        runner = stub_runner_factory(lambda sizes: False)
        template = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        search = SpaceSearch(template, runner)
        search.MAX_BLOCKS = 32
        with pytest.raises(SearchError):
            search.el_minimum([8, 16], refine_radius=0)

    def test_history_records_feasibility(self):
        runner = stub_runner_factory(lambda sizes: sizes[0] >= 10)
        search = SpaceSearch(SimulationConfig.firewall(50, runtime=10.0), runner)
        outcome = search.fw_minimum()
        assert outcome.runs == len(outcome.history)
        assert all(isinstance(flag, bool) for _, flag in outcome.history)


#: Short real searches: the FW one and the EL one (one gen-0 candidate, no
#: refinement) of a reduced Figure 4 column at the 5 % mix.
SHORT_SEARCHES = {
    "fw": (
        SimulationConfig.firewall(64, long_fraction=0.05, runtime=10.0),
        lambda search: search.fw_minimum(),
    ),
    "el": (
        SimulationConfig.ephemeral(
            (18, 16), recirculation=False, long_fraction=0.05, runtime=10.0
        ),
        lambda search: search.el_minimum((16,), refine_radius=0),
    ),
}


def without_wall(result: SimulationResult) -> dict:
    data = result.to_dict()
    data.pop("wall_seconds")
    return data


def full_span(config: SimulationConfig) -> SimulationConfig:
    return config.replace(stop_at_first_kill=False)


@pytest.fixture(scope="module", params=sorted(SHORT_SEARCHES))
def searched(request):
    """A stopping search, the same search forced to full spans, and every
    probe the stopping one ran (config, result)."""
    template, minimise = SHORT_SEARCHES[request.param]
    probes = []

    def recording(config: SimulationConfig) -> SimulationResult:
        result = run_simulation(config)
        probes.append((config, result))
        return result

    stopping = minimise(SpaceSearch(template, recording))
    full = minimise(
        SpaceSearch(template, lambda config: run_simulation(full_span(config)))
    )
    return stopping, full, probes


class TestStopAtFirstKill:
    def test_same_outcome_as_full_spans(self, searched):
        stopping, full, _ = searched
        assert stopping.sizes == full.sizes
        assert stopping.runs == full.runs
        assert stopping.history == full.history
        assert stopping.result.stopped_at is None
        assert without_wall(stopping.result) == without_wall(full.result)

    def test_rejected_probes_stop_at_their_first_kill(self, searched):
        _, _, probes = searched
        stopped = [(c, r) for c, r in probes if r.stopped_at is not None]
        assert stopped, "the search should reject at least one size by a kill"
        for config, result in probes:
            assert config.stop_at_first_kill
            assert (result.stopped_at is None) == result.no_kills
        for config, result in stopped:
            assert 0 < result.stopped_at < config.runtime
            assert result.transactions_killed >= 1
            assert not result.no_kills
        config, result = stopped[0]
        assert config.fingerprint() != full_span(config).fingerprint()
        whole = run_simulation(full_span(config))
        assert whole.stopped_at is None
        assert whole.events_executed > result.events_executed

    def test_shared_cache_never_serves_a_stopped_result(self, searched, tmp_path):
        _, _, probes = searched
        config, stopped = next((c, r) for c, r in probes if r.stopped_at is not None)
        cache = SweepCache(tmp_path)
        with ParallelRunner(jobs=1, cache=cache) as runner:
            assert runner.run_one(config).stopped_at == stopped.stopped_at
        with ParallelRunner(jobs=1, cache=cache) as runner:
            whole = runner.run_one(full_span(config))
            assert runner.runs_executed == 1 and runner.cache_hits == 0
            assert runner.run_one(config).stopped_at == stopped.stopped_at
            assert runner.cache_hits == 1
        assert whole.stopped_at is None
        assert without_wall(whole) == without_wall(run_simulation(full_span(config)))
