"""Robustness of the sweep cache and the parallel runner.

Covers the failure modes a long evaluation campaign actually hits: cache
entries truncated by a killed writer, cache entries from a foreign schema,
Ctrl-C in the middle of a fan-out, and a worker pool dying underneath the
sweep.  The contract in every case: fail *cleanly*, name what completed,
never serve garbage.
"""

from __future__ import annotations

import json

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.errors import ParallelExecutionError, SweepInterruptedError
from repro.harness.config import SimulationConfig
from repro.harness.parallel import ParallelRunner, execute_run
from repro.harness.sweep import SweepCache

RUNTIME = 8.0


def _config(seed: int = 0) -> SimulationConfig:
    return SimulationConfig.ephemeral((18, 16), runtime=RUNTIME, seed=seed)


class TestSweepCacheQuarantine:
    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("point", {"value": 1})
        path = cache._path("point")
        path.write_text(path.read_text()[:10])  # killed mid-rewrite
        assert cache.get("point") is None
        assert cache.corrupt_entries == 1
        assert path.with_suffix(".corrupt").exists()
        assert not path.exists()
        # The slot is usable again.
        cache.put("point", {"value": 2})
        assert cache.get("point") == {"value": 2}

    def test_non_dict_document_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("point", {"value": 1})
        cache._path("point").write_text(json.dumps([1, 2, 3]))
        assert cache.get("point") is None
        assert cache.corrupt_entries == 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.corrupt_entries == 0
        assert cache.misses == 1

    def test_public_quarantine_by_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("bad", {"schema": "foreign"})
        target = cache.quarantine("bad")
        assert target is not None and target.suffix == ".corrupt"
        assert cache.get("bad") is None
        # Quarantining an absent key is a no-op, not an error.
        assert cache.quarantine("bad") is None

    def test_clear_removes_quarantined_files_too(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.quarantine("a")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_runner_quarantines_undeserialisable_run_entry(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = _config()
        fingerprint = config.fingerprint()
        # Valid JSON dict, but not a SimulationResult document.
        cache.put(f"run-{fingerprint}", {"foreign": True})
        runner = ParallelRunner(jobs=1, cache=cache)
        result = runner.run_one(config)
        assert result.transactions_committed > 0
        assert cache.corrupt_entries == 1
        assert runner.runs_executed == 1  # recomputed, not served
        # The recomputed document replaced the quarantined one.
        fresh = ParallelRunner(jobs=1, cache=cache)
        fresh.run_one(config)
        assert fresh.cache_hits == 1


def _interrupting_worker(config):
    if config.seed >= 2:
        raise KeyboardInterrupt
    return execute_run(config)


def _pool_killing_worker(config):
    raise BrokenProcessPool("a worker died unexpectedly")


class TestSweepInterruption:
    def test_serial_interrupt_names_completed_runs(self, tmp_path):
        cache = SweepCache(tmp_path)
        runner = ParallelRunner(
            jobs=1, cache=cache, worker=_interrupting_worker
        )
        configs = [_config(seed) for seed in range(4)]
        with pytest.raises(SweepInterruptedError) as info:
            runner.run_many(configs)
        error = info.value
        assert isinstance(error, ParallelExecutionError)  # one catch point
        completed = {c.fingerprint() for c in configs[:2]}
        assert set(error.completed_fingerprints) == completed
        assert "2 of 4" in str(error)
        assert "resumes" in str(error)  # cache attached => resume hint

    def test_interrupt_without_cache_has_no_resume_hint(self):
        runner = ParallelRunner(jobs=1, worker=_interrupting_worker)
        with pytest.raises(SweepInterruptedError) as info:
            runner.run_many([_config(seed) for seed in range(3)])
        assert "resumes" not in str(info.value)

    def test_completed_prefix_resumes_from_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        configs = [_config(seed) for seed in range(4)]
        with pytest.raises(SweepInterruptedError):
            ParallelRunner(
                jobs=1, cache=cache, worker=_interrupting_worker
            ).run_many(configs)
        # Re-run with a healthy worker: the two completed runs come from
        # the cache, only the interrupted remainder executes.
        resumed = ParallelRunner(jobs=1, cache=cache)
        results = resumed.run_many(configs)
        assert len(results) == 4
        assert resumed.cache_hits == 2
        assert resumed.runs_executed == 2

    def test_pooled_broken_pool_is_not_retried(self):
        runner = ParallelRunner(jobs=2, worker=_pool_killing_worker)
        configs = [_config(seed) for seed in range(3)]
        with pytest.raises(SweepInterruptedError) as info:
            runner.run_many(configs)
        # A dead pool aborts the sweep; nothing completed.
        assert info.value.completed_fingerprints == []
        assert runner._pool is None  # pool torn down on the way out
