"""Parallel execution of independent simulation runs.

The evaluation's wall-clock cost is dominated by many *independent*
simulations (every probe of a minimum-space search, every point of a
figure sweep).  :class:`ParallelRunner` fans those runs across a
``multiprocessing`` pool:

* **Determinism** — each worker rebuilds the simulation from the pickled
  :class:`~repro.harness.config.SimulationConfig`, so a run is bit-identical
  to a serial run of the same config (the engine is seeded and has no
  wall-clock coupling).  Results are returned in request order.
* **Per-run caching** — when given a
  :class:`~repro.harness.sweep.SweepCache`, completed runs are stored under
  ``run-<config fingerprint>`` keys, so probes shared between experiments
  (the Figure 4/5/6 sweep, Figure 7, the ablations) execute at most once
  per cache directory, across processes and across invocations.
* **Failures** — a run that raises in a worker raises
  :class:`~repro.errors.ParallelExecutionError`; runs are deterministic,
  so a retry would raise again.  Ctrl-C or a dead pool raises
  :class:`~repro.errors.SweepInterruptedError` naming the completed runs.
* **Observability** — every executed run contributes a small worker
  manifest (pid, wall seconds, fingerprint, event count) that
  :func:`repro.obs.manifest.aggregate_worker_manifests` folds into the
  parent experiment's run manifest.

``jobs=1`` degrades to plain in-process execution (no pool, no pickling),
which is also the safe mode inside already-parallel callers.  The runner is
thread-safe: several searches may share one runner (and its pool) from
worker threads, which is how the figure drivers overlap independent
searches without oversubscribing the machine.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from concurrent.futures.process import BrokenProcessPool

from repro.errors import ParallelExecutionError, SweepInterruptedError
from repro.harness.config import SimulationConfig
from repro.harness.results import SimulationResult
from repro.harness.simulator import run_simulation
from repro.harness.sweep import SweepCache

#: A worker entry point: one config in, (result, worker-manifest) out.
Worker = Callable[[SimulationConfig], Tuple[SimulationResult, dict]]


def default_jobs() -> int:
    """``$REPRO_JOBS`` when set, else 1 (serial, the conservative default)."""
    value = os.environ.get("REPRO_JOBS")
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return 1


def execute_run(config: SimulationConfig) -> Tuple[SimulationResult, dict]:
    """Run one simulation and describe the work (the pool worker body).

    Module-level so it pickles by reference into pool workers.
    """
    started = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - started
    manifest = {
        "pid": os.getpid(),
        "fingerprint": config.fingerprint(),
        "label": config.technique.value,
        "seed": config.seed,
        "generation_sizes": list(config.generation_sizes),
        "wall_seconds": wall,
        "events_executed": result.events_executed,
    }
    return result, manifest


class ParallelRunner:
    """Runs batches of independent simulations, optionally across processes.

    May be used as a context manager; otherwise call :meth:`close` to
    release the worker pool (the pool is created lazily on the first
    multi-run batch, so a ``jobs=1`` runner never forks).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[SweepCache] = None,
        worker: Worker = execute_run,
    ):
        self.jobs = max(1, int(jobs) if jobs is not None else default_jobs())
        self.cache = cache
        self.worker = worker
        self.runs_executed = 0
        self.cache_hits = 0
        self.worker_manifests: List[dict] = []
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        with self._lock:
            if self._pool is None:
                self._pool = multiprocessing.get_context().Pool(self.jobs)
            return self._pool

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, config: SimulationConfig) -> SimulationResult:
        """Run (or recall) a single configuration."""
        return self.run_many([config])[0]

    def run_many(
        self, configs: Sequence[SimulationConfig]
    ) -> List[SimulationResult]:
        """Run every config, returning results in request order.

        Duplicate configs (same fingerprint) within a batch execute once;
        cached configs don't execute at all.
        """
        results: List[Optional[SimulationResult]] = [None] * len(configs)
        pending: Dict[str, Tuple[SimulationConfig, List[int]]] = {}
        for index, config in enumerate(configs):
            fingerprint = config.fingerprint()
            if fingerprint in pending:
                pending[fingerprint][1].append(index)
                continue
            cached = self._cache_get(fingerprint)
            if cached is not None:
                results[index] = cached
                continue
            pending[fingerprint] = (config, [index])

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                executed = self._run_serial(pending)
            else:
                executed = self._run_pooled(pending)
            for fingerprint, result in executed.items():
                for index in pending[fingerprint][1]:
                    results[index] = result
        return results  # type: ignore[return-value]  # every slot is filled

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_get(self, fingerprint: str) -> Optional[SimulationResult]:
        if self.cache is None:
            return None
        document = self.cache.get(f"run-{fingerprint}")
        if document is None:
            return None
        try:
            result = SimulationResult.from_dict(document)
        except (TypeError, KeyError, ValueError):
            # Parsed as JSON but doesn't deserialise (truncated rewrite,
            # foreign schema): quarantine the entry and recompute.
            self.cache.quarantine(f"run-{fingerprint}")
            return None
        with self._lock:
            self.cache_hits += 1
        return result

    def _record(
        self, fingerprint: str, result: SimulationResult, manifest: dict
    ) -> None:
        if self.cache is not None:
            self.cache.put(f"run-{fingerprint}", result.to_dict())
        with self._lock:
            self.runs_executed += 1
            self.worker_manifests.append(manifest)

    def _interrupted(
        self,
        cause: BaseException,
        executed: Dict[str, SimulationResult],
        pending: Dict[str, Tuple[SimulationConfig, List[int]]],
    ) -> SweepInterruptedError:
        """Convert an interruption into a resumable partial-result error."""
        completed = sorted(executed)
        resume = (
            "; completed runs are in the per-run cache — re-running the "
            "sweep resumes from them"
            if self.cache is not None
            else ""
        )
        return SweepInterruptedError(
            f"sweep interrupted by {type(cause).__name__} with "
            f"{len(completed)} of {len(pending)} run(s) completed{resume}",
            completed_fingerprints=completed,
        )

    def _run_serial(
        self, pending: Dict[str, Tuple[SimulationConfig, List[int]]]
    ) -> Dict[str, SimulationResult]:
        executed: Dict[str, SimulationResult] = {}
        for fingerprint, (config, _indexes) in pending.items():
            try:
                result, manifest = self.worker(config)
            except KeyboardInterrupt as exc:
                raise self._interrupted(exc, executed, pending) from exc
            self._record(fingerprint, result, manifest)
            executed[fingerprint] = result
        return executed

    def _run_pooled(
        self, pending: Dict[str, Tuple[SimulationConfig, List[int]]]
    ) -> Dict[str, SimulationResult]:
        pool = self._ensure_pool()
        executed: Dict[str, SimulationResult] = {}
        async_results = {
            fp: pool.apply_async(self.worker, (config,))
            for fp, (config, _indexes) in pending.items()
        }
        failed: List[SimulationConfig] = []
        last_error: Optional[BaseException] = None
        for fp, async_result in async_results.items():
            try:
                result, manifest = async_result.get()
            except (KeyboardInterrupt, BrokenProcessPool) as exc:
                # Ctrl-C or a dead pool is not a per-run failure:
                # surface what already completed so the sweep can be
                # resumed from the cache instead of restarted.
                self.close()
                raise self._interrupted(exc, executed, pending) from exc
            except Exception as exc:  # the worker raised
                last_error = exc
                failed.append(pending[fp][0])
            else:
                self._record(fp, result, manifest)
                executed[fp] = result
        if failed:
            raise ParallelExecutionError(
                f"{len(failed)} run(s) failed; first: {failed[0]!r}"
            ) from last_error
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelRunner jobs={self.jobs} executed={self.runs_executed} "
            f"cache_hits={self.cache_hits}>"
        )
