"""Minimum-disk-space searches.

"For both FW and EL, we continued to run simulations and reduce the disk
space until we observed transactions being killed.  Hence, these results
reflect the minimum disk space requirements ... in which no transaction is
killed."

The searches automate that manual procedure.  Feasibility (zero kills over
the run) is treated as monotone in space: the FW search is a 1-D
exponential bracket plus bisection; the EL search jointly minimises
(gen0, gen1) by bisecting gen1 for each candidate gen0 and refining around
the best candidate.

One kill decides: every probe runs with ``stop_at_first_kill``, so a
rejected size stops simulating at its first kill, and only a kill stops a
run.  A feasible probe never kills, so it runs its full span and its
result is the one a plain run of that size gives.  A caller's extra
acceptance test (``feasible_fn``) can reject more sizes but never accept a
run with a kill, so stopping early cannot change a decision.

With a :class:`~repro.harness.parallel.ParallelRunner` attached the search
turns *speculative*: before an uncached probe it evaluates the probes the
serial algorithm might need next (the rest of the exponential bracket, the
next levels of the bisection tree) as one concurrent batch.  Speculation is
strictly a prefetch — the decision sequence afterwards replays the serial
algorithm against the probe cache — so the returned sizes and result are
identical to a serial search; only wall-clock time (and possibly the run
count) changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.harness.parallel import ParallelRunner

from repro.errors import SearchError
from repro.harness.config import SimulationConfig, Technique
from repro.harness.results import SimulationResult
from repro.harness.simulator import run_simulation

#: Injection point so tests can stub the expensive runner.
Runner = Callable[[SimulationConfig], SimulationResult]


def _bracket_points(start: int, width: int, cap: int) -> List[int]:
    """The next ``width`` sizes the exponential bracket would try."""
    points: List[int] = []
    n = start
    while len(points) < width:
        points.append(n)
        if n >= cap:
            break
        n = min(max(n * 2, n + 1), cap)
    return points


def _bisection_frontier(lo: int, hi: int, width: int, floor: int) -> List[int]:
    """Up to ``width`` midpoints from the top of the bisection tree.

    Breadth-first over the interval tree rooted at ``(lo, hi)``: the
    immediate midpoint first, then the midpoints of both possible child
    intervals, and so on — exactly the probes the serial bisection can
    reach within the next few rounds.  Sub-floor midpoints are decided
    without simulation (the serial loop just raises ``lo``), so the
    frontier descends through them for free.
    """
    points: List[int] = []
    queue = [(lo, hi)]
    while queue and len(points) < width:
        left, right = queue.pop(0)
        if right - left <= 1:
            continue
        mid = (left + right) // 2
        if mid < floor:
            queue.append((mid, right))
            continue
        points.append(mid)
        queue.append((left, mid))
        queue.append((mid, right))
    return points


@dataclass
class SearchOutcome:
    """Result of one minimisation."""

    sizes: Tuple[int, ...]
    result: SimulationResult
    runs: int
    history: List[Tuple[Tuple[int, ...], bool]] = field(default_factory=list)

    @property
    def total_blocks(self) -> int:
        return sum(self.sizes)


class SpaceSearch:
    """Runs minimum-space searches against a configuration template."""

    #: Hard ceiling on any single dimension, to catch broken configurations
    #: before an unbounded exponential search melts the machine.
    MAX_BLOCKS = 1 << 14

    def __init__(
        self,
        template: SimulationConfig,
        runner: Optional[Runner] = None,
        feasible_fn: Optional[Callable[[SimulationResult], bool]] = None,
        parallel: Optional["ParallelRunner"] = None,
    ):
        """``feasible_fn`` is an extra acceptance test on top of the paper's
        zero-kills rule.  The scarce-flush experiment, for example, also
        rejects configurations that only survive by demand-flushing at the
        head.

        ``parallel`` attaches a :class:`~repro.harness.parallel.ParallelRunner`;
        when its ``jobs`` exceed 1 the search prefetches speculative probe
        batches through it (see the module docstring).  Unless ``runner`` is
        also given, single probes then go through ``parallel.run_one`` too,
        so they share its per-run result cache.
        """
        self.template = template
        if runner is None:
            runner = parallel.run_one if parallel is not None else run_simulation
        self.runner: Runner = runner
        self.feasible_fn = feasible_fn
        self.parallel = parallel
        self.runs = 0
        self._cache: Dict[Tuple[int, ...], SimulationResult] = {}
        self.history: List[Tuple[Tuple[int, ...], bool]] = []

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _probe(self, sizes: Tuple[int, ...]) -> SimulationConfig:
        """The template at ``sizes``, ending at its first kill."""
        return self.template.replace(
            generation_sizes=tuple(sizes), stop_at_first_kill=True
        )

    def _accepts(self, result: SimulationResult) -> bool:
        """Zero kills, and the caller's extra test if one was given."""
        return result.no_kills and (
            self.feasible_fn is None or self.feasible_fn(result)
        )

    def evaluate(self, sizes: Tuple[int, ...]) -> SimulationResult:
        """Run (or recall) the template at the given generation sizes."""
        cached = self._cache.get(sizes)
        if cached is not None:
            return cached
        result = self.runner(self._probe(sizes))
        self._cache[sizes] = result
        self.runs += 1
        self.history.append((sizes, self._accepts(result)))
        return result

    def feasible(self, sizes: Tuple[int, ...]) -> bool:
        return self._accepts(self.evaluate(sizes))

    def _speculation_width(self) -> int:
        """How many probes to evaluate concurrently (1 = no speculation)."""
        if self.parallel is None:
            return 1
        return self.parallel.jobs

    def prefetch(self, batch: List[Tuple[int, ...]]) -> None:
        """Evaluate a speculative probe batch concurrently into the cache.

        Probes already evaluated are skipped; with no parallel runner (or a
        degenerate batch) this is a no-op and the serial path evaluates
        probes on demand.
        """
        todo: List[Tuple[int, ...]] = []
        for sizes in batch:
            sizes = tuple(sizes)
            if sizes not in self._cache and sizes not in todo:
                todo.append(sizes)
        if self.parallel is None or len(todo) <= 1:
            return
        results = self.parallel.run_many([self._probe(sizes) for sizes in todo])
        for sizes, result in zip(todo, results):
            self._cache[sizes] = result
            self.runs += 1
            self.history.append((sizes, self._accepts(result)))

    def estimate_fw_blocks(self) -> int:
        """Analytic starting point for the FW bracket.

        The firewall must retain roughly the log traffic generated during
        the longest transaction lifetime, plus the gap and in-flight
        buffers.
        """
        config = self.template
        mix = config.workload_mix()
        bytes_per_second = config.arrival_rate * mix.mean_log_bytes_per_transaction()
        blocks_per_second = bytes_per_second / config.payload_bytes
        longest = max(t.duration for t in mix.types)
        estimate = int(blocks_per_second * (longest + 1.0))
        return max(estimate + config.gap_blocks + config.buffer_count, self._floor())

    def _floor(self) -> int:
        return self.template.gap_blocks + 1

    # ------------------------------------------------------------------
    # 1-D search (FW, or EL with gen0 pinned)
    # ------------------------------------------------------------------
    def minimise_dimension(
        self,
        make_sizes: Callable[[int], Tuple[int, ...]],
        start: int,
    ) -> Tuple[int, SimulationResult]:
        """Smallest ``n`` with zero kills, for sizes built by ``make_sizes``."""
        floor = self._floor()
        width = self._speculation_width()
        n = max(start, floor)
        # Bracket upward until feasible.  Speculation evaluates the next
        # few doublings as one batch; the loop then consumes the cache.
        while True:
            if width > 1 and tuple(make_sizes(n)) not in self._cache:
                self.prefetch(
                    [
                        make_sizes(point)
                        for point in _bracket_points(n, width, self.MAX_BLOCKS)
                    ]
                )
            if self.feasible(make_sizes(n)):
                break
            if n >= self.MAX_BLOCKS:
                raise SearchError(
                    f"no feasible size below {self.MAX_BLOCKS} blocks; "
                    f"the workload cannot be sustained by this configuration"
                )
            n = min(max(n * 2, n + 1), self.MAX_BLOCKS)
        # Bisect down to the smallest feasible value.  Speculation runs the
        # top of the remaining bisection tree as one batch per round.
        lo, hi = floor - 1, n  # lo is infeasible-or-floor, hi is feasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid < floor:
                lo = mid
                continue
            if width > 1 and tuple(make_sizes(mid)) not in self._cache:
                self.prefetch(
                    [
                        make_sizes(point)
                        for point in _bisection_frontier(lo, hi, width, floor)
                    ]
                )
            if self.feasible(make_sizes(mid)):
                hi = mid
            else:
                lo = mid
        return hi, self.evaluate(make_sizes(hi))

    # ------------------------------------------------------------------
    # Public searches
    # ------------------------------------------------------------------
    def fw_minimum(self) -> SearchOutcome:
        """Minimum single-log size for the firewall technique."""
        if self.template.technique is not Technique.FIREWALL:
            raise SearchError("fw_minimum needs a firewall template")
        blocks, result = self.minimise_dimension(
            lambda n: (n,), self.estimate_fw_blocks()
        )
        return SearchOutcome((blocks,), result, self.runs, list(self.history))

    def el_min_gen1(self, gen0: int, start: Optional[int] = None) -> Tuple[int, SimulationResult]:
        """Minimum generation-1 size for a fixed generation-0 size."""
        start = start if start is not None else max(self._floor(), 8)
        return self.minimise_dimension(lambda n: (gen0, n), start)

    def el_minimum(
        self,
        gen0_candidates,
        refine_radius: int = 1,
    ) -> SearchOutcome:
        """Jointly minimise (gen0, gen1) total size for a two-generation EL."""
        if self.template.technique is not Technique.EPHEMERAL:
            raise SearchError("el_minimum needs an ephemeral template")
        floor = self._floor()
        best: Optional[Tuple[int, int]] = None
        best_result: Optional[SimulationResult] = None
        last_gen1: Optional[int] = None
        for gen0 in sorted(set(max(c, floor) for c in gen0_candidates)):
            try:
                gen1, result = self.el_min_gen1(gen0, start=last_gen1)
            except SearchError:
                # This gen0 cannot satisfy the feasibility criterion at any
                # gen1 (e.g. a bandwidth cap that a tiny first generation
                # blows regardless of the second's size); try the next one.
                continue
            last_gen1 = gen1
            if best is None or gen0 + gen1 < sum(best):
                best = (gen0, gen1)
                best_result = result
        if best is None or best_result is None:
            raise SearchError(
                "no generation-0 candidate admits a feasible configuration"
            )
        if refine_radius > 0:
            for gen0 in range(best[0] - refine_radius, best[0] + refine_radius + 1):
                if gen0 < floor or gen0 == best[0]:
                    continue
                try:
                    gen1, result = self.el_min_gen1(gen0, start=best[1])
                except SearchError:
                    continue
                if gen0 + gen1 < sum(best):
                    best = (gen0, gen1)
                    best_result = result
        return SearchOutcome(best, best_result, self.runs, list(self.history))

