"""Drivers that regenerate every evaluation artifact in the paper.

* :func:`run_figures_4_5_6` — one minimum-space sweep over the transaction
  mix yields Figure 4 (disk space), Figure 5 (log bandwidth) and Figure 6
  (main memory) simultaneously, exactly as in the paper where the three
  figures describe the same set of minimum-space runs.
* :func:`run_figure_7` — EL disk bandwidth (last generation and total)
  versus total space with recirculation enabled, generation 0 pinned.
* :func:`run_scarce_flush` — the §4 narrative experiment with 45 ms flush
  transfers: space, bandwidth, and the flush-locality shift.
* :func:`headline_claims` — the abstract's space-ratio / bandwidth-increase
  claims, derived from the other results.
* :func:`run_shard_scaling` — (ours) E-shard: aggregate log bandwidth of
  the sharded log versus shard count under weak scaling, with the gates
  :func:`shard_scaling_failures` checks.

Each paper driver returns a result object that renders its figure as a
text table.  The drivers keep no result of their own: every search and walk
runs through a :class:`~repro.harness.parallel.ParallelRunner`, whose
per-run cache answers each probe a previous command already ran, so a
figure is recomputed from its runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.constants import ARRIVAL_RATE_TPS, GAP_THRESHOLD_BLOCKS
from repro.harness.config import SimulationConfig
from repro.harness.parallel import ParallelRunner
from repro.harness.results import SimulationResult
from repro.harness.scale import Scale
from repro.harness.search import SpaceSearch
from repro.harness.sweep import SweepCache
from repro.metrics.report import format_series
from repro.obs.manifest import (
    RunManifest,
    aggregate_worker_manifests,
    default_manifest_path,
    describe_code,
)

#: Accepted by every driver: where to drop the experiment's run manifest.
ManifestDir = Optional[Union[str, Path]]


def _publish_manifest(
    name: str,
    scale: Scale,
    seed: int,
    document: dict,
    manifest_dir: ManifestDir,
    runner: Optional[ParallelRunner] = None,
) -> None:
    """Write a reproducibility manifest for one experiment driver's outcome.

    The full result document rides in the manifest's ``counters`` block, so
    two sweeps (different seeds, code revisions, scales) can be diffed as
    JSON without re-running anything.  When the sweep executed through a
    :class:`ParallelRunner`, its per-worker manifests are aggregated into a
    ``parallel`` block so the manifest also attributes wall-clock cost.
    """
    if manifest_dir is None:
        return
    label = f"{name}-{scale.label}"
    counters = dict(document)
    if runner is not None:
        counters["parallel"] = {
            "jobs": runner.jobs,
            "runs_executed": runner.runs_executed,
            "cache_hits": runner.cache_hits,
            "timeouts": runner.timeouts,
            "retries_used": runner.retries_used,
            "workers": aggregate_worker_manifests(runner.worker_manifests),
        }
    manifest = RunManifest(
        label=label,
        seed=seed,
        config={
            "experiment": name,
            "scale": scale.label,
            "runtime": scale.runtime,
        },
        code=describe_code(),
        counters=counters,
    )
    manifest.write(default_manifest_path(manifest_dir, label, seed))


# ======================================================================
# Figures 4, 5, 6 — one sweep over the transaction mix
# ======================================================================
@dataclass
class MixPoint:
    """Minimum-space outcome for one transaction mix."""

    long_fraction: float
    updates_per_second: float
    fw_blocks: int
    fw_bandwidth_wps: float
    fw_memory_peak_bytes: int
    el_gen0: int
    el_gen1: int
    el_bandwidth_wps: float
    el_memory_peak_bytes: int

    @property
    def el_blocks(self) -> int:
        return self.el_gen0 + self.el_gen1

    @property
    def space_ratio(self) -> float:
        """FW space / EL space (the paper's headline factor)."""
        return self.fw_blocks / self.el_blocks if self.el_blocks else 0.0

    @property
    def bandwidth_increase(self) -> float:
        """EL bandwidth relative to FW, as a fraction (e.g. 0.11 = +11 %)."""
        if self.fw_bandwidth_wps == 0:
            return 0.0
        return self.el_bandwidth_wps / self.fw_bandwidth_wps - 1.0


@dataclass
class Figures456Result:
    """The shared sweep behind Figures 4, 5 and 6."""

    scale_label: str
    runtime: float
    seed: int
    points: List[MixPoint] = field(default_factory=list)

    def figure4_text(self) -> str:
        return format_series(
            "Figure 4: Disk Space Requirements vs. Tx Mix (blocks)",
            "10s-tx %",
            ["FW blocks", "EL blocks", "EL gen0", "EL gen1", "FW/EL ratio"],
            [
                (
                    f"{p.long_fraction:.0%}",
                    p.fw_blocks,
                    p.el_blocks,
                    p.el_gen0,
                    p.el_gen1,
                    round(p.space_ratio, 2),
                )
                for p in self.points
            ],
        )

    def figure5_text(self) -> str:
        return format_series(
            "Figure 5: Disk Bandwidth vs. Tx Mix (log block writes/s)",
            "10s-tx %",
            ["FW w/s", "EL w/s", "increase %"],
            [
                (
                    f"{p.long_fraction:.0%}",
                    round(p.fw_bandwidth_wps, 2),
                    round(p.el_bandwidth_wps, 2),
                    round(100 * p.bandwidth_increase, 1),
                )
                for p in self.points
            ],
        )

    def figure6_text(self) -> str:
        return format_series(
            "Figure 6: Memory Requirements vs. Tx Mix (bytes, peak)",
            "10s-tx %",
            ["FW bytes", "EL bytes"],
            [
                (
                    f"{p.long_fraction:.0%}",
                    p.fw_memory_peak_bytes,
                    p.el_memory_peak_bytes,
                )
                for p in self.points
            ],
        )


def _figures_456_point(
    scale: Scale, seed: int, fraction: float, runner: ParallelRunner
) -> MixPoint:
    """Both minimum-space searches for one transaction mix."""
    fw_template = SimulationConfig.firewall(
        log_blocks=64,  # replaced by the search
        long_fraction=fraction,
        runtime=scale.runtime,
        seed=seed,
    )
    fw = SpaceSearch(fw_template, parallel=runner).fw_minimum()
    el_template = SimulationConfig.ephemeral(
        (18, 16),  # replaced by the search
        recirculation=False,
        long_fraction=fraction,
        runtime=scale.runtime,
        seed=seed,
    )
    el = SpaceSearch(el_template, parallel=runner).el_minimum(
        scale.gen0_candidates, refine_radius=scale.gen0_refine_radius
    )
    mix = fw_template.workload_mix()
    return MixPoint(
        long_fraction=fraction,
        updates_per_second=(
            fw_template.arrival_rate * mix.mean_updates_per_transaction()
        ),
        fw_blocks=fw.sizes[0],
        fw_bandwidth_wps=fw.result.total_bandwidth_wps,
        fw_memory_peak_bytes=fw.result.memory_peak_bytes,
        el_gen0=el.sizes[0],
        el_gen1=el.sizes[1],
        el_bandwidth_wps=el.result.total_bandwidth_wps,
        el_memory_peak_bytes=el.result.memory_peak_bytes,
    )


def run_figures_4_5_6(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> Figures456Result:
    """Minimum-space sweep over the mix for both techniques (E1–E3).

    ``jobs`` > 1 runs the independent searches concurrently (one driver
    thread per mix point, simulation probes fanned across a process pool)
    and turns the searches speculative; the result is identical to a serial
    sweep — the same seeds produce the same runs — only faster.
    """
    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    result = Figures456Result(scale_label=scale.label, runtime=scale.runtime, seed=seed)
    with ParallelRunner(jobs=jobs, cache=cache) as runner:
        if runner.jobs > 1 and len(scale.mix_points) > 1:
            with ThreadPoolExecutor(
                max_workers=min(len(scale.mix_points), runner.jobs)
            ) as pool:
                points = list(
                    pool.map(
                        lambda fraction: _figures_456_point(
                            scale, seed, fraction, runner
                        ),
                        scale.mix_points,
                    )
                )
        else:
            points = [
                _figures_456_point(scale, seed, fraction, runner)
                for fraction in scale.mix_points
            ]
    result.points.extend(points)
    _publish_manifest(
        "figures456", scale, seed, asdict(result), manifest_dir, runner=runner
    )
    return result


# ======================================================================
# Figure 7 — recirculation: bandwidth vs space
# ======================================================================
@dataclass
class Figure7Point:
    gen1_blocks: int
    total_blocks: int
    kills: int
    last_generation_wps: float
    total_wps: float
    recirculated_records: int


@dataclass
class Figure7Result:
    scale_label: str
    runtime: float
    seed: int
    gen0_blocks: int
    fw_blocks: int
    fw_bandwidth_wps: float
    points: List[Figure7Point] = field(default_factory=list)

    @property
    def feasible_points(self) -> List[Figure7Point]:
        return [p for p in self.points if p.kills == 0]

    @property
    def minimum_total_blocks(self) -> int:
        feasible = self.feasible_points
        return min(p.total_blocks for p in feasible) if feasible else 0

    def figure7_text(self) -> str:
        rows = [
            (
                p.total_blocks,
                p.gen1_blocks,
                round(p.last_generation_wps, 2),
                round(p.total_wps, 2),
                p.kills,
            )
            for p in sorted(self.points, key=lambda p: -p.total_blocks)
        ]
        header = (
            f"Figure 7: EL Disk Bandwidth vs. Space "
            f"(recirculation on, gen0={self.gen0_blocks} blocks; "
            f"FW reference: {self.fw_blocks} blocks at "
            f"{self.fw_bandwidth_wps:.2f} w/s)"
        )
        return format_series(
            header,
            "total blocks",
            ["gen1 blocks", "last-gen w/s", "total w/s", "kills"],
            rows,
        )


def run_figure_7(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    long_fraction: float = 0.05,
    gen0_blocks: Optional[int] = None,
    gen1_start: Optional[int] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> Figure7Result:
    """Shrink the last generation with recirculation enabled (E4).

    ``gen0_blocks`` defaults to the no-recirculation optimum for the same
    mix ("the size of the first generation remained fixed at 18 blocks, for
    which the minimum space was obtained in the case of no recirculation"),
    taken from the Figures 4–6 sweep.
    """
    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    fig456 = run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs)
    reference = min(
        fig456.points, key=lambda p: abs(p.long_fraction - long_fraction)
    )
    gen0 = gen0_blocks if gen0_blocks is not None else reference.el_gen0
    start_gen1 = gen1_start if gen1_start is not None else reference.el_gen1

    result = Figure7Result(
        scale_label=scale.label,
        runtime=scale.runtime,
        seed=seed,
        gen0_blocks=gen0,
        fw_blocks=reference.fw_blocks,
        fw_bandwidth_wps=reference.fw_bandwidth_wps,
    )

    def configure(gen1: int) -> SimulationConfig:
        return SimulationConfig.ephemeral(
            (gen0, gen1),
            recirculation=True,
            long_fraction=long_fraction,
            runtime=scale.runtime,
            seed=seed,
        )

    floor = GAP_THRESHOLD_BLOCKS + 1  # the searches' floor
    gen1_values = list(range(start_gen1, floor - 1, -1))
    with ParallelRunner(jobs=jobs, cache=cache) as runner:
        for index, gen1 in enumerate(gen1_values):
            if runner.jobs > 1:
                # Speculatively run the next few shrink steps as a batch;
                # the walk below consumes them from the per-run cache.  At
                # most jobs-1 probes past the stopping point are wasted.
                runner.run_many(
                    [configure(g) for g in gen1_values[index : index + runner.jobs]]
                )
            run = runner.run_one(configure(gen1))
            result.points.append(
                Figure7Point(
                    gen1_blocks=gen1,
                    total_blocks=gen0 + gen1,
                    kills=run.transactions_killed,
                    last_generation_wps=run.last_generation_bandwidth_wps,
                    total_wps=run.total_bandwidth_wps,
                    recirculated_records=run.recirculated_records,
                )
            )
            if not run.no_kills:
                break  # one infeasible point past the minimum, as in the paper
    _publish_manifest(
        "figure7", scale, seed, asdict(result), manifest_dir, runner=runner
    )
    return result


# ======================================================================
# §4 narrative — scarce flushing bandwidth
# ======================================================================
@dataclass
class ScarceFlushResult:
    scale_label: str
    runtime: float
    seed: int
    long_fraction: float
    #: Minimum-space EL configuration under 45 ms flush transfers.
    gen0_blocks: int
    gen1_blocks: int
    bandwidth_wps: float
    mean_seek_distance_scarce: float
    flush_peak_backlog: int
    recirculated_records: int
    #: Locality at the plentiful 25 ms baseline (same mix, recirculation).
    mean_seek_distance_baseline: float

    @property
    def total_blocks(self) -> int:
        return self.gen0_blocks + self.gen1_blocks

    @property
    def locality_gain(self) -> float:
        """Baseline / scarce mean seek distance (>1 = more sequential)."""
        if self.mean_seek_distance_scarce == 0:
            return 0.0
        return self.mean_seek_distance_baseline / self.mean_seek_distance_scarce

    def text(self) -> str:
        lines = [
            "Scarce flushing bandwidth (45 ms transfers, 10 drives -> 222 flush/s):",
            f"  minimum EL space     : {self.total_blocks} blocks "
            f"({self.gen0_blocks} + {self.gen1_blocks})   [paper: 31 = 20 + 11]",
            f"  log bandwidth        : {self.bandwidth_wps:.2f} writes/s   [paper: 13.96]",
            f"  mean oid seek (45ms) : {self.mean_seek_distance_scarce:,.0f}   [paper: ~109,000]",
            f"  mean oid seek (25ms) : {self.mean_seek_distance_baseline:,.0f}   [paper: ~235,000]",
            f"  flush backlog peak   : {self.flush_peak_backlog}",
        ]
        return "\n".join(lines)


def run_scarce_flush(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    long_fraction: float = 0.05,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> ScarceFlushResult:
    """The 45 ms flush-transfer experiment (E5)."""
    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    template = SimulationConfig.ephemeral(
        (20, 11),
        recirculation=True,
        long_fraction=long_fraction,
        runtime=scale.runtime,
        seed=seed,
        flush_write_seconds=0.045,
    )
    # The paper's operating point recirculates unflushed updates "until
    # they are eventually flushed" and concludes "the extra disk space and
    # bandwidth are not prohibitive".  Encode both halves: the log must
    # survive without kills and without demand flushes (random database
    # I/O), and its bandwidth must stay within 25% of the same mix's
    # plentiful-flush EL bandwidth — otherwise the search walks into a
    # degenerate tiny-log/huge-recirculation regime the paper never
    # considers.
    reference = min(
        run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs).points,
        key=lambda p: abs(p.long_fraction - long_fraction),
    )
    bandwidth_cap = reference.el_bandwidth_wps * 1.25
    with ParallelRunner(jobs=jobs, cache=cache) as runner:
        search = SpaceSearch(
            template,
            feasible_fn=lambda result: (
                result.demand_flushes == 0
                and result.total_bandwidth_wps <= bandwidth_cap
            ),
            parallel=runner,
        )
        # A gen0 that blows the bandwidth cap does so at any gen1; don't let
        # the bracket chase infeasibility into absurd sizes.
        search.MAX_BLOCKS = 256
        outcome = search.el_minimum(
            scale.gen0_candidates, refine_radius=scale.gen0_refine_radius
        )
        baseline = runner.run_one(
            SimulationConfig.ephemeral(
                outcome.sizes,
                recirculation=True,
                long_fraction=long_fraction,
                runtime=scale.runtime,
                seed=seed,
                flush_write_seconds=0.025,
            )
        )
    result = ScarceFlushResult(
        scale_label=scale.label,
        runtime=scale.runtime,
        seed=seed,
        long_fraction=long_fraction,
        gen0_blocks=outcome.sizes[0],
        gen1_blocks=outcome.sizes[1],
        bandwidth_wps=outcome.result.total_bandwidth_wps,
        mean_seek_distance_scarce=outcome.result.flush_mean_seek_distance,
        flush_peak_backlog=outcome.result.flush_peak_backlog,
        recirculated_records=outcome.result.recirculated_records,
        mean_seek_distance_baseline=baseline.flush_mean_seek_distance,
    )
    _publish_manifest(
        "scarce-flush", scale, seed, asdict(result), manifest_dir, runner=runner
    )
    return result


# ======================================================================
# Headline claims (abstract / §4)
# ======================================================================
@dataclass
class HeadlineClaims:
    """The paper's summary numbers, recomputed from our sweeps."""

    #: "It reduces disk space by a factor of 3.6 with only an 11% increase
    #: in bandwidth" (5 % mix, no recirculation).
    no_recirc_space_ratio: float
    no_recirc_bandwidth_increase: float
    #: "a factor of 4.4 reduction in disk space and a 12% increase in
    #: bandwidth" (5 % mix, recirculation).
    recirc_space_ratio: float
    recirc_bandwidth_increase: float

    def text(self) -> str:
        return "\n".join(
            [
                "Headline claims (5% 10s-transaction mix):",
                f"  EL (no recirc): space ratio {self.no_recirc_space_ratio:.1f}x "
                f"[paper: 3.6x], bandwidth +{100*self.no_recirc_bandwidth_increase:.0f}% "
                f"[paper: +11%]",
                f"  EL (recirc)   : space ratio {self.recirc_space_ratio:.1f}x "
                f"[paper: 4.4x], bandwidth +{100*self.recirc_bandwidth_increase:.0f}% "
                f"[paper: +12%]",
            ]
        )


def headline_claims(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> HeadlineClaims:
    """Recompute the abstract's claims from the figure sweeps (E6)."""
    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    fig456 = run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs)
    fig7 = run_figure_7(scale, seed=seed, cache=cache, jobs=jobs)
    base = min(fig456.points, key=lambda p: p.long_fraction)
    feasible = fig7.feasible_points
    best = min(feasible, key=lambda p: p.total_blocks)
    claims = HeadlineClaims(
        no_recirc_space_ratio=base.space_ratio,
        no_recirc_bandwidth_increase=base.bandwidth_increase,
        recirc_space_ratio=(
            fig7.fw_blocks / best.total_blocks if best.total_blocks else 0.0
        ),
        recirc_bandwidth_increase=(
            best.total_wps / fig7.fw_bandwidth_wps - 1.0
            if fig7.fw_bandwidth_wps
            else 0.0
        ),
    )
    _publish_manifest("headline", scale, seed, asdict(claims), manifest_dir)
    return claims


# ======================================================================
# E-shard (ours) — aggregate log bandwidth vs shard count
# ======================================================================
#: Shard counts swept; 1 is the single-disk paper baseline.
SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: One (config, result) pair per technique and shard count.
ShardRun = Tuple[SimulationConfig, SimulationResult]


def shard_scaling_configs(scale: Scale, seed: int = 0) -> List[SimulationConfig]:
    """EL (18, 16) and FW 34 at every shard count, under weak scaling.

    The offered load grows with the shard count, so every shard runs at
    the paper's 100 TPS operating point.  FW 34 is the same total budget
    as EL; FW kills its long transactions at that size by design.
    """
    configs = []
    for technique in ("el", "fw"):
        for shards in SHARD_COUNTS:
            common = dict(
                runtime=scale.runtime,
                seed=seed,
                arrival_rate=ARRIVAL_RATE_TPS * shards,
                shards=shards,
            )
            if technique == "fw":
                configs.append(SimulationConfig.firewall(34, **common))
            else:
                configs.append(SimulationConfig.ephemeral((18, 16), **common))
    return configs


def run_shard_scaling(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> List[ShardRun]:
    """Run the E-shard sweep: one batch through the per-run cache."""
    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    configs = shard_scaling_configs(scale, seed)
    with ParallelRunner(jobs=jobs, cache=cache) as runner:
        results = runner.run_many(configs)
    _publish_manifest(
        "shards",
        scale,
        seed,
        {"runs": [result.to_dict() for result in results]},
        manifest_dir,
        runner=runner,
    )
    return list(zip(configs, results))


def _bandwidth_by_shards(runs: List[ShardRun], technique: str) -> dict:
    return {
        config.shards: result.total_bandwidth_wps
        for config, result in runs
        if result.technique == technique
    }


def _ratio(wps: dict, shards_from: int, shards_to: int) -> float:
    """Aggregate-bandwidth scaling factor between two shard counts."""
    base = wps.get(shards_from)
    return wps.get(shards_to, 0.0) / base if base else 0.0


def shard_scaling_text(runs: List[ShardRun]) -> str:
    """The E-shard table plus each technique's scaling ratios."""
    rows = [
        (
            result.technique,
            config.shards,
            round(config.arrival_rate),
            result.transactions_committed / result.runtime,
            result.total_bandwidth_wps,
            result.mean_commit_latency * 1000,
            (result.sharding or {}).get("cross_shard_commits", "-"),
            result.transactions_killed,
        )
        for config, result in runs
    ]
    lines = [
        format_series(
            "E-shard: weak-scaling aggregate log bandwidth vs shard count "
            f"({ARRIVAL_RATE_TPS:g} TPS per shard)",
            "technique",
            ["shards", "rate", "tps", "w/s", "lat ms", "x-shard", "killed"],
            rows,
        )
    ]
    for technique in dict.fromkeys(result.technique for _, result in runs):
        wps = _bandwidth_by_shards(runs, technique)
        counts = sorted(wps)
        ratios = ", ".join(
            f"{a}->{b}: {_ratio(wps, a, b):.2f}x" for a, b in zip(counts, counts[1:])
        )
        lines.append(f"{technique} bandwidth scaling: {ratios}")
    return "\n".join(lines)


def shard_scaling_failures(runs: List[ShardRun]) -> List[str]:
    """The E-shard gates that fail (empty when the sweep passes).

    Aggregate bandwidth must scale >= 1.8x from 1 to 2 shards and grow
    monotonically through 4, for both techniques; no run may fail, and
    EL, at the paper's load per shard, may kill nothing.
    """
    failures = []
    for config, result in runs:
        if result.failed is not None:
            failures.append(
                f"{result.technique} at {config.shards} shards failed: "
                f"{result.failed}"
            )
        if result.technique == "el" and result.transactions_killed:
            failures.append(
                f"el at {config.shards} shards killed "
                f"{result.transactions_killed} transactions"
            )
    for technique in dict.fromkeys(result.technique for _, result in runs):
        wps = _bandwidth_by_shards(runs, technique)
        ratio = _ratio(wps, 1, 2)
        if ratio < 1.8:
            failures.append(
                f"{technique} aggregate bandwidth scaled {ratio:.2f}x from 1 "
                "to 2 shards (need >= 1.8x)"
            )
        series = [wps[n] for n in sorted(wps)]
        if series != sorted(series):
            failures.append(
                f"{technique} aggregate bandwidth is not monotone over "
                f"{sorted(wps)} shards: {[round(w, 2) for w in series]}"
            )
    return failures
