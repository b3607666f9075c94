"""The repository benchmark: one command per workload.

    python3 refbench/run.py --workload {el,fw} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A workload is one logging technique
(``el``: ephemeral logging, ``fw``: the firewall log) taken through every
layer of the program in three checked phases: its paper point in the
simulator, its side of a reduced Figures 4-6 plus an E7 crash capture, and
``repro serve`` under an open-loop load.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it holds the raw measurements
(CPU seconds, probe speed, per-pass timings) for diagnosis.  The exit code
is 0 only when every output check passed.  See ``refbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SETUP_REPEATS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

#: Share of ``--seconds`` each phase measures: the paper point, the figure
#: pass and the live server's measured window.
PAPER_SHARE = 0.45
FIGURE_SHARE = 0.25
LIVE_SHARE = 0.3


def _import_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails fast outside a checkout)


def _compile() -> None:
    """Write bytecode caches first, so set-up timing never includes compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def sim_setup(technique: str) -> list:
    """Time a fresh process's imports and first ``Simulation``, repeatedly."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "startup.py"), technique],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(technique: str, seconds: float, seed: int) -> dict:
    import livework
    import simwork
    from probe import Probe

    setups = sim_setup(technique)
    shares = {"paper": PAPER_SHARE, "figures": FIGURE_SHARE}
    with Probe() as probe:
        passes = {
            name: simwork.repeat(probe, name, work, technique, shares[name] * seconds)
            for name, work in simwork.PHASES
        }
    sim_rss = _peak_rss_mb()
    live = livework.run_live(
        technique, LIVE_SHARE * seconds, seed, WORK / f"live-{os.getpid()}"
    )
    sim = simwork.tally(passes["paper"] + passes["figures"])
    metrics = {
        # Set-up of both entry points: a simulation built, a server ready.
        "setup_s": (
            statistics.median(s["reference_s"] for s in setups) + live["setup_s"], "s"
        ),
        # Both processes doing the program's work: simulator and server.
        "peak_rss_mb": (sim_rss + live["rss_mb"], "MB"),
        "events_per_s": (simwork.events_per_s(passes["paper"]), "events/s"),
        "regen_s": (simwork.regen_s(passes["figures"]), "s"),
        **live["metrics"],
    }
    return {
        "ok": sim["ok"] and live["ok"],
        "attempted": sim["attempted"] + live["attempted"],
        "failed": sim["failed"] + live["failed"],
        "metrics": metrics,
        "detail": {
            "sim_setups": setups,
            "sim_rss_mb": sim_rss,
            "server_rss_mb": live["rss_mb"],
            "sim_log_bytes_per_user_byte": simwork.log_bytes_per_user_byte(passes["paper"]),
            "passes": {k: [p.to_dict() for p in v] for k, v in passes.items()},
            "live": live["detail"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("el", "fw"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as exc:
        print(f"refbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    _compile()
    started = time.perf_counter()
    if args.trace:
        import spans

        outcome = spans.traced(
            args.workload, LIVE_SHARE * args.seconds, args.seed,
            WORK / f"live-{os.getpid()}",
        )
    else:
        outcome = run_untraced(args.workload, args.seconds, args.seed)
    detail = dict(outcome.get("detail", {}), wall_s=time.perf_counter() - started)
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": outcome["ok"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if outcome["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
