"""Steadiness report: do two batches of runs of the same code agree?

    python3 refbench/steadiness.py --workload el

Runs the workload's untraced command ``RUNS`` times (seeds 1 .. ``RUNS``,
each for ``BENCHMARK.json``'s ``run_seconds``), waits ``GAP_S`` seconds,
and runs the same seeds again in reverse order, so no seed is always
measured early.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each batch's median and
quartiles, each batch's spread (interquartile distance over the median)
and the gap between the two medians, each against the metric's bound.
A spread above a third of its bound is flagged: that is the margin the
benchmark aims for.  The exit code is 1 if a run fails, or a spread or a
median gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs per batch; the seeds are 1 .. RUNS.
RUNS = 10
#: Pause between the two batches.
GAP_S = 60


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    batches = []
    for index, order in enumerate((seeds, seeds[::-1])):
        if index:
            time.sleep(GAP_S)
        results = []
        for seed in order:
            result = run_once(spec["command"], args.workload, seed, seconds)
            print(json.dumps({"batch": index + 1, "seed": seed, **result}), flush=True)
            if not result["correct"]:
                print(f"seed {seed}: output check failed", file=sys.stderr)
                return 1
            results.append(result)
        batches.append(results)

    failed = False
    print(f"\n{args.workload}: {RUNS} runs per batch, {seconds} s each")
    print(f"{'metric':<26}{'batch':>6}{'q1':>14}{'median':>14}{'q3':>14}"
          f"{'spread':>8}{'gap':>8}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        rows = [summarise([r["metrics"][name]["value"] for r in b]) for b in batches]
        gap = worse_by(metric, rows[0]["median"], rows[1]["median"])
        bound = metric["bound"]
        for index, row in enumerate(rows):
            verdict = ""
            if row["spread"] > bound:
                verdict, failed = "  spread > bound", True
            elif row["spread"] > bound / 3:
                verdict = "  spread > bound/3"
            print(f"{name if index == 0 else '':<26}{index + 1:>6}{row['q1']:>14.6g}"
                  f"{row['median']:>14.6g}{row['q3']:>14.6g}{row['spread']:>8.3f}"
                  f"{(f'{gap:+.3f}' if index else ''):>8}{bound:>7}{verdict}")
        if gap > bound:
            print(f"{'':<26}median gap {gap:+.3f} exceeds the bound {bound}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
