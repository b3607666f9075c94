"""The E-fault gate: ``repro chaos`` over the fault-rate grid.

The E-fault table is ``repro chaos --rate r`` once per rate (EXPERIMENTS.md
has the loop).  Each run verifies crash consistency at three crash points
and exits 1 on a violation; this test drives the whole grid through
``main`` and adds the two gates the exit code cannot see: self-healing
keeps throughput up, and every crash check really replays log records,
so a zero-violation verdict cannot pass vacuously.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main

RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

#: EL at the paper point, FW at the same total budget.
SIZES = {"el": "18,16", "fw": "34"}


@pytest.fixture(scope="module")
def chaos_grid(tmp_path_factory):
    """``(exit code, stdout, report)`` per (technique, rate)."""
    out_dir = tmp_path_factory.mktemp("chaos")
    grid = {}
    for technique, sizes in SIZES.items():
        for rate in RATES:
            path = out_dir / f"{technique}-{rate:g}.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(
                    ["chaos", "--technique", technique, "--sizes", sizes,
                     "--runtime", "25", "--rate", f"{rate:g}", "--json", str(path)]
                )
            report = json.loads(path.read_text(encoding="utf-8"))
            grid[technique, rate] = (code, stdout.getvalue(), report)
    return grid


class TestRunFaultSweep:
    def test_smoke_sweep_shape_and_consistency(self, chaos_grid):
        for technique in SIZES:
            baseline = chaos_grid[technique, 0.0][2]["result"]
            for rate in RATES:
                code, _, report = chaos_grid[technique, rate]
                assert code == 0, (technique, rate, report["violations"])
                assert report["ok"] and report["violations"] == 0
                # Self-healing must keep the log alive: no run collapses.
                committed = report["result"]["transactions_committed"]
                assert committed > 0.5 * baseline["transactions_committed"], (
                    technique, rate, committed
                )
                # --rate must reach the FaultPlan: a faulty run injects
                # disk faults, the rate-0 baseline none.
                write_faults = (report["result"].get("faults") or {}).get(
                    "write_faults", 0
                )
                if rate > 0:
                    assert write_faults > 0, (technique, rate)
                else:
                    assert write_faults == 0, (technique, rate)
                assert len(report["checks"]) == 3
                for check in report["checks"]:
                    assert check["records_applied"] > 0, (technique, rate, check)

    def test_text_table_mentions_verdict(self, chaos_grid):
        for (technique, rate), (_, stdout, _) in chaos_grid.items():
            assert f"technique            : {technique}" in stdout
            assert "crash consistency    : OK" in stdout, (technique, rate)
