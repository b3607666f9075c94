#!/usr/bin/env python3
"""Crash a running system and recover it with a single pass over the log.

The paper's payoff for EL's small log: "we can read the entire log into
memory and perform recovery with a single pass.  Recovery in less than a
second may be feasible."  This example crashes an EL system mid-run,
reconstructs the database from the stable version plus the durable log,
and verifies — against the workload's own record of acknowledged commits —
that recovery restored *exactly* the acknowledged updates: nothing lost,
nothing invented.

Run:  python examples/crash_recovery.py
"""

import time

from repro import Simulation, SimulationConfig, TwoPassRecovery
from repro.faults.crash import crash_simulation

CRASH_AT = 45.0


def main() -> None:
    config = SimulationConfig.ephemeral(
        (18, 10),
        recirculation=True,
        long_fraction=0.05,
        runtime=60.0,
        collect_truth=True,  # remember every acknowledged update
    )
    simulation = Simulation(config)

    print(f"Running until the crash at t={CRASH_AT:.0f}s ...")
    simulation.run_until(CRASH_AT)

    # Keep only what survives a power failure — the stable database plus
    # whatever block writes had completed — recover from it in a single
    # pass, and check the result against the acknowledged updates.
    start = time.perf_counter()
    check = crash_simulation(simulation, CRASH_AT)
    elapsed_ms = (time.perf_counter() - start) * 1000
    stable = simulation.capture_stable_database()
    recovery = check.recovery
    print(f"  durable log blocks : {check.captured_blocks}")
    print(f"  stable DB objects  : {len(stable)}")

    print(f"\nSingle-pass recovery and check in {elapsed_ms:.2f} ms:")
    print(f"  records applied          : {recovery.records_applied}")
    print(f"  stale copies skipped     : {recovery.records_skipped_stale}")
    print(f"  loser-transaction records: {recovery.records_skipped_loser}")
    print(f"  log-essential updates    : {check.log_essential}")

    # The traditional two-pass method must agree exactly.
    assert TwoPassRecovery(recovery.images).recover(stable) == check.recovered
    print("  two-pass oracle agrees   : yes")

    report = check.report
    print(f"\nVerification against {report.expected_objects} acknowledged "
          f"objects: {'OK' if report.ok else 'FAILED'}")
    assert report.ok, (report.lost_updates[:5], report.phantom_objects[:5])
    print("Every acknowledged update survived; no unacknowledged work "
          "reappeared.")


if __name__ == "__main__":
    main()
