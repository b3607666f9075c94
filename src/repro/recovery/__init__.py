"""Crash recovery over an ephemeral (or firewall) log.

The paper does not simulate recovery but leans on two facts we make
testable: recovery time is proportional to the amount of log information,
and a small EL log can be read into memory whole and replayed in a single
pass [Keen, CVA Memo #37].  This package implements

* :class:`~repro.recovery.analyzer.LogScan` — gather the durable block
  images, de-duplicate record copies, and classify transaction outcomes;
* :class:`~repro.recovery.single_pass.SinglePassRecovery` — the one-pass
  REDO replay enabled by per-object version timestamps;
* :class:`~repro.recovery.two_pass.TwoPassRecovery` — the traditional
  analysis-then-redo structure, used as a differential oracle;
* :class:`~repro.recovery.verify.RecoveryVerifier` — compares a recovered
  state against the workload's ground truth of acknowledged updates.
"""
