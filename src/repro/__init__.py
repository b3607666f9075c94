"""repro — a reproduction of "Performance Evaluation of Ephemeral Logging"
(John S. Keen and William J. Dally, SIGMOD 1993).

The package implements ephemeral logging (EL), the firewall baseline (FW),
the EL–FW hybrid sketch, the paper's event-driven simulation environment,
and an experiment harness that regenerates every figure in the paper's
evaluation.

Quickstart::

    from repro import SimulationConfig, run_simulation

    config = SimulationConfig.ephemeral((18, 16), recirculation=False,
                                        long_fraction=0.05, runtime=60.0)
    result = run_simulation(config)
    print(result.summary())

The names below load on first use (PEP 562), so ``import repro`` and any
``repro.<sub>.<module>`` import stay cheap: each entry point pays only for
the modules it runs.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "EphemeralLogManager": "repro.core.ephemeral",
    "FirewallLogManager": "repro.core.firewall",
    "HybridLogManager": "repro.core.hybrid",
    "KillPolicy": "repro.core.killpolicy",
    "LifetimePlacementPolicy": "repro.core.placement",
    "LogManager": "repro.core.interface",
    "UnflushedHeadPolicy": "repro.core.interface",
    "SizingAdvice": "repro.core.sizing",
    "recommend_generation_sizes": "repro.core.sizing",
    "Simulation": "repro.harness.simulator",
    "run_simulation": "repro.harness.simulator",
    "SimulationConfig": "repro.harness.config",
    "Technique": "repro.harness.config",
    "SimulationResult": "repro.harness.results",
    "Scale": "repro.harness.scale",
    "SpaceSearch": "repro.harness.search",
    "SinglePassRecovery": "repro.recovery.single_pass",
    "TwoPassRecovery": "repro.recovery.two_pass",
    "RecoveryVerifier": "repro.recovery.verify",
    "TransactionType": "repro.workload.spec",
    "WorkloadMix": "repro.workload.spec",
    "paper_mix": "repro.workload.spec",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
