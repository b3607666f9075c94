"""Experiment scale control.

The paper's full protocol (500 simulated seconds at 100 TPS, minimum-space
searches at every mix point) is expensive in pure Python, so every
experiment driver takes a :class:`Scale`.  ``Scale.paper()`` is the exact
protocol; ``Scale.quick()`` keeps the workload and search semantics but
shortens the simulated span and coarsens the search grids; ``Scale.smoke()``
is for tests.  ``Scale.from_env()`` honours:

* ``REPRO_FULL=1``      → paper scale,
* ``REPRO_SMOKE=1``     → smoke scale,
* ``REPRO_RUNTIME=<s>`` → quick scale with a custom simulated span
  (anything but a positive finite number raises
  :class:`~repro.errors.ConfigurationError`).

Setting both ``REPRO_FULL=1`` and ``REPRO_SMOKE=1`` is a contradiction and
raises :class:`~repro.errors.ConfigurationError` — neither silently wins.
A scale flag combined with ``REPRO_RUNTIME`` is merely redundant: the flag
decides the scale (flags are explicit choices, the runtime is a tuning
knob) and a ``UserWarning`` notes that the runtime was ignored.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Scale:
    """Knobs trading fidelity against wall-clock time."""

    label: str
    #: Simulated seconds per run.
    runtime: float
    #: Fractions of 10 s transactions swept in Figures 4-6.
    mix_points: Tuple[float, ...]
    #: Candidate generation-0 sizes for the EL joint minimisation.
    gen0_candidates: Tuple[int, ...]
    #: Refine around the best gen-0 candidate with this radius (blocks).
    gen0_refine_radius: int

    def __post_init__(self) -> None:
        if self.runtime <= 0:
            raise ConfigurationError("scale runtime must be positive")
        if not self.mix_points or not self.gen0_candidates:
            raise ConfigurationError("scale sweeps must be non-empty")

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's exact protocol (500 s; 5 %–40 % in 5 % steps)."""
        return cls(
            label="paper",
            runtime=500.0,
            mix_points=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
            gen0_candidates=(8, 12, 16, 18, 20, 24, 28, 32, 40, 48),
            gen0_refine_radius=2,
        )

    @classmethod
    def quick(cls, runtime: float = 180.0) -> "Scale":
        """Same semantics, shorter span and coarser grids (the default)."""
        return cls(
            label=f"quick-{runtime:g}s",
            runtime=runtime,
            mix_points=(0.05, 0.10, 0.20, 0.30, 0.40),
            gen0_candidates=(12, 16, 18, 20, 24, 32),
            gen0_refine_radius=1,
        )

    @classmethod
    def smoke(cls) -> "Scale":
        """Tiny spans for unit/integration tests."""
        return cls(
            label="smoke",
            runtime=25.0,
            mix_points=(0.05, 0.40),
            gen0_candidates=(16, 20),
            gen0_refine_radius=0,
        )

    @classmethod
    def from_env(cls) -> "Scale":
        """Scale selected by environment variables (see module docstring).

        Precedence: ``REPRO_FULL``/``REPRO_SMOKE`` (mutually exclusive,
        both set raises), then ``REPRO_RUNTIME``, then the quick default.
        """
        full = os.environ.get("REPRO_FULL") == "1"
        smoke = os.environ.get("REPRO_SMOKE") == "1"
        runtime = os.environ.get("REPRO_RUNTIME")
        if full and smoke:
            raise ConfigurationError(
                "REPRO_FULL=1 and REPRO_SMOKE=1 are mutually exclusive; "
                "unset one of them"
            )
        if (full or smoke) and runtime is not None:
            warnings.warn(
                f"REPRO_RUNTIME={runtime} is ignored because "
                f"{'REPRO_FULL' if full else 'REPRO_SMOKE'}=1 selects a "
                f"fixed scale",
                UserWarning,
                stacklevel=2,
            )
        if full:
            return cls.paper()
        if smoke:
            return cls.smoke()
        if runtime is not None:
            try:
                seconds = float(runtime)
            except ValueError:
                seconds = 0.0
            if not 0.0 < seconds < math.inf:  # also rejects nan
                raise ConfigurationError(
                    f"REPRO_RUNTIME must be a positive number of simulated "
                    f"seconds, got {runtime!r}"
                )
            return cls.quick(seconds)
        return cls.quick()
