"""Set-up timing for the simulator phases, in a fresh process.

    python3 refbench/startup.py {el,fw}

Imports what the simulator phases import, builds the first
``Simulation`` of the technique's paper point, and prints one JSON line: the
process's CPU from launch to that point, in reference seconds, with the
raw values beside it.  The probe is started before anything else is
imported, and the CPU the interpreter spent before that is charged to the
probe's first call.
"""

import json
import sys
import time
from pathlib import Path

import probe

#: Set-up is short, so the probe runs more often here than in the phases.
PROBE = probe.Probe(
    time.process_time_ns, 0.002, system_clock=probe.process_system_ns, since_process_start=True
).start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import simwork  # noqa: E402  (timed: the imports are part of set-up)
from repro.harness.simulator import Simulation  # noqa: E402

Simulation(simwork.PAPER_POINTS[sys.argv[1]][0])
ready = PROBE.mark()
PROBE.stop()
print(json.dumps(PROBE.measure(probe.Mark(0, 0), ready).to_dict()))
