"""``repro serve`` with the probe interleaved, for the live phase of a workload.

    python3 refbench/serve.py [--trace-out PATH] -- <repro serve arguments>

The probe (see ``probe.py``) starts before anything else is imported and
measures the whole server process's CPU, I/O threads included.  On every
``SIGUSR1`` (and on ``SIGUSR2``, which also stops the probe) the process
writes one line to standard output::

    refbench-mark {"mark": i, "since_start": {...}, "since_previous": {...}, "rss_mb": ...}

with its CPU in reference seconds since launch and since the previous mark
(the probe's own CPU excluded), so the load driver can cut the server's
set-up and its measured window out of one run.  With ``--trace-out`` the
live layers are wrapped in spans (``spans.py``) and their summary is
written to PATH when the server exits.
"""

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import probe
from probe import MARK_PREFIX


def main(argv, started: probe.Probe) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    marks = [probe.Mark(0, 0)]

    def measure(before: probe.Mark, after: probe.Mark):
        try:
            return started.measure(before, after).to_dict()
        except ValueError:  # no probe call in between: nothing to scale by
            return None

    def on_mark(_signum, _frame) -> None:
        mark = started.mark()
        line = {
            "mark": len(marks),
            "since_start": measure(marks[0], mark),
            "since_previous": measure(marks[-1], mark) if len(marks) > 1 else None,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        marks.append(mark)
        # os.write, not print: the handler may interrupt a buffered write.
        os.write(1, (MARK_PREFIX + json.dumps(line) + "\n").encode())

    def on_final_mark(signum, frame) -> None:
        on_mark(signum, frame)
        started.stop()

    signal.signal(signal.SIGUSR1, on_mark)
    signal.signal(signal.SIGUSR2, on_final_mark)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = None
    if trace_out is not None:
        import spans

        tracer = spans.Tracer()
        spans.instrument_live(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        started.stop()
        if tracer is not None:
            Path(trace_out).write_text(json.dumps(spans.live_metrics(tracer)))


if __name__ == "__main__":
    PROBE = probe.Probe(
        time.process_time_ns, system_clock=probe.process_system_ns, since_process_start=True
    ).start()
    sys.exit(main(sys.argv[1:], PROBE))
