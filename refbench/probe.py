"""Reference-second timing: a fixed probe kernel interleaved with the work.

On a shared host the CPU time of the same work moves by tens of percent
from minute to minute (a busy neighbour on the same core, cache and memory
pressure from other tenants, hypervisor steal).  Every CPU-bound metric of
this benchmark is therefore reported in *reference seconds*: the CPU time
of the work divided by the host's current speed, where the speed is
measured by a fixed probe kernel that runs on the same CPU, interleaved
with the work.

The interleaving is driven by ``ITIMER_PROF``: after every ``interval_s``
of process CPU the kernel runs once inside a ``SIGPROF`` handler, in the
middle of whatever the working thread is doing.  Probe and work therefore
see the same host speed at the resolution of that interval, and nothing in
the program under test is patched or rescheduled.

The CPU between two probe calls is charged at the speed of the calls
around it.  Calls are grouped in windows of ``WINDOW_CALLS``; per window::

    speed      = calls * PROBE_REFERENCE_NS / (probe CPU of the calls)
    reference  = (user CPU of the work in the window) * speed
                 + (system CPU of the work in the window)

and a measurement's reference seconds are the sum over its windows.  The
probe is pure interpreter work, so its speed says how fast user code runs;
system time (a server's pwrite, fsync and epoll) is added as measured.
Weighting per window, rather than dividing totals, keeps a slow stretch
(which holds more CPU and more probe calls) from setting the speed of the
whole run.

``PROBE_REFERENCE_NS`` is the probe's CPU time per call measured once on
the host the benchmark was written on (2 vCPU x86-64, CPython 3.11), so a
reference second is roughly a second of CPU there.  The kernel uses the
standard library only, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import resource
import signal
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: CPU nanoseconds of one :func:`kernel` call on the reference host.
PROBE_REFERENCE_NS = 600_000

#: Loop rounds per kernel call.
PROBE_ROUNDS = 600

#: Process CPU between two probe calls.
PROBE_INTERVAL_S = 0.005

#: Probe calls whose mean sets the speed of one window.
WINDOW_CALLS = 16

#: Fresh launches timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9

#: Prefix of the mark lines a probed server writes (see ``serve.py``).
MARK_PREFIX = "refbench-mark "

_SEED_HEAP = sorted((i * 7919) % 1009 for i in range(64))


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, x: int) -> int:
        self.hits += 1
        self.value = (self.value + x) & 0xFFFF
        return self.value


_CELLS = [_Cell() for _ in range(16)]


def kernel(rounds: int = PROBE_ROUNDS) -> int:
    """A fixed, interpreter-bound unit of work: heap, dict, attribute, call.

    The collector is switched off for the call, so a collection that the
    surrounding program's allocations have made due never runs inside it:
    a call costs the same however large that program's heap is.  Every
    call starts from the same state and returns the same value, which
    depends on every round.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _rounds(rounds)
    finally:
        if enabled:
            gc.enable()


def _rounds(rounds: int) -> int:
    heap = list(_SEED_HEAP)
    pop = heapq.heappop
    push = heapq.heappush
    table = dict.fromkeys(range(64), 0)
    cells = _CELLS
    for cell in cells:
        cell.value = cell.hits = 0
    acc = 0
    for i in range(rounds):
        x = pop(heap)
        acc = (acc * 31 + x) & 0xFFFF
        push(heap, x + (acc & 63) + 1)
        key = acc & 63
        table[key] = table[key] ^ i
        acc ^= cells[i & 15].bump(key)
    return acc


@dataclass(frozen=True)
class Scaled:
    """One CPU measurement in reference seconds, with its raw inputs."""

    reference_s: float
    raw_cpu_s: float
    system_cpu_s: float
    probe_cpu_s: float
    probe_calls: int

    @property
    def speed(self) -> float:
        """Reference seconds per raw CPU second over the measurement."""
        return self.reference_s / self.raw_cpu_s if self.raw_cpu_s else 0.0

    def to_dict(self) -> dict:
        return {
            "reference_s": self.reference_s,
            "raw_cpu_s": self.raw_cpu_s,
            "system_cpu_s": self.system_cpu_s,
            "probe_cpu_s": self.probe_cpu_s,
            "probe_calls": self.probe_calls,
            "speed": self.speed,
        }


def reference_seconds(
    work_ns: Sequence[int],
    probe_ns: Sequence[int],
    system_ns: Optional[Sequence[int]] = None,
    *,
    window: int = WINDOW_CALLS,
    reference_ns: int = PROBE_REFERENCE_NS,
) -> Scaled:
    """Scale work CPU to reference seconds with the probe calls beside it.

    ``work_ns[i]`` is the work CPU charged to probe call ``i`` (the CPU
    between the previous call and this one, probe excluded),
    ``system_ns[i]`` the system part of it (none when omitted), and
    ``probe_ns[i]`` is that call's own CPU.  Only the user part is scaled.
    A trailing window shorter than half of ``window`` joins the one before
    it.
    """
    if system_ns is None:
        system_ns = [0] * len(work_ns)
    if not len(work_ns) == len(probe_ns) == len(system_ns):
        raise ValueError("work_ns, probe_ns and system_ns must pair up")
    calls = len(probe_ns)
    if calls == 0 or sum(probe_ns) <= 0:
        raise ValueError("the measurement holds no probe call; measure more work")
    bounds = list(range(0, calls, window)) + [calls]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < window / 2:
        del bounds[-2]
    reference = 0.0
    for start, end in zip(bounds, bounds[1:]):
        window_probe = sum(probe_ns[start:end])
        system = sum(system_ns[start:end])
        user = sum(work_ns[start:end]) - system
        reference += user * (end - start) * reference_ns / window_probe + system
    return Scaled(
        reference_s=reference / 1e9,
        raw_cpu_s=sum(work_ns) / 1e9,
        system_cpu_s=sum(system_ns) / 1e9,
        probe_cpu_s=sum(probe_ns) / 1e9,
        probe_calls=calls,
    )


def process_system_ns() -> int:
    """The whole process's system CPU so far, all threads included."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_stime * 1e9)


def _no_system_ns() -> int:
    return 0


def _absorb(_signum, _frame) -> None:
    """Takes a ``SIGPROF`` that was still pending when the probe stopped."""


@dataclass(frozen=True)
class Mark:
    """A point in a probed run: calls so far and work CPU since the last."""

    calls: int
    since_last_ns: int
    system_since_last_ns: int = 0


class Probe:
    """Runs :func:`kernel` after every ``interval_s`` of process CPU.

    ``clock`` measures the work: the working thread's CPU
    (:func:`time.thread_time_ns`, the default) or the whole process's
    (:func:`time.process_time_ns`, for a server with I/O threads).  The
    kernel itself is always timed with the main thread's clock, which is
    where the signal handler runs.  ``system_clock`` gives the system
    part of ``clock`` (:func:`process_system_ns` for a process clock);
    without it all work CPU is scaled.  The CPU a clock counted before
    :meth:`start` is charged to the first call, so a probe started at the
    top of a process covers the interpreter's own start-up.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.thread_time_ns,
        interval_s: float = PROBE_INTERVAL_S,
        *,
        system_clock: Callable[[], int] = _no_system_ns,
        since_process_start: bool = False,
    ):
        self.clock = clock
        self.system_clock = system_clock
        self.interval_s = interval_s
        self.work_ns: List[int] = []
        self.system_ns: List[int] = []
        self.probe_ns: List[int] = []
        self._since_start = since_process_start
        self._last = 0
        self._last_system = 0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        begin = self.clock()
        begin_system = self.system_clock()
        started = time.thread_time_ns()
        kernel()
        spent = time.thread_time_ns() - started
        self.work_ns.append(begin - self._last)
        self.system_ns.append(begin_system - self._last_system)
        self.probe_ns.append(spent)
        self._last = self.clock()
        self._last_system = self.system_clock()

    def mark(self) -> Mark:
        return Mark(
            len(self.probe_ns),
            self.clock() - self._last,
            self.system_clock() - self._last_system,
        )

    def measure(self, before: Mark, after: Mark) -> Scaled:
        """Reference seconds of the work between two marks."""
        work = list(self.work_ns[before.calls : after.calls])
        system = list(self.system_ns[before.calls : after.calls])
        probe = self.probe_ns[before.calls : after.calls]
        if not work:
            raise ValueError("no probe call between the marks; measure more work")
        work[0] -= before.since_last_ns
        work[-1] += after.since_last_ns
        system[0] -= before.system_since_last_ns
        system[-1] += after.system_since_last_ns
        return reference_seconds(work, probe, system)

    def start(self) -> "Probe":
        self._last = 0 if self._since_start else self.clock()
        self._last_system = 0 if self._since_start else self.system_clock()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # A last SIGPROF may still be pending, caught by another thread
        # before the timer stopped.  The default action would end the
        # process, and under SIG_IGN Python raises OSError for it in
        # whatever code runs next, so a handler that does nothing takes it.
        previous = self._previous
        signal.signal(signal.SIGPROF, previous if callable(previous) else _absorb)

    def __enter__(self) -> "Probe":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
