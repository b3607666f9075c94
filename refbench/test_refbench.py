"""Tests of the benchmark's own machinery: probe, scaling, percentiles.

    python3 -m pytest refbench
"""

import gc
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probe  # noqa: E402
from livework import percentile  # noqa: E402


def test_scaling_is_work_times_reference_over_probe():
    # One window of 4 calls: the probe ran twice as slow as the reference,
    # so 100 ms of work CPU is 50 ms of reference CPU.
    ref = 1_000_000
    scaled = probe.reference_seconds(
        [25_000_000] * 4, [2 * ref] * 4, window=4, reference_ns=ref
    )
    assert scaled.reference_s == pytest.approx(0.050)
    assert scaled.raw_cpu_s == pytest.approx(0.100)
    assert scaled.probe_cpu_s == pytest.approx(0.008)
    assert scaled.probe_calls == 4
    assert scaled.speed == pytest.approx(0.5)


def test_each_window_is_charged_at_its_own_speed():
    ref = 1_000_000
    # First window at reference speed, second at half speed.
    scaled = probe.reference_seconds(
        [10_000_000, 10_000_000, 20_000_000, 20_000_000],
        [ref, ref, 2 * ref, 2 * ref],
        window=2,
        reference_ns=ref,
    )
    assert scaled.reference_s == pytest.approx(0.020 + 0.020)
    # Dividing the totals would give 80 ms * 4/6 here, not 70 ms.
    uneven = probe.reference_seconds(
        [30_000_000, 30_000_000, 10_000_000, 10_000_000],
        [ref, ref, 2 * ref, 2 * ref],
        window=2,
        reference_ns=ref,
    )
    assert uneven.reference_s == pytest.approx(0.060 + 0.010)


def test_only_user_cpu_is_scaled():
    ref = 1_000_000
    # 100 ms of work, 40 ms of it system time, with the probe at half speed:
    # 60 ms of user CPU is 30 ms of reference CPU, the system time is added.
    scaled = probe.reference_seconds(
        [25_000_000] * 4, [2 * ref] * 4, [10_000_000] * 4, window=4, reference_ns=ref
    )
    assert scaled.reference_s == pytest.approx(0.030 + 0.040)
    assert scaled.raw_cpu_s == pytest.approx(0.100)
    assert scaled.system_cpu_s == pytest.approx(0.040)


def test_short_trailing_window_joins_the_previous_one():
    ref = 1_000_000
    scaled = probe.reference_seconds(
        [1_000_000] * 5, [ref] * 4 + [3 * ref], window=4, reference_ns=ref
    )
    # One window of 5 calls with mean probe 1.4 ms.
    assert scaled.reference_s == pytest.approx(0.005 / 1.4)


def test_scaling_rejects_an_interval_without_probe_calls():
    with pytest.raises(ValueError):
        probe.reference_seconds([], [])
    with pytest.raises(ValueError):
        probe.reference_seconds([1, 2], [1])
    with pytest.raises(ValueError):
        probe.reference_seconds([1, 2], [1, 1], [0])


def test_raw_values_are_kept_beside_the_scaled_one():
    scaled = probe.reference_seconds([4_000_000] * 16, [500_000] * 16)
    fields = scaled.to_dict()
    assert set(fields) == {
        "reference_s", "raw_cpu_s", "system_cpu_s", "probe_cpu_s", "probe_calls", "speed"
    }
    assert fields["raw_cpu_s"] == pytest.approx(0.064)
    assert fields["probe_cpu_s"] == pytest.approx(0.008)


def test_kernel_is_deterministic_and_imports_nothing_from_the_program():
    assert probe.kernel() == probe.kernel()
    code = (
        "import sys; sys.path.insert(0, %r); import probe; probe.kernel(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    ) % str(HERE)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    assert "repro" not in (HERE / "probe.py").read_text().split('"""', 2)[2]


def test_no_collection_runs_inside_the_kernel():
    # Fill the youngest generation to one below its threshold, so that the
    # kernel's own allocations would start a collection if it let them.
    state = {"inside": False}
    seen = []
    callback = lambda phase, _info: seen.append((phase, state["inside"]))  # noqa: E731
    gc.collect()
    gc.callbacks.append(callback)
    try:
        held = []
        while gc.get_count()[0] < gc.get_threshold()[0] - 1:
            held.append([])
        state["inside"] = True
        probe.kernel()
        state["inside"] = False
    finally:
        gc.callbacks.remove(callback)
    assert ("start", True) not in seen
    assert gc.isenabled()


def test_probe_subtracts_its_own_cpu_from_the_work():
    p = probe.Probe(interval_s=0.002)
    with p:
        before = p.mark()
        started = time.thread_time_ns()
        deadline = started + 200_000_000
        while time.thread_time_ns() < deadline:
            sum(range(1000))
        total = time.thread_time_ns() - started
        after = p.mark()
    scaled = p.measure(before, after)
    assert scaled.probe_calls >= 5
    assert scaled.raw_cpu_s + scaled.probe_cpu_s == pytest.approx(total / 1e9, rel=0.02)
    # The probe's handler is gone, and a SIGPROF still pending finds a
    # Python handler: SIG_IGN or SIG_DFL would raise or end the process.
    handler = signal.getsignal(signal.SIGPROF)
    assert handler != p._tick and callable(handler)
    handler(signal.SIGPROF, None)


def test_probed_server_marks_its_own_cpu(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "serve.py"), "--", "serve", "--port", "0",
         "--log-dir", str(tmp_path / "log"), "--sizes", "64,16"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving el on ")
        proc.send_signal(signal.SIGUSR2)
        line = proc.stdout.readline()
        assert line.startswith(probe.MARK_PREFIX)
        mark = json.loads(line[len(probe.MARK_PREFIX):])
        start = mark["since_start"]
        assert start["probe_calls"] > 0
        assert 0 < start["probe_cpu_s"] < start["raw_cpu_s"]
        assert 0 <= start["system_cpu_s"] < start["raw_cpu_s"]
        assert start["reference_s"] > 0
        assert mark["rss_mb"] > 0
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    assert proc.returncode == 0


def test_percentiles_come_from_raw_samples():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 99) == pytest.approx(99.01)
    assert percentile([7.0], 99) == 7.0
    # No bucket edges: a tail between 5 and 10 ms is reported as measured.
    assert percentile([1.0] * 98 + [6.2, 9.3], 99) == pytest.approx(6.231)


def test_a_phase_measures_whole_passes_for_about_its_share():
    import simwork

    def work(technique):
        deadline = time.perf_counter() + 0.03
        while time.perf_counter() < deadline:
            sum(range(1000))
        return True, {"begun": 2, "killed": 0, "technique": technique}

    with probe.Probe(interval_s=0.002) as p:
        passes = simwork.repeat(p, "busy", work, "el", 0.1)
        short = simwork.repeat(p, "busy", work, "fw", 0.001)
    # 30 ms passes in a 100 ms share: another starts while 15 ms still fit,
    # so three passes run (fewer only if the host stalls a pass).
    assert 2 <= len(passes) <= 3
    assert len(short) == simwork.MIN_PASSES
    assert short[0].detail == {"technique": "fw"}
    assert simwork.tally(passes) == {"ok": True, "attempted": 2 * len(passes), "failed": 0}
    assert all(pass_.scaled.probe_calls > 0 for pass_ in passes)
