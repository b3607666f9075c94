"""Plain-text rendering of experiment tables and series.

The paper's figures are line plots; with no plotting dependency available,
the benchmark harness prints the underlying series as aligned text tables —
the numbers, which carry the result, rather than the pixels.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _stat(value) -> str:
    """A histogram statistic: four significant digits, so milliseconds show."""
    return "-" if value is None else f"{value:.4g}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table with a header rule."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def format_series(
    title: str, x_label: str, y_labels: Sequence[str], points: Iterable[Sequence]
) -> str:
    """Render one figure-style series: a title plus an aligned table."""
    table = format_table([x_label, *y_labels], points)
    return f"{title}\n{table}"


def format_trace_summary(
    counts: Mapping[Tuple[str, str], int], title: str = "Trace events"
) -> str:
    """Render per-(source, kind) event counts, descending by count."""
    rows = [
        (source, kind, count)
        for (source, kind), count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    total = sum(counts.values())
    table = format_table(["source", "kind", "count"], rows)
    return f"{title} ({total} total)\n{table}"


def format_metrics(snapshot: Mapping[str, dict], title: str = "Metrics") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as an aligned table.

    Counters show their value; gauges value and peak; histograms count,
    mean, p50, p99 and max — enough to eyeball a run without opening the
    manifest.
    """
    rows = []
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data.get("type", "?")
        if kind == "counter":
            rows.append((name, kind, data["value"], ""))
        elif kind == "gauge":
            rows.append((name, kind, data["value"], f"peak={_cell(data['peak'])}"))
        elif kind == "histogram":
            detail = " ".join(
                f"{stat}={_stat(data.get(stat))}" for stat in ("mean", "p50", "p99", "max")
            )
            rows.append((name, kind, data["count"], detail))
        else:
            rows.append((name, kind, "?", ""))
    table = format_table(["metric", "type", "value", "detail"], rows)
    return f"{title}\n{table}"


def format_manifest(data: Dict) -> str:
    """Render a run-manifest document as a readable text block."""
    code = data.get("code", {})
    trace = data.get("trace", {})
    lines = [
        f"Run manifest: {data.get('label', '?')} (seed {data.get('seed', '?')})",
        f"  schema version : {data.get('schema_version', '?')}",
        f"  code           : "
        f"{code.get('git_describe') or code.get('package_version') or 'unknown'}"
        f" (python {code.get('python', '?')})",
        f"  wall time      : {data.get('wall_seconds', 0.0):.3f} s",
    ]
    sim = data.get("sim") or {}
    if sim:
        lines.append(
            f"  sim            : t={sim.get('now', 0.0):g}s, "
            f"{sim.get('events_executed', 0)} events executed"
        )
    if trace:
        retained = trace.get("events_retained", 0)
        written = trace.get("jsonl_events_written")
        jsonl = f", {written} exported to {trace.get('jsonl_path')}" if written else ""
        lines.append(f"  trace          : {retained} events retained{jsonl}")
    counters = data.get("counters") or {}
    scalar = {
        key: value
        for key, value in sorted(counters.items())
        if isinstance(value, (int, float))
    }
    if scalar:
        lines.append("  counters:")
        for key, value in scalar.items():
            lines.append(f"    {key:<28}: {_cell(value)}")
    metrics = data.get("metrics") or {}
    if metrics:
        lines.append("")
        lines.append(format_metrics(metrics))
    return "\n".join(lines)
