"""Exporters over one run's span log: merge, snapshot, summarise.

The span log (``spans.jsonl``) is the single source every exporter
reads: ``span`` records are timed scopes, ``metrics`` records are
cumulative per-process registry snapshots (monotonic ``seq`` per pid),
``profile`` records carry per-section cProfile hotspots.  This module
turns that log into:

* ``metrics.json`` — one merged snapshot document
  (schema :data:`METRICS_SCHEMA`): counters summed across processes,
  gauges last-writer-wins, histograms merged bucket-wise, plus a
  per-span-name aggregation;
* Prometheus text exposition (:func:`prometheus_text`), written as
  ``metrics.prom`` and by ``python -m repro telemetry export``;
* ``TELEMETRY.md`` (:func:`summary_markdown`) — the human summary
  written next to ``results/index.json``.

Merging is idempotent over repeated flushes: each process appends
cumulative snapshots, and only the highest-``seq`` snapshot per pid
contributes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.telemetry.runtime import SPAN_LOG_NAME
from repro.telemetry.spans import SPAN_SCHEMA, validate_span_record

#: Schema tag of the exported ``metrics.json`` document.
METRICS_SCHEMA = "repro-metrics/v1"

#: Keys every exported metrics document must carry.
METRICS_REQUIRED_KEYS = (
    "schema", "counters", "gauges", "histograms", "spans", "processes",
)


@dataclass
class RunLog:
    """Everything parsed out of one span log."""

    spans: list[dict] = field(default_factory=list)
    profiles: list[dict] = field(default_factory=list)
    #: pid -> that process's highest-seq cumulative metrics snapshot.
    snapshots: dict[int, dict] = field(default_factory=dict)
    #: Lines that failed to parse (diagnostics; should be empty).
    malformed: int = 0


def read_span_log(path: str) -> RunLog:
    """Parse a span log into spans, profiles and per-pid snapshots."""
    log = RunLog()
    if not os.path.exists(path):
        return log
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                log.malformed += 1
                continue
            kind = record.get("type")
            if kind == "span":
                log.spans.append(record)
            elif kind == "profile":
                log.profiles.append(record)
            elif kind == "metrics":
                pid = int(record.get("pid", 0))
                seq = int(record.get("seq", 0))
                best = log.snapshots.get(pid)
                if best is None or seq >= int(best.get("seq", 0)):
                    log.snapshots[pid] = record
            else:
                log.malformed += 1
    return log


def merge_snapshots(snapshots: dict[int, dict]) -> dict:
    """Combine per-process cumulative snapshots into one registry view.

    Counters sum (each process counted what it saw), gauges are
    last-writer-wins in pid order (deterministic given the snapshots),
    histograms merge bucket-wise when their bucket bounds agree — the
    normal case, since every instrumented site uses the registry
    defaults — and otherwise the later snapshot wins whole.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for pid in sorted(snapshots):
        metrics = snapshots[pid].get("metrics", {})
        for key, value in metrics.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        gauges.update(metrics.get("gauges", {}))
        for key, histogram in metrics.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None or merged["buckets"] != histogram["buckets"]:
                histograms[key] = {
                    "buckets": list(histogram["buckets"]),
                    "counts": list(histogram["counts"]),
                    "sum": histogram["sum"],
                    "count": histogram["count"],
                    "min": histogram["min"],
                    "max": histogram["max"],
                }
                continue
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], histogram["counts"])
            ]
            merged["sum"] += histogram["sum"]
            merged["count"] += histogram["count"]
            merged["min"] = min(merged["min"], histogram["min"])
            merged["max"] = max(merged["max"], histogram["max"])
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def summarize_spans(spans: list[dict]) -> dict[str, dict]:
    """Per-span-name aggregation: count, total/mean/max seconds."""
    summary: dict[str, dict] = {}
    for record in spans:
        name = record.get("name", "?")
        duration = float(record.get("duration_s", 0.0))
        row = summary.get(name)
        if row is None:
            summary[name] = {
                "count": 1,
                "total_s": duration,
                "max_s": duration,
            }
        else:
            row["count"] += 1
            row["total_s"] += duration
            row["max_s"] = max(row["max_s"], duration)
    for row in summary.values():
        row["mean_s"] = row["total_s"] / row["count"]
    return dict(sorted(summary.items()))


def metrics_document(log: RunLog) -> dict:
    """The ``metrics.json`` document for one parsed run log."""
    merged = merge_snapshots(log.snapshots)
    return {
        "schema": METRICS_SCHEMA,
        "span_schema": SPAN_SCHEMA,
        "processes": sorted(log.snapshots),
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": dict(sorted(merged["gauges"].items())),
        "histograms": dict(sorted(merged["histograms"].items())),
        "spans": summarize_spans(log.spans),
    }


def validate_metrics_document(document: dict) -> list[str]:
    """Schema-check one exported metrics document; returns problems."""
    problems = []
    for key in METRICS_REQUIRED_KEYS:
        if key not in document:
            problems.append(f"metrics document missing key {key!r}")
    if document.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"unsupported metrics schema {document.get('schema')!r}"
        )
    for section in ("counters", "gauges", "histograms", "spans"):
        if section in document and not isinstance(document[section], dict):
            problems.append(f"metrics {section} is not an object")
    for key, histogram in document.get("histograms", {}).items():
        if not isinstance(histogram, dict):
            problems.append(f"histogram {key} is not an object")
            continue
        counts = histogram.get("counts", [])
        buckets = histogram.get("buckets", [])
        if len(counts) != len(buckets) + 1:
            problems.append(
                f"histogram {key}: {len(counts)} counts for "
                f"{len(buckets)} buckets (want buckets + 1)"
            )
    return problems


# -- Prometheus text exposition -----------------------------------------------


def _split_series(key: str) -> tuple[str, str]:
    """``name{labels}`` -> (name, 'k="v",...'); plain names get ''."""
    if "{" in key and key.endswith("}"):
        name, _, labels = key.partition("{")
        return name, labels[:-1]
    return key, ""


def _with_label(labels: str, extra: str) -> str:
    return f"{labels},{extra}" if labels else extra


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(document: dict) -> str:
    """Prometheus text exposition (version 0.0.4) of a metrics document.

    Series keys already use the exposition's ``name{k="v"}`` syntax
    (see :func:`repro.telemetry.metrics.series_key`), so counters and
    gauges render directly; histograms expand into the conventional
    ``_bucket``/``_sum``/``_count`` triple with an ``le`` label.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in document.get("counters", {}).items():
        name, labels = _split_series(key)
        type_line(name, "counter")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}{suffix} {_format_value(value)}")
    for key, value in document.get("gauges", {}).items():
        name, labels = _split_series(key)
        type_line(name, "gauge")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}{suffix} {_format_value(value)}")
    for key, histogram in document.get("histograms", {}).items():
        name, labels = _split_series(key)
        type_line(name, "histogram")
        cumulative = 0
        bounds = list(histogram["buckets"]) + [float("inf")]
        for bound, count in zip(bounds, histogram["counts"]):
            cumulative += count
            le = _with_label(labels, f'le="{_format_value(bound)}"')
            lines.append(f"{name}_bucket{{{le}}} {cumulative}")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}_sum{suffix} {_format_value(histogram['sum'])}")
        lines.append(f"{name}_count{suffix} {histogram['count']}")
    return "\n".join(lines) + "\n" if lines else ""


# -- run summary --------------------------------------------------------------


def summary_markdown(document: dict, log: RunLog) -> str:
    """The ``TELEMETRY.md`` body: spans, hot counters, profile hotspots."""
    parts = [
        "# TELEMETRY — run introspection\n",
        "Non-deterministic observability sidecar of one `repro run`; "
        "the deterministic artifacts (`results/*.json`, EXPERIMENTS.md) "
        "never include these numbers.  See docs/OBSERVABILITY.md.\n",
    ]
    spans = document.get("spans", {})
    if spans:
        parts.append("## Spans\n")
        parts.append("| span | count | total s | mean s | max s |")
        parts.append("|---|---:|---:|---:|---:|")
        for name, row in spans.items():
            parts.append(
                f"| `{name}` | {row['count']} | {row['total_s']:.4f} "
                f"| {row['mean_s']:.4f} | {row['max_s']:.4f} |"
            )
        parts.append("")
    counters = document.get("counters", {})
    if counters:
        parts.append("## Counters\n")
        parts.append("| series | value |")
        parts.append("|---|---:|")
        for key, value in counters.items():
            parts.append(f"| `{key}` | {_format_value(value)} |")
        parts.append("")
    gauges = document.get("gauges", {})
    if gauges:
        parts.append("## Gauges\n")
        parts.append("| series | value |")
        parts.append("|---|---:|")
        for key, value in gauges.items():
            parts.append(f"| `{key}` | {_format_value(value)} |")
        parts.append("")
    if log.profiles:
        parts.append("## Profile hotspots (cProfile, cumulative)\n")
        for record in log.profiles:
            parts.append(f"### {record.get('section', '?')}\n")
            for spot in record.get("hotspots", []):
                parts.append(
                    f"- `{spot['function']}` — cum {spot['cumtime_s']:.4f}s, "
                    f"tot {spot['tottime_s']:.4f}s, {spot['calls']} call(s)"
                )
            parts.append("")
    return "\n".join(parts).rstrip() + "\n"


# -- one-call run export ------------------------------------------------------


def export_run(
    telemetry_dir: str, output_dir: str | None = None
) -> dict[str, str]:
    """Export one run's telemetry directory into its artifact set.

    Reads ``<telemetry_dir>/spans.jsonl`` and writes, into
    ``output_dir`` (default: the telemetry directory itself):
    ``metrics.json``, ``metrics.prom`` and ``TELEMETRY.md``.  Returns
    ``{artifact name: path}``.
    """
    output_dir = output_dir or telemetry_dir
    log = read_span_log(os.path.join(telemetry_dir, SPAN_LOG_NAME))
    document = metrics_document(log)
    os.makedirs(output_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(output_dir, "metrics.json"),
        "prometheus": os.path.join(output_dir, "metrics.prom"),
        "summary": os.path.join(output_dir, "TELEMETRY.md"),
    }
    with open(paths["metrics"], "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    with open(paths["prometheus"], "w") as handle:
        handle.write(prometheus_text(document))
    with open(paths["summary"], "w") as handle:
        handle.write(summary_markdown(document, log))
    return paths


def validate_span_log(path: str) -> list[str]:
    """Schema-check every span record in a log; returns problems."""
    problems: list[str] = []
    log = read_span_log(path)
    if log.malformed:
        problems.append(f"{log.malformed} malformed line(s)")
    for record in log.spans:
        problems.extend(validate_span_record(record))
    return problems
