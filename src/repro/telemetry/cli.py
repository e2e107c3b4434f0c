"""CLI over one run's span log: ``python -m repro telemetry``.

Subcommands::

    summarize [DIR]   per-span timing table, counters and profile
                      hotspots from DIR/spans.jsonl
    export    [DIR]   merged metrics in JSON (default) or Prometheus
                      text format (--format prometheus), to stdout or
                      --out PATH

``DIR`` is the telemetry sink a run wrote (``repro run --telemetry``
defaults it to ``<results dir>/telemetry``).  Examples::

    python -m repro telemetry summarize results/telemetry
    python -m repro telemetry export results/telemetry --format prometheus
    python -m repro telemetry export results/telemetry --out metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.telemetry.export import (
    metrics_document,
    prometheus_text,
    read_span_log,
    summarize_spans,
)
from repro.telemetry.runtime import SPAN_LOG_NAME

#: Default sink location: where `repro run` puts telemetry by default.
DEFAULT_DIR = os.path.join("results", "telemetry")


def _load(directory: str):
    path = os.path.join(directory, SPAN_LOG_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no span log at {path} — run with `repro run --telemetry` "
            "first, or point at the run's telemetry directory"
        )
    return read_span_log(path)


def _cmd_summarize(arguments: argparse.Namespace) -> int:
    log = _load(arguments.dir)
    spans = summarize_spans(log.spans)
    if spans:
        width = max(len(name) for name in spans)
        print(
            f"{'span':{width}s} {'count':>7s} {'total s':>10s} "
            f"{'mean s':>10s} {'max s':>10s}"
        )
        for name, row in spans.items():
            print(
                f"{name:{width}s} {row['count']:>7d} "
                f"{row['total_s']:>10.4f} {row['mean_s']:>10.4f} "
                f"{row['max_s']:>10.4f}"
            )
    else:
        print("no spans recorded")
    merged = metrics_document(log)
    counters = merged["counters"]
    if counters:
        print()
        width = max(len(key) for key in counters)
        for key, value in counters.items():
            formatted = (
                str(int(value))
                if float(value).is_integer()
                else f"{value:.4f}"
            )
            print(f"{key:{width}s} {formatted:>14s}")
    if log.profiles:
        for record in log.profiles:
            print(f"\nprofile {record.get('section', '?')} (cumulative):")
            for spot in record.get("hotspots", [])[:5]:
                print(
                    f"  {spot['cumtime_s']:9.4f}s {spot['calls']:>9} "
                    f"{spot['function']}"
                )
    if log.malformed:
        print(
            f"warning: {log.malformed} malformed line(s) in the span log",
            file=sys.stderr,
        )
    print(
        f"\n{len(log.spans)} span(s), {len(log.snapshots)} process(es), "
        f"{len(log.profiles)} profile(s)  ({arguments.dir})"
    )
    return 0


def _cmd_export(arguments: argparse.Namespace) -> int:
    document = metrics_document(_load(arguments.dir))
    if arguments.format == "prometheus":
        rendered = prometheus_text(document)
    else:
        rendered = json.dumps(document, indent=2) + "\n"
    if arguments.out:
        with open(arguments.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {arguments.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def register(commands) -> None:
    parser = commands.add_parser(
        "telemetry",
        help="summarise and export one run's telemetry",
        description="Summarise and export one run's telemetry "
        "(span log + metric snapshots).",
    )
    parser.set_defaults(runtime_errors=(OSError, ValueError))
    subcommands = parser.add_subparsers(dest="command", required=True)

    summarize = subcommands.add_parser(
        "summarize", help="per-span timing table + counters + hotspots"
    )
    summarize.add_argument(
        "dir", nargs="?", default=DEFAULT_DIR,
        help=f"telemetry directory (default: {DEFAULT_DIR})",
    )
    summarize.set_defaults(handler=_cmd_summarize)

    export = subcommands.add_parser(
        "export", help="merged metrics as JSON or Prometheus text"
    )
    export.add_argument(
        "dir", nargs="?", default=DEFAULT_DIR,
        help=f"telemetry directory (default: {DEFAULT_DIR})",
    )
    export.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="output format (default: json)",
    )
    export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write to PATH instead of stdout",
    )
    export.set_defaults(handler=_cmd_export)
