"""CLI for the perf harness: ``python -m repro perf``.

Examples::

    python -m repro perf                          # all scenarios, defaults
    python -m repro perf --scenario codec_encode --scenario codec_decode
    python -m repro perf --iterations 50 --warmup 5
    python -m repro perf --profile                # also dump .prof files
    python -m repro perf --label baseline         # BENCH_baseline.json
    python -m repro perf --quick                  # smoke-sized workloads

See BENCHMARKS.md for the scenario list and the JSON schema.
"""

from __future__ import annotations

import argparse
import os

from repro.perf.harness import profile_into, run_timed
from repro.perf.report import (
    DEFAULT_OUTPUT_DIR,
    build_report,
    default_label,
    write_report,
)
from repro.perf.scenarios import SCENARIOS, get_scenarios


def _cmd_perf(arguments: argparse.Namespace) -> int:
    if arguments.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:32s} {scenario.description}")
        return 0

    if arguments.iterations is not None and arguments.iterations < 1:
        raise argparse.ArgumentError(None, "--iterations must be >= 1")
    if arguments.warmup is not None and arguments.warmup < 0:
        raise argparse.ArgumentError(None, "--warmup must be >= 0")
    scenarios = get_scenarios(arguments.scenario)

    results = []
    for scenario in scenarios:
        func, ops = scenario.build(arguments.quick)
        iterations = (
            arguments.iterations
            if arguments.iterations is not None
            else (3 if arguments.quick else scenario.default_iterations)
        )
        warmup = (
            arguments.warmup
            if arguments.warmup is not None
            else (1 if arguments.quick else scenario.default_warmup)
        )
        result = run_timed(
            func,
            name=scenario.name,
            iterations=iterations,
            warmup=warmup,
            ops_per_iteration=ops,
        )
        results.append(result)
        print(
            f"{result.name:32s} {result.ops_per_sec:12.1f} ops/s  "
            f"p50 {result.p50_s * 1e3:8.3f} ms  p95 {result.p95_s * 1e3:8.3f} ms"
        )
        if arguments.profile:
            profile_dir = os.path.join(arguments.output_dir, "profiles")
            os.makedirs(profile_dir, exist_ok=True)
            profile_path = os.path.join(profile_dir, f"{scenario.name}.prof")
            profile_into(func, profile_path, max(1, iterations // 3))
            print(f"{'':32s} profile -> {profile_path}")

    label = arguments.label or default_label()
    report = build_report(
        results,
        label=label,
        iterations_override=arguments.iterations,
        warmup_override=arguments.warmup,
        quick=arguments.quick,
    )
    if arguments.no_write:
        return 0
    path = write_report(report, arguments.output_dir)
    print(f"wrote {path}")
    return 0


def register(commands) -> None:
    parser = commands.add_parser(
        "perf",
        help="benchmark the simulator's hot paths",
        description="Benchmark the simulator's hot paths and record a "
        "BENCH_<label>.json trajectory entry.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to run (repeatable; default: all). "
        f"Known: {', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="timed iterations per scenario (default: per-scenario)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="unrecorded warmup iterations (default: per-scenario)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="additionally run each scenario under cProfile and write "
        "<output-dir>/profiles/<scenario>.prof",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-sized workloads and few iterations (CI smoke mode)",
    )
    parser.add_argument(
        "--label", default=None,
        help="report label; output file is BENCH_<label>.json "
        "(default: UTC timestamp)",
    )
    parser.add_argument(
        "--output-dir", default=DEFAULT_OUTPUT_DIR,
        help=f"where to write the report (default: {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the summary but do not write a BENCH_*.json file",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    parser.set_defaults(handler=_cmd_perf, usage_errors=(KeyError,))
