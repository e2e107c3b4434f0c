"""CLI for the traffic engine: ``python -m repro loadgen``.

Subcommands::

    list                              committed scenario documents
    sets                              named benchmark sets + members
    show  NAME                        one document + its composition plan
    generate NAME [--out F]           compose + record a CALTRC02 trace

Examples::

    python -m repro loadgen list
    python -m repro loadgen show multi-tenant-server
    python -m repro loadgen generate uniform-churn --out uc.trace
    python -m repro loadgen generate "4x server-churn" --out x4.trace
    python -m repro trace replay uc.trace       # verifies vs the footer

``generate`` resolves its token like ``repro run --set``: a scenario
name, a counted alias (``4x server-churn``) or — with ``--spec`` — a
JSON document path.  It prints the canonical content digest, so two
invocations demonstrating determinism can be compared without a replay.
"""

from __future__ import annotations

import argparse
import json

from repro.loadgen.arrivals import timelines
from repro.loadgen.compose import apportion_tenants, compose_spec
from repro.loadgen.schema import LoadScenario, load_scenario
from repro.loadgen.sets import BENCHMARK_SETS, load_scenarios, resolve
from repro.traces.format import TraceFormatError, TraceIntegrityError
from repro.traces.recorder import record_spec


def _cmd_list(arguments: argparse.Namespace) -> int:
    scenarios = load_scenarios()
    width = max(len(name) for name in scenarios)
    for name in sorted(scenarios):
        scenario = scenarios[name]
        print(
            f"{name:{width}s}  {scenario.arrival.kind:8s} "
            f"{scenario.arrival.lambda_per_s:7.0f}/s  "
            f"{scenario.tenants:2d} tenant(s)  {scenario.duration_s:4.2f}s  "
            f"{scenario.description}"
        )
    return 0


def _cmd_sets(arguments: argparse.Namespace) -> int:
    scenarios = load_scenarios()
    width = max(len(name) for name in BENCHMARK_SETS)
    for name in sorted(BENCHMARK_SETS):
        members = resolve([name], scenarios)
        print(
            f"{name:{width}s}  "
            f"{', '.join(member.name for member in members)}"
        )
    return 0


def _resolve_one(arguments: argparse.Namespace) -> LoadScenario:
    if bool(arguments.scenario) == bool(arguments.spec):
        raise argparse.ArgumentError(
            None,
            f"{arguments.command} needs a scenario name or --spec FILE "
            "(not both)",
        )
    if arguments.spec:
        scenario = load_scenario(arguments.spec)
    else:
        resolved = resolve([arguments.scenario], load_scenarios())
        if len(resolved) != 1:
            raise ValueError(
                f"{arguments.scenario!r} resolves to "
                f"{len(resolved)} scenarios; name exactly one "
                "(generate one trace per invocation)"
            )
        scenario = resolved[0]
    if arguments.duration_scale is not None:
        scenario = scenario.scaled(arguments.duration_scale)
    return scenario


def _cmd_show(arguments: argparse.Namespace) -> int:
    scenario = _resolve_one(arguments)
    print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    tenants = apportion_tenants(scenario)
    arrivals = timelines(scenario)
    print()
    print(f"composition plan ({scenario.describe()}):")
    for tenant, profile in enumerate(tenants):
        count = len(arrivals[tenant])
        print(f"  tenant {tenant}: {profile:22s} {count:6d} arrival(s)")
    print(f"  total arrivals: {sum(len(t) for t in arrivals)}")
    return 0


def _cmd_generate(arguments: argparse.Namespace) -> int:
    from repro.corpus.store import canonical_digest

    scenario = _resolve_one(arguments)
    spec = compose_spec(scenario)
    out = arguments.out or f"{scenario.name}.trace"
    result = record_spec(spec, out)
    digest, raw_bytes, footer = canonical_digest(out)
    events = result.events
    print(
        f"composed {scenario.name} -> {out} (CALTRC02 compressed)\n"
        f"  {scenario.describe()}\n"
        f"  records {footer['records']}  instructions {result.instructions}  "
        f"alloc events {result.alloc_events}  "
        f"cform instructions {result.cform_instructions}\n"
        f"  l1 {events.l1_accesses} accesses / {events.l1_misses} misses  "
        f"l2 {events.l2_misses} misses  l3 {events.l3_misses} misses\n"
        f"  canonical digest {digest}"
    )
    return 0


def register(commands) -> None:
    parser = commands.add_parser(
        "loadgen",
        help="compose multi-tenant load scenarios into recorded traces",
        description="Open-loop traffic engine: compose multi-tenant "
        "load scenarios into recorded traces.",
    )
    parser.set_defaults(
        runtime_errors=(TraceFormatError, TraceIntegrityError, OSError),
        usage_errors=(KeyError, ValueError),
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    listing = subcommands.add_parser(
        "list", help="show the committed scenario documents"
    )
    listing.set_defaults(handler=_cmd_list)
    sets = subcommands.add_parser("sets", help="show the named benchmark sets")
    sets.set_defaults(handler=_cmd_sets)

    show = subcommands.add_parser(
        "show", help="print one scenario document and its composition plan"
    )
    show.set_defaults(handler=_cmd_show)
    generate = subcommands.add_parser(
        "generate", help="compose a scenario and record the merged trace"
    )
    generate.set_defaults(handler=_cmd_generate)
    for sub in (show, generate):
        sub.add_argument(
            "scenario", nargs="?", default=None,
            help="scenario name or counted alias like '4x server-churn'",
        )
        sub.add_argument(
            "--spec", default=None,
            help="path to a JSON scenario document (overrides the name)",
        )
        sub.add_argument(
            "--duration-scale", type=float, default=None, metavar="F",
            help="scale duration_s/warmup_s by F (quick modes)",
        )
    generate.add_argument(
        "--out", default=None,
        help="output trace path (default: <name>.trace)",
    )
