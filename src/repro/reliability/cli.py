"""CLI for the fault-injection harness: ``python -m repro faults``.

Subcommands::

    kinds       list every injectable fault kind
    plan        print a JSON fault plan (feed to `repro run --faults` or
                export as $REPRO_FAULTS)
    inject      apply a plan's corpus faults to a store root right now
    hold-lock   hold a store's manifest lock (the lock antagonist)
    matrix      run the fault × consumer matrix (the CI faults-smoke)

Examples::

    python -m repro faults kinds
    python -m repro faults plan --kind bitflip --target 'fig/*'
    python -m repro faults inject --kind delete --root .repro-corpus
    python -m repro faults hold-lock --root .repro-corpus --seconds 5
    python -m repro faults matrix --root .repro-faults

Every fault is deterministic (seeded), so an incident reproduced here
replays exactly in a test.  See docs/RELIABILITY.md for the fault model
and the self-heal semantics the matrix asserts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.corpus.store import DEFAULT_ROOT, ENV_ROOT, CorpusStore

from repro.reliability.faults import (
    CORPUS_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    hold_manifest_lock,
    inject_store_faults,
)


def _cmd_kinds(arguments: argparse.Namespace) -> int:
    for kind in FAULT_KINDS:
        print(kind)
    return 0


def _spec_from_args(arguments: argparse.Namespace) -> FaultSpec:
    return FaultSpec(
        kind=arguments.kind,
        target=arguments.target,
        seed=arguments.seed,
        count=arguments.count,
    )


def _cmd_plan(arguments: argparse.Namespace) -> int:
    plan = FaultPlan(
        (_spec_from_args(arguments),), stamp_dir=arguments.stamp_dir
    )
    print(plan.to_json())
    return 0


def _cmd_inject(arguments: argparse.Namespace) -> int:
    spec = _spec_from_args(arguments)
    if spec.kind not in CORPUS_FAULT_KINDS:
        print(
            f"error: {spec.kind!r} is not a corpus fault "
            f"(injectable now: {', '.join(CORPUS_FAULT_KINDS)}); runner "
            f"faults travel in a plan (see `plan`)",
            file=sys.stderr,
        )
        return 2
    store = CorpusStore(arguments.root)
    actions = inject_store_faults(store, FaultPlan((spec,)))
    for action in actions:
        print(action)
    if not actions:
        print(
            f"nothing matched {spec.target!r} in {store.root} "
            f"(empty store?)",
            file=sys.stderr,
        )
        return 1
    print(
        f"{len(actions)} fault(s) injected; `python -m repro corpus "
        f"--root {store.root} verify --repair` heals them"
    )
    return 0


def _cmd_hold_lock(arguments: argparse.Namespace) -> int:
    print(
        f"holding manifest lock of {arguments.root} for "
        f"{arguments.seconds:.1f}s",
        file=sys.stderr,
    )
    hold_manifest_lock(arguments.root, arguments.seconds)
    return 0


def _cmd_matrix(arguments: argparse.Namespace) -> int:
    from repro.reliability.matrix import run_matrix

    cases = run_matrix(
        arguments.root, runner_cases=not arguments.no_runner
    )
    width = max(len(case.case) for case in cases)
    for case in cases:
        status = "ok  " if case.ok else "FAIL"
        print(f"{status} {case.case:{width}s}  {case.detail}")
    failed = [case for case in cases if not case.ok]
    print(
        f"\n{len(cases) - len(failed)}/{len(cases)} cells passed "
        f"(root {arguments.root})"
    )
    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump(
                [
                    {
                        "case": case.case,
                        "ok": case.ok,
                        "detail": case.detail,
                    }
                    for case in cases
                ],
                handle,
                indent=2,
            )
            handle.write("\n")
    return 1 if failed else 0


def register(commands) -> None:
    parser = commands.add_parser(
        "faults",
        help="deterministic fault injection",
        description="Deterministic fault injection against the corpus "
        "store, the manifest lock and the experiment runner.",
    )
    parser.set_defaults(runtime_errors=(OSError, ValueError))
    subcommands = parser.add_subparsers(dest="command", required=True)

    kinds = subcommands.add_parser(
        "kinds", help="list every injectable fault kind"
    )
    kinds.set_defaults(handler=_cmd_kinds)

    def add_spec_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--kind", required=True, choices=FAULT_KINDS,
            help="fault kind to arm",
        )
        subparser.add_argument(
            "--target", default="*", metavar="GLOB",
            help="scenario/section glob the fault matches (default: *)",
        )
        subparser.add_argument(
            "--seed", type=int, default=0,
            help="which byte/bit the damage hits (default: 0)",
        )
        subparser.add_argument(
            "--count", type=int, default=1,
            help="firing budget when a stamp dir bounds it (default: 1)",
        )

    plan = subcommands.add_parser(
        "plan",
        help="print a JSON fault plan for `repro run --faults` / "
        "$REPRO_FAULTS",
    )
    add_spec_arguments(plan)
    plan.add_argument(
        "--stamp-dir", default=None, metavar="DIR",
        help="directory bounding firings across processes (required for "
        "a kill-section fault to fire once, not every retry)",
    )
    plan.set_defaults(handler=_cmd_plan)

    inject = subcommands.add_parser(
        "inject", help="apply a corpus fault to a store root now"
    )
    add_spec_arguments(inject)
    inject.add_argument(
        "--root",
        default=os.environ.get(ENV_ROOT, DEFAULT_ROOT),
        help=f"store root (default: ${ENV_ROOT} or {DEFAULT_ROOT})",
    )
    inject.set_defaults(handler=_cmd_inject)

    hold = subcommands.add_parser(
        "hold-lock", help="hold a store's manifest lock (lock antagonist)"
    )
    hold.add_argument(
        "--root",
        default=os.environ.get(ENV_ROOT, DEFAULT_ROOT),
        help=f"store root (default: ${ENV_ROOT} or {DEFAULT_ROOT})",
    )
    hold.add_argument(
        "--seconds", type=float, default=5.0,
        help="how long to hold the lock (default: 5)",
    )
    hold.set_defaults(handler=_cmd_hold_lock)

    matrix = subcommands.add_parser(
        "matrix",
        help="run the fault × consumer matrix (CI faults-smoke payload)",
    )
    matrix.add_argument(
        "--root", default=".repro-faults",
        help="scratch directory for the matrix stores — wiped and "
        "recreated (default: .repro-faults)",
    )
    matrix.add_argument(
        "--no-runner", action="store_true",
        help="skip the experiment-runner cells (corpus + lock only)",
    )
    matrix.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the case results as JSON",
    )
    matrix.set_defaults(handler=_cmd_matrix)
