"""CLI for the corpus store: ``python -m repro corpus``.

Subcommands::

    build   [--scenario NAME ...] [--instructions N]
            record any registry mixes missing from the store
    ls      manifest table: scenario, fingerprint, digest, sizes, ratio
    verify  re-hash every object against its manifest digest; non-zero
            exit on problems, ``--repair`` self-heals them (quarantine +
            re-record from the manifest-stored spec)
    gc      drop unreferenced objects, stale manifest entries and
            quarantined damage older than ``--keep-days``
    key     print the registry fingerprint (the CI cache key)

The store root is ``--root``, else ``$REPRO_CORPUS_DIR``, else
``./.repro-corpus``.  Examples::

    python -m repro corpus build --instructions 8000
    python -m repro corpus ls
    python -m repro corpus verify
    python -m repro corpus verify --repair
    python -m repro corpus gc --keep-days 3
    python -m repro corpus key

See the "Corpus & compression" section of BENCHMARKS.md for the store
layout and measured compression ratios.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.corpus.store import (
    DEFAULT_ROOT,
    ENV_ROOT,
    QUARANTINE_KEEP_DAYS,
    CorpusStore,
    registry_fingerprint,
)
from repro.traces.registry import CORPUS


def _store(arguments: argparse.Namespace) -> CorpusStore:
    return CorpusStore(arguments.root)


def _cmd_build(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    names = arguments.scenario or sorted(CORPUS)
    unknown = sorted(set(names) - set(CORPUS))
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(CORPUS))}"
        )
    outcomes = store.build_registry(names, arguments.instructions)
    width = max(len(outcome.entry.scenario) for outcome in outcomes)
    for outcome in outcomes:
        entry = outcome.entry
        print(
            f"{entry.scenario:{width}s}  "
            f"{'recorded' if outcome.built else 'corpus hit':10s} "
            f"{entry.records:>8d} records  "
            f"{entry.stored_bytes:>9d} B stored  "
            f"{entry.compression_ratio:6.1f}x  {entry.digest[:12]}"
        )
    print(
        f"\n{store.built} recorded, {store.hits} reused "
        f"(root {store.root})"
    )
    return 0


def _cmd_ls(arguments: argparse.Namespace) -> int:
    entries = sorted(
        _store(arguments).manifest().entries.values(),
        key=lambda entry: entry.scenario,
    )
    if not entries:
        print(f"empty corpus (root {arguments.root})")
        return 0
    width = max(len(entry.scenario) for entry in entries)
    print(
        f"{'scenario':{width}s}  {'driver':9s} {'instr':>8s} {'records':>8s} "
        f"{'raw B':>9s} {'stored B':>9s} {'ratio':>6s}  digest"
    )
    for entry in entries:
        print(
            f"{entry.scenario:{width}s}  {entry.driver:9s} "
            f"{entry.instructions:>8d} {entry.records:>8d} "
            f"{entry.raw_bytes:>9d} {entry.stored_bytes:>9d} "
            f"{entry.compression_ratio:>5.1f}x  {entry.digest[:16]}"
        )
    return 0


def _print_heal_summary(store: CorpusStore) -> None:
    """One-line view of the quarantine ledger (events.jsonl), if any."""
    summary = store.heal_summary()
    if not summary["events"]:
        return
    print(
        f"heal ledger: {summary['events']} event(s), "
        f"{summary['quarantined']} quarantined file(s) "
        f"({store.heal_log_path})"
    )
    for name, count in sorted(summary["scenarios"].items()):
        print(f"  {name}: {count} event(s)")


def _cmd_verify(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    entries = len(store.manifest().entries)
    if arguments.repair:
        problems, actions = store.repair()
        for problem, action in zip(problems, actions):
            print(f"FAIL {problem}", file=sys.stderr)
            print(f"HEAL {action}", file=sys.stderr)
        remaining = store.verify()
        if remaining:
            for problem in remaining:
                print(f"FAIL (unrepaired) {problem}", file=sys.stderr)
            return 1
        print(
            f"ok: {len(problems)} problem(s) healed, "
            f"{len(store.manifest().entries)} entries verified "
            f"(quarantine: {store.quarantine_dir})"
        )
        _print_heal_summary(store)
        return 0
    problems = store.verify()
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(
            f"{len(problems)} problem(s) across {entries} entries "
            f"(rerun with --repair to self-heal)",
            file=sys.stderr,
        )
        _print_heal_summary(store)
        return 1
    print(f"ok: {entries} entries, every object hash verified")
    _print_heal_summary(store)
    return 0


def _cmd_gc(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    removed = store.gc(keep_days=arguments.keep_days)
    for item in removed:
        print(f"removed {item}")
    print(
        f"{len(removed)} item(s) removed, "
        f"{store.reclaimed_bytes} B reclaimed"
    )
    return 0


def _cmd_key(arguments: argparse.Namespace) -> int:
    print(registry_fingerprint())
    return 0


def register(commands) -> None:
    parser = commands.add_parser(
        "corpus",
        help="build, inspect and verify the trace corpus",
        description="Build, inspect and verify the content-addressed "
        "trace corpus.",
    )
    parser.set_defaults(
        runtime_errors=(OSError, ValueError),
        usage_errors=(KeyError,),
    )
    parser.add_argument(
        "--root",
        default=os.environ.get(ENV_ROOT, DEFAULT_ROOT),
        help=f"store root (default: ${ENV_ROOT} or {DEFAULT_ROOT})",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    build = subcommands.add_parser(
        "build", help="record any registry mixes missing from the store"
    )
    build.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="registry mix to build (repeatable; default: all "
        f"{len(CORPUS)} mixes)",
    )
    build.add_argument(
        "--instructions", type=int, default=None,
        help="override every spec's trace length",
    )
    build.set_defaults(handler=_cmd_build)

    listing = subcommands.add_parser("ls", help="list manifest entries")
    listing.set_defaults(handler=_cmd_ls)
    verify = subcommands.add_parser(
        "verify", help="re-hash objects against the manifest"
    )
    verify.add_argument(
        "--repair", action="store_true",
        help="self-heal: quarantine damaged objects and re-record them "
        "from their manifest-stored specs",
    )
    verify.set_defaults(handler=_cmd_verify)
    gc = subcommands.add_parser(
        "gc",
        help="remove unreferenced objects and old quarantined damage",
    )
    gc.add_argument(
        "--keep-days", type=float, default=QUARANTINE_KEEP_DAYS,
        metavar="DAYS",
        help="keep quarantined damage younger than DAYS for diagnosis "
        f"(default: {QUARANTINE_KEEP_DAYS:g}; the events.jsonl ledger "
        "is always kept)",
    )
    gc.set_defaults(handler=_cmd_gc)
    key = subcommands.add_parser(
        "key", help="print the registry fingerprint (CI cache key)"
    )
    key.set_defaults(handler=_cmd_key)
