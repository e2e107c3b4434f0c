"""One front door: ``python -m repro``.

Subcommands::

    run       run registered experiments (by name/tag/--set; default: all)
              and write EXPERIMENTS.md + results/*.json
    perf      the perf harness          (repro.perf.cli)
    trace     the trace engine          (repro.traces.cli)
    corpus    the corpus store          (repro.corpus.cli)
    faults    fault injection           (repro.reliability.cli)
    loadgen   the traffic engine        (repro.loadgen.cli)
    telemetry run introspection         (repro.telemetry.cli)

Every subcommand is a branch of one argparse tree: ``run`` is defined
here against the experiment registry, and each command module adds its
own branch through ``register(commands)``.  :func:`main` owns the one
mapping from handler errors to exit codes.  Examples::

    python -m repro run                        # all sections, quick
    python -m repro run fig10 fig11            # two sections by name
    python -m repro run --tag trace            # everything trace-backed
    python -m repro run --full --jobs 4        # the paper-scale report
    python -m repro run --list                 # what exists
    python -m repro run --set synthetic        # a loadgen benchmark set
    python -m repro run --check                # gate vs results/reference/
    python -m repro run --update-reference     # reseed the committed refs
    python -m repro run --telemetry            # spans + metrics sidecar
    python -m repro run --profile-sections     # + per-section cProfile
    python -m repro telemetry summarize        # read the sidecar back
    python -m repro perf --quick
    python -m repro trace list
    python -m repro corpus ls
    python -m repro faults matrix              # the CI faults-smoke
    python -m repro loadgen list               # committed load scenarios
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.context import PROFILES, RunContext
from repro.experiments.registry import (
    UnknownExperimentError,
    all_experiments,
    select,
)
from repro.experiments.runner import (
    DEFAULT_RESULTS_DIR,
    execute_report,
    write_report,
    write_results,
)


def _cmd_list() -> int:
    experiments = all_experiments()
    width = max(len(experiment.name) for experiment in experiments)
    for experiment in experiments:
        tags = ",".join(sorted(experiment.tags))
        needs = ",".join(sorted(experiment.needs)) or "-"
        print(
            f"{experiment.name:{width}s}  {tags:18s} needs={needs:28s} "
            f"{experiment.title}"
        )
    return 0


def _validate_run(arguments: argparse.Namespace) -> None:
    """Fail fast on a bad --set or --faults, not mid-run."""
    if arguments.set:
        from repro.loadgen.sets import load_scenarios, resolve

        try:
            resolve(arguments.set, load_scenarios())
        except (KeyError, ValueError, OSError) as error:
            message = (
                str(error.args[0])
                if isinstance(error, KeyError) and error.args
                else str(error)
            )
            raise argparse.ArgumentError(None, f"--set: {message}")
    if arguments.faults:
        from repro.reliability.faults import FaultPlan

        try:
            FaultPlan.from_json(arguments.faults)
        except Exception as error:
            raise argparse.ArgumentError(
                None, f"--faults is not a valid fault plan: {error}"
            )


def _cmd_run(arguments: argparse.Namespace) -> int:
    _validate_run(arguments)
    if arguments.list:
        return _cmd_list()
    if arguments.reference is None:
        from repro.experiments.check import DEFAULT_REFERENCE_DIR

        arguments.reference = DEFAULT_REFERENCE_DIR
    profile = "full" if arguments.full else arguments.profile
    sets = tuple(arguments.set or ())
    ctx = RunContext.create(
        profile=profile,
        corpus=arguments.corpus,
        no_corpus=arguments.no_corpus,
        jobs=arguments.jobs,
        faults=arguments.faults,
        sets=sets,
        profile_sections=arguments.profile_sections,
    )
    names = list(arguments.names)
    if sets and "loadgen_contention" not in names:
        # --set targets the loadgen section; compose with any explicit
        # name/tag selection rather than replacing it.
        names.append("loadgen_contention")
    experiments = select(names, arguments.tag or ())
    # A name/tag/--set selection defaults its artifacts to partial
    # locations (EXPERIMENTS.partial.md, results/partial/) so it never
    # clobbers the canonical all-sections report and results trajectory;
    # an explicit --output/--results-dir always wins.
    partial = bool(arguments.names or arguments.tag or sets)
    output = arguments.output or (
        "EXPERIMENTS.partial.md" if partial else "EXPERIMENTS.md"
    )
    results_dir = arguments.results_dir or (
        os.path.join(DEFAULT_RESULTS_DIR, "partial")
        if partial
        else DEFAULT_RESULTS_DIR
    )
    # Telemetry is opt-in (--telemetry / --profile-sections) and implied
    # by paper-scale runs (--full); --no-telemetry always wins.  Default
    # (quick) runs stay telemetry-free so their artifacts — including
    # index.json's null observability stanza — are byte-identical across
    # invocations.
    telemetry_enabled = (
        arguments.telemetry is not None
        or profile == "full"
        or arguments.profile_sections
    ) and not arguments.no_telemetry
    telemetry_dir = None
    if telemetry_enabled:
        from repro import telemetry as telemetry_module

        telemetry_dir = arguments.telemetry or os.path.join(
            results_dir, "telemetry"
        )
        telemetry_module.configure(telemetry_dir, fresh=True)
    started = time.time()
    # Snapshot the corpus heal ledger so this run reports exactly the
    # self-heal events it caused (workers append to the same file).
    heal_cursor = ctx.store.heal_log_size() if ctx.store else 0
    try:
        report = execute_report(experiments, ctx)
    finally:
        # Final flush + close + drop the env switch, even on a failed
        # run, so an in-process caller never inherits a stale sink.
        if telemetry_dir is not None:
            telemetry_module.shutdown()
    results = report.outcomes
    corpus_events = (
        ctx.store.heal_events(since=heal_cursor) if ctx.store else []
    )
    telemetry_paths = None
    if telemetry_dir is not None:
        from repro.telemetry.export import export_run

        telemetry_paths = export_run(telemetry_dir)
    check_report = None
    if arguments.check:
        from repro.experiments.check import check_outcomes

        check_report = check_outcomes(results, arguments.reference)
    write_report(results, output)
    if not arguments.no_results:
        paths = write_results(
            results,
            results_dir,
            profile=ctx.profile,
            incidents=report.incidents,
            corpus_events=corpus_events,
            check=check_report.to_index() if check_report else None,
            timing=report.timing if telemetry_dir is not None else None,
            telemetry=telemetry_dir,
        )
        print(f"results: {len(paths) - 1} section file(s) in {results_dir}/")
    if telemetry_paths is not None:
        print(
            f"telemetry: {', '.join(sorted(os.path.basename(p) for p in telemetry_paths.values()))} "
            f"in {telemetry_dir}/ "
            f"(inspect: python -m repro telemetry summarize {telemetry_dir})"
        )
    if arguments.update_reference:
        from repro.experiments.check import update_reference

        try:
            written = update_reference(results, arguments.reference)
        except ValueError as error:
            print(f"--update-reference: {error}", file=sys.stderr)
            return 1
        print(f"reference: {len(written)} file(s) in {arguments.reference}/")
    if ctx.corpus_root is not None:
        print(f"corpus: {ctx.corpus_root}")
    for event in corpus_events:
        print(
            f"corpus self-heal: {event.get('scenario')}: "
            f"{event.get('reason')}",
            file=sys.stderr,
        )
    print(
        f"wrote {output} ({len(results)} section(s)) "
        f"in {time.time() - started:.0f}s"
    )
    if check_report is not None:
        stream = sys.stdout if check_report.ok else sys.stderr
        for line in check_report.summary():
            print(line, file=stream)
    if report.failures:
        for failure in report.failures:
            print(
                f"FAILED {failure.name} ({failure.kind}, "
                f"{failure.attempts} attempt(s)): {failure.error}",
                file=sys.stderr,
            )
        print(
            f"{len(report.failures)} of {len(results)} section(s) failed "
            f"(see {results_dir + '/index.json' if not arguments.no_results else output})",
            file=sys.stderr,
        )
        return 1
    if check_report is not None and not check_report.ok:
        return 1
    return 0


def job_count(text: str) -> int:
    """argparse type shared by every ``--jobs`` flag: an integer >= 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return jobs


def _register_run(commands) -> None:
    run = commands.add_parser(
        "run",
        help="run registered experiments and write EXPERIMENTS.md + "
        "results/*.json",
    )
    run.add_argument(
        "names", nargs="*", metavar="NAME",
        help="experiment names to run (default: all; see --list)",
    )
    run.add_argument(
        "--tag", action="append", metavar="TAG",
        help="also select every experiment carrying TAG (repeatable)",
    )
    run.add_argument(
        "--set", action="append", metavar="SET",
        help="run the loadgen_contention section over this benchmark "
        "set, scenario or counted alias (repeatable; see python -m "
        "repro loadgen sets)",
    )
    run.add_argument(
        "--profile", choices=sorted(PROFILES), default="quick",
        help="workload scale (default: quick)",
    )
    run.add_argument(
        "--full", action="store_true",
        help="shorthand for --profile full (long traces, 3 seeds)",
    )
    run.add_argument(
        "--jobs", "-j", type=job_count, default=1,
        help="worker processes for the experiment sections (default: 1)",
    )
    run.add_argument(
        "--output", default=None,
        help="report path (default: EXPERIMENTS.md; name/tag selections "
        "default to EXPERIMENTS.partial.md)",
    )
    run.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help=f"per-section JSON output directory (default: "
        f"{DEFAULT_RESULTS_DIR}/; name/tag selections default to "
        f"{DEFAULT_RESULTS_DIR}/partial/)",
    )
    run.add_argument(
        "--no-results", action="store_true",
        help="skip writing the per-section JSON documents",
    )
    run.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus store root for the trace-consuming sections "
        "(default: $REPRO_CORPUS_DIR or ./.repro-corpus)",
    )
    run.add_argument(
        "--no-corpus", action="store_true",
        help="synthesise every workload live instead of using the corpus",
    )
    run.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="JSON fault plan to inject during the run (testing; see "
        "python -m repro faults plan)",
    )
    run.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="DIR",
        help="capture spans + metrics into DIR (default: "
        "<results dir>/telemetry); implied by --full and "
        "--profile-sections.  Deterministic artifacts are unaffected.",
    )
    run.add_argument(
        "--no-telemetry", action="store_true",
        help="disable telemetry even where it is implied (--full, "
        "--profile-sections)",
    )
    run.add_argument(
        "--profile-sections", action="store_true",
        help="cProfile each section into the telemetry sink "
        "(profiles/*.pstats + hotspot records; implies --telemetry)",
    )
    run.add_argument(
        "--check", action="store_true",
        help="gate this run's section data against the committed "
        "reference results; any metric drift exits non-zero and is "
        "summarised in results/index.json",
    )
    run.add_argument(
        "--reference", default=None, metavar="DIR",
        help="reference results directory for --check/--update-reference "
        "(default: results/reference/)",
    )
    run.add_argument(
        "--update-reference", action="store_true",
        help="write this run's section documents into the reference "
        "directory (refused if any section failed)",
    )
    run.add_argument(
        "--list", action="store_true",
        help="list registered experiments (name, tags, needs) and exit",
    )
    run.set_defaults(
        handler=_cmd_run, usage_errors=(UnknownExperimentError,)
    )


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: ``run`` plus every module's branch."""
    from repro import package_version
    from repro.corpus import cli as corpus_cli
    from repro.loadgen import cli as loadgen_cli
    from repro.perf import cli as perf_cli
    from repro.reliability import cli as faults_cli
    from repro.telemetry import cli as telemetry_cli
    from repro.traces import cli as traces_cli

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Califorms reproduction: experiments, perf harness, "
        "trace engine and corpus store behind one CLI.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    # How main() reports a handler's errors: runtime_errors print
    # "error: ..." and exit 1; usage_errors (and argparse.ArgumentError)
    # print the command's usage and exit 2.  Commands override both.
    parser.set_defaults(runtime_errors=(), usage_errors=())
    commands = parser.add_subparsers(dest="command", required=True)
    _register_run(commands)
    for module in (
        perf_cli, traces_cli, corpus_cli, faults_cli, loadgen_cli,
        telemetry_cli,
    ):
        module.register(commands)
    for command in commands.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except arguments.runtime_errors as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (argparse.ArgumentError, *arguments.usage_errors) as error:
        # str(KeyError) is the repr of its argument — unwrap so the
        # message is not printed inside stray quotes.
        message = (
            error.args[0]
            if isinstance(error, KeyError) and error.args
            else error
        )
        arguments.command_parser.error(str(message))
        return 2  # unreachable; ArgumentParser.error exits


if __name__ == "__main__":
    sys.exit(main())
