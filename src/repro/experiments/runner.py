"""Generic experiment executor: selection → parallel map → assemble.

The runner knows nothing about individual figures or tables any more —
it resolves a selection against :mod:`repro.experiments.registry`, fans
the chosen experiments out over worker processes, and assembles the two
output artifacts:

* ``EXPERIMENTS.md`` — the rendered paper-vs-measured report, and
* ``results/<name>.json`` — one structured, machine-readable
  :class:`~repro.experiments.results.SectionResult` document per
  section (the regression-gateable trajectory).

The canonical entry point is ``python -m repro run`` (see
:mod:`repro.cli`).  ``python -m repro.experiments.runner`` survives as a
deprecated shim with its historical flags::

    python -m repro.experiments.runner [--full] [--jobs N]
                                       [--output EXPERIMENTS.md]
                                       [--corpus DIR | --no-corpus]

Trace-consuming sections (Figures 4/10/11, the trace cross-checks and
the multi-core study) resolve their workloads through the
content-addressed corpus store carried by the
:class:`~repro.experiments.context.RunContext`: the first invocation
records, every later invocation replays pure corpus hits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
import time
import traceback as traceback_module

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.corpus.manifest import ManifestLockTimeout
from repro.experiments.context import RunContext
from repro.experiments.registry import Experiment, select
from repro.experiments.results import (
    SectionFailure,
    SectionOutcome,
    SectionResult,
)
from repro.reliability.faults import trip_section_fault
from repro.telemetry.profiler import profiled_section
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import flush as telemetry_flush
from repro.telemetry.runtime import span as telemetry_span

#: Schema tag of ``results/index.json`` (see docs/API.md).
INDEX_SCHEMA = "repro-run-index/v1"

#: Default directory for the per-section JSON results.
DEFAULT_RESULTS_DIR = "results"

#: Total tries per section: one run plus one bounded retry, granted
#: only to infrastructure-class failures (a worker crash, a lock
#: timeout, an I/O error).  A section whose own code raises is
#: deterministic — retrying it would just fail again.
MAX_ATTEMPTS = 2

#: Failure classes that earn the retry.  ``BrokenProcessPool`` is the
#: killed/OOMed worker; ``ManifestLockTimeout`` and ``OSError`` are the
#: environment misbehaving underneath a correct section.
INFRASTRUCTURE_ERRORS = (OSError, ManifestLockTimeout, BrokenProcessPool)


def _timed_run(name: str, run, ctx: RunContext) -> tuple[SectionResult, float]:
    """Run one section under its telemetry span; returns (result, seconds).

    The wall-clock measurement always happens (it feeds the index's
    ``timing`` stanza when telemetry is on); the span, the optional
    cProfile capture and the flush are no-ops without an active sink.
    The flush matters in pool workers, which exit without ``atexit``.
    """
    started = time.perf_counter()
    with telemetry_span(f"section/{name}", profile=ctx.profile):
        with profiled_section(name, enabled=ctx.profile_sections):
            result = run()
    seconds = time.perf_counter() - started
    telemetry_flush()
    return result, seconds


def _run_by_name(task: tuple[str, RunContext]) -> tuple[SectionResult, float]:
    """Process-pool entry point: run one registered experiment by name."""
    name, ctx = task
    from repro.experiments.registry import get

    trip_section_fault(name, ctx.faults)
    return _timed_run(name, lambda: get(name).run(ctx), ctx)


@dataclass
class RunReport:
    """Everything one :func:`execute_report` invocation observed.

    ``outcomes`` holds one entry per selected experiment in report
    order — a :class:`SectionResult` or, for sections that exhausted
    their attempts, a :class:`SectionFailure`.  ``incidents`` is the
    attempt ledger: every failed attempt, including the ones a retry
    later recovered (so a run that *looks* clean but needed a retry is
    still diagnosable from ``results/index.json``).
    """

    outcomes: list[SectionOutcome] = field(default_factory=list)
    incidents: list[dict] = field(default_factory=list)
    #: Per-section wall-clock seconds of the successful attempt (absent
    #: for sections that never completed).  Observability only — the
    #: deterministic artifacts never include these numbers.
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> list[SectionFailure]:
        return [o for o in self.outcomes if isinstance(o, SectionFailure)]

    @property
    def ok(self) -> bool:
        return not self.failures


def _classify(error: BaseException) -> tuple[str, bool]:
    """(failure kind, earns-a-retry) for one caught section error."""
    if isinstance(error, BrokenProcessPool):
        return "worker-crash", True
    if isinstance(error, INFRASTRUCTURE_ERRORS):
        return "infrastructure", True
    return "exception", False


def _format_error(error: BaseException) -> tuple[str, str]:
    """(one-line message, full traceback) for a section failure record."""
    message = f"{type(error).__name__}: {error}"
    trace = "".join(
        traceback_module.format_exception(
            type(error), error, error.__traceback__
        )
    )
    return message, trace


def _attempt_round(
    pending: list[Experiment], ctx: RunContext
) -> tuple[dict[str, SectionResult], dict[str, BaseException]]:
    """Try every pending section once; returns (results, errors) by name,
    where each result is a ``(SectionResult, wall seconds)`` pair.

    With ``jobs > 1`` the sections fan out over a fresh process pool —
    fresh so that a pool broken by a crashed worker in an earlier round
    cannot poison this one.  A broken pool surfaces as a
    ``BrokenProcessPool`` on every section that did not complete; the
    caller's retry loop re-runs those, so one killed worker costs one
    bounded re-execution, not the run.
    """
    results: dict[str, tuple[SectionResult, float]] = {}
    errors: dict[str, BaseException] = {}
    if ctx.jobs > 1 and len(pending) > 1:
        # The fork start method spawns every worker up front: a retry
        # round with few pending sections must not fork idle workers.
        workers = min(ctx.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                experiment.name: pool.submit(
                    _run_by_name, (experiment.name, ctx)
                )
                for experiment in pending
            }
            for name, future in futures.items():
                try:
                    results[name] = future.result()
                except Exception as error:
                    errors[name] = error
        return results, errors
    for experiment in pending:
        try:
            trip_section_fault(experiment.name, ctx.faults)
            results[experiment.name] = _timed_run(
                experiment.name, lambda: experiment.run(ctx), ctx
            )
        except Exception as error:
            errors[experiment.name] = error
    return results, errors


def execute_report(
    experiments: list[Experiment], ctx: RunContext
) -> RunReport:
    """Run the selected experiments with per-section fault isolation.

    A section that raises — or whose worker process dies — becomes a
    structured :class:`SectionFailure` instead of aborting the run;
    infrastructure-class failures get one bounded retry first.  Report
    order is preserved regardless of which sections failed or retried.
    """
    by_name = {experiment.name: experiment for experiment in experiments}
    attempts = {name: 0 for name in by_name}
    outcomes: dict[str, SectionOutcome] = {}
    incidents: list[dict] = []
    timing: dict[str, float] = {}
    tel = telemetry_active()
    pending = list(experiments)
    while pending:
        results, errors = _attempt_round(pending, ctx)
        retry: list[Experiment] = []
        for experiment in pending:
            name = experiment.name
            attempts[name] += 1
            if name in results:
                outcomes[name], timing[name] = results[name]
                continue
            error = errors[name]
            kind, retryable = _classify(error)
            message, trace = _format_error(error)
            will_retry = retryable and attempts[name] < MAX_ATTEMPTS
            incidents.append(
                {
                    "section": name,
                    "kind": kind,
                    "error": message,
                    "attempt": attempts[name],
                    "retried": will_retry,
                }
            )
            if tel is not None:
                tel.inc("runner_section_failures_total", kind=kind)
                if will_retry:
                    tel.inc("runner_retries_total")
            if will_retry:
                retry.append(experiment)
                continue
            outcomes[name] = SectionFailure(
                name=name,
                title=experiment.title,
                error=message,
                kind=kind,
                attempts=attempts[name],
                traceback=trace,
                tags=tuple(sorted(experiment.tags)),
            )
        pending = retry
    if tel is not None:
        tel.inc("runner_sections_total", len(experiments))
        tel.flush()
    return RunReport(
        outcomes=[outcomes[experiment.name] for experiment in experiments],
        incidents=incidents,
        timing=timing,
    )


def execute(
    experiments: list[Experiment], ctx: RunContext
) -> list[SectionOutcome]:
    """Run the selected experiments, preserving report order.

    ``ctx.jobs > 1`` fans the independent experiments out over worker
    processes.  The corpus store's manifest updates are lock-serialised,
    so parallel sections building overlapping corpora are safe.  Failed
    sections come back as :class:`SectionFailure` values (see
    :func:`execute_report` for the incident ledger).
    """
    return execute_report(experiments, ctx).outcomes


_PREAMBLE = """# EXPERIMENTS — paper vs. measured

Regenerated by ``python -m repro.experiments.runner``.  Absolute numbers
come from a functional Python simulator with an analytical timing model
(see DESIGN.md substitutions); the reproduction target is the *shape* of
each result — orderings, rough factors and crossovers.  Known divergences
are listed at the end.

"""


def _pct(fraction: float, digits: int = 2) -> str:
    return f"{fraction * 100:.{digits}f} %"


def _fig10_divergence(data: dict) -> str:
    paper = data["paper"]
    ranked = sorted(data["suite"]["per_benchmark"], key=lambda r: r["mean"])
    why = (
        ": the analytical in-order stall model pays relatively more "
        "L2/L3 cycles than the validated OoO ZSim core"
    )
    return (
        f"**Figure 10** averages {_pct(data['average'])} here vs "
        f"{paper['average']} % in the paper"
        f"{why if data['average'] * 100 > paper['average'] else ''}.  The "
        f"lowest slowdown is {ranked[0]['benchmark']} (paper: "
        f"{paper['lowest_benchmark']}) and the highest "
        f"{ranked[-1]['benchmark']} (paper: {paper['highest_benchmark']})."
    )


def _fig04_divergence(data: dict) -> str:
    ours = {int(size): value for size, value in data["averages"].items()}
    paper = {int(size): value for size, value in data["paper"].items()}
    sizes = sorted(ours)
    first, last = sizes[0], sizes[-1]
    why = (
        ": in our layout engine one inserted byte frequently costs a full "
        "alignment slot (up to 8 B) for the following field, so small "
        "paddings are relatively more expensive"
    )
    dips = " and ".join(
        f"{size} B ({_pct(ours[size], 3)} < {_pct(ours[before], 3)})"
        for before, size in zip(sizes, sizes[1:])
        if ours[size] < ours[before]
    )
    return (
        f"**Figure 4** starts at {_pct(ours[first])} at {first} B vs the "
        f"paper's {paper[first]} %"
        f"{why if ours[first] * 100 > paper[first] else ''}.  The curve is "
        + (f"not monotonic: it dips at {dips}" if dips else "monotonic")
        + f", and ends at {_pct(ours[last])} at {last} B vs the paper's "
        f"{paper[last]} %."
    )


def _fig11_divergence(data: dict) -> str:
    name = "opportunistic +CFORM"
    ranked = sorted(
        data["configurations"][name]["per_benchmark"],
        key=lambda row: -row["mean"],
    )
    return (
        f"**Figure 11** opportunistic+CFORM averages "
        f"{_pct(data['averages'][name])} vs {data['paper'][name]} % in the "
        f"paper.  Its largest per-benchmark slowdowns are "
        f"{', '.join(row['benchmark'] for row in ranked[:3])}; the paper's "
        f"outliers are gobmk, perlbench, h264ref."
    )


def _tables_divergence(data: dict) -> str:
    return (
        "**Table 2/7** delay/area/power are structural estimates calibrated "
        "to the paper's baseline row only; they land within a few percent "
        "of the paper's overhead percentages, and all orderings (spill ≫ "
        "fill, 4B slowest variant, 8B largest metadata) are structural, not "
        "fitted."
    )


def divergences(results) -> str:
    """The report's "Known divergences" section, derived from the data:
    one bullet per comparison whose section succeeded, quoting that
    section's ``data``; empty when none did."""
    data = {r.name: r.data for r in results if isinstance(r, SectionResult)}
    bullets = [
        textwrap.fill(
            render(data[name]), 72, initial_indent="* ", subsequent_indent="  "
        )
        for name, render in (
            ("fig10", _fig10_divergence),
            ("fig04", _fig04_divergence),
            ("fig11", _fig11_divergence),
            ("table2", _tables_divergence),
        )
        if name in data
    ]
    if not bullets:
        return ""
    heading = "\n## Known divergences from the paper\n\n"
    return heading + "\n".join(bullets) + "\n"


def write_markdown(
    sections: dict[str, str], path: str, divergences_text: str = ""
) -> None:
    """Assemble {section title: rendered body} into the report file."""
    parts = [_PREAMBLE]
    for title, body in sections.items():
        parts.append(f"## {title}\n\n```text\n{body}\n```\n")
    parts.append(divergences_text)
    with open(path, "w") as handle:
        handle.write("\n".join(parts))


def write_report(results: list[SectionResult], path: str) -> None:
    """Write the rendered EXPERIMENTS.md for a list of section results."""
    write_markdown(
        {result.title: result.markdown for result in results},
        path,
        divergences(results),
    )


def write_results(
    results: list[SectionOutcome],
    directory: str = DEFAULT_RESULTS_DIR,
    profile: str = "quick",
    incidents: list[dict] | None = None,
    corpus_events: list[dict] | None = None,
    check: dict | None = None,
    timing: dict[str, float] | None = None,
    telemetry: str | None = None,
) -> list[str]:
    """Persist one ``<name>.json`` per section plus an ``index.json``.

    The documents are deterministic (no timestamps), so two identical
    runs produce byte-identical files — the property the ``--check``
    regression gate (:mod:`repro.experiments.check`) relies on.  Failed
    sections write a failure document (``repro-section-failure/v1``);
    the index records every section's status plus the run's attempt
    ledger (``incidents``) and any corpus self-heal events
    (``corpus_events``), so one file answers "did this run see any
    fault?" — all three are empty lists on a clean run.  When the run
    was gated, ``check`` embeds the gate's verdict and every drifted
    metric under the index's ``"check"`` key.

    ``timing`` (per-section wall seconds) and ``telemetry`` (the sink
    directory) populate the index's observability stanza; both are
    ``null`` unless the run opted into telemetry, which keeps the
    default index byte-identical across runs — timing keys are also on
    the check gate's ignore list, so a gated telemetry run never fails
    on wall-clock drift.
    """
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for result in results:
        path = os.path.join(directory, f"{result.name}.json")
        with open(path, "w") as handle:
            handle.write(result.to_json())
            handle.write("\n")
        paths.append(path)
    index = {
        "schema": INDEX_SCHEMA,
        "profile": profile,
        "sections": [
            {
                "name": result.name,
                "title": result.title,
                "tags": list(result.tags),
                "status": (
                    "failed" if isinstance(result, SectionFailure) else "ok"
                ),
            }
            for result in results
        ],
        "failures": [
            {
                "name": result.name,
                "kind": result.kind,
                "error": result.error,
                "attempts": result.attempts,
            }
            for result in results
            if isinstance(result, SectionFailure)
        ],
        "incidents": list(incidents or ()),
        "corpus_events": list(corpus_events or ()),
        # Observability stanza: null unless the run opted into telemetry
        # (default runs must stay byte-identical across invocations).
        "timing": (
            {name: round(seconds, 6) for name, seconds in sorted(timing.items())}
            if timing
            else None
        ),
        "telemetry": telemetry,
    }
    if check is not None:
        index["check"] = check
    index_path = os.path.join(directory, "index.json")
    with open(index_path, "w") as handle:
        json.dump(index, handle, indent=2)
        handle.write("\n")
    paths.append(index_path)
    return paths


def run_all(
    full: bool = False, jobs: int = 1, corpus_root: str | None = None
) -> dict[str, str]:
    """Legacy API: run everything, return {section title: rendered body}.

    Kept for callers of the pre-registry runner; new code should use
    :func:`execute` with an explicit selection and
    :class:`~repro.experiments.context.RunContext`.  ``corpus_root=None``
    keeps the trace-consuming sections fully live/ephemeral, matching
    the historical behaviour.
    """
    ctx = RunContext(
        profile="full" if full else "quick",
        instructions=200_000 if full else 80_000,
        seeds=(0, 1, 2) if full else (0,),
        corpus_root=corpus_root,
        jobs=jobs,
    )
    results = execute(select(), ctx)
    return {result.title: result.markdown for result in results}


def main(argv: list[str] | None = None) -> int:
    """Deprecated entry point; ``python -m repro run`` is the successor."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="long traces, 3 seeds")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the experiment sections (default: 1)",
    )
    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus store root for the trace-consuming sections "
        "(default: $REPRO_CORPUS_DIR or ./.repro-corpus)",
    )
    parser.add_argument(
        "--no-corpus", action="store_true",
        help="synthesise every workload live instead of using the corpus",
    )
    arguments = parser.parse_args(argv)
    print(
        "note: python -m repro.experiments.runner is deprecated; "
        "use `python -m repro run`",
        file=sys.stderr,
    )
    ctx = RunContext.create(
        profile="full" if arguments.full else "quick",
        corpus=arguments.corpus,
        no_corpus=arguments.no_corpus,
        # The historical runner ran sequentially for --jobs <= 1; the
        # shim preserves that instead of rejecting 0.
        jobs=max(1, arguments.jobs),
    )
    started = time.time()
    report = execute_report(select(), ctx)
    write_report(report.outcomes, arguments.output)
    if ctx.corpus_root is not None:
        print(f"corpus: {ctx.corpus_root}")
    print(f"wrote {arguments.output} in {time.time() - started:.0f}s")
    for failure in report.failures:
        print(
            f"FAILED {failure.name} ({failure.kind}, "
            f"{failure.attempts} attempt(s)): {failure.error}",
            file=sys.stderr,
        )
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
