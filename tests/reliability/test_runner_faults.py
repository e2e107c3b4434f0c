"""Fault-tolerant experiment runs: isolation, retry, structured failure."""

import json
import os

import pytest

from repro import cli
from repro.experiments import runner
from repro.experiments.context import RunContext
from repro.experiments.registry import select
from repro.experiments.results import (
    FAILURE_SCHEMA,
    SectionFailure,
    SectionResult,
)
from repro.experiments.runner import (
    execute_report,
    write_report,
    write_results,
)
from repro.reliability.faults import FaultPlan, FaultSpec

#: Cheap, corpus-free sections the fault cases run against.
SECTIONS = ["table1", "table2"]


def _ctx(plan=None, jobs=1):
    return RunContext.create(
        profile="quick", no_corpus=True, jobs=jobs, faults=plan
    )


def _fail_plan(target="table2", stamp_dir=None):
    return FaultPlan(
        (FaultSpec(kind="fail-section", target=target),),
        stamp_dir=stamp_dir,
    )


class TestSectionIsolation:
    def test_failing_section_becomes_structured_failure(self):
        report = execute_report(select(SECTIONS), _ctx(_fail_plan()))
        ok, failed = report.outcomes
        assert isinstance(ok, SectionResult) and ok.name == "table1"
        assert isinstance(failed, SectionFailure) and failed.name == "table2"
        assert failed.kind == "exception"
        assert failed.attempts == 1  # deterministic: no retry
        assert "injected failure" in failed.error
        assert failed.traceback  # evidence travels with the record
        assert not report.ok

    def test_report_order_is_preserved_around_failures(self):
        report = execute_report(
            select(SECTIONS), _ctx(_fail_plan(target="table1"))
        )
        assert [outcome.name for outcome in report.outcomes] == SECTIONS

    def test_deterministic_failure_is_not_retried(self):
        report = execute_report(select(SECTIONS), _ctx(_fail_plan()))
        assert len(report.incidents) == 1
        incident = report.incidents[0]
        assert incident["section"] == "table2"
        assert incident["kind"] == "exception"
        assert incident["retried"] is False


class TestBoundedRetry:
    def test_inline_worker_crash_is_retried_once(self, tmp_path):
        plan = FaultPlan(
            (FaultSpec(kind="kill-section", target="table1", count=1),),
            stamp_dir=str(tmp_path / "stamps"),
        )
        report = execute_report(select(SECTIONS), _ctx(plan))
        assert report.ok  # the retry recovered the section
        crash = [i for i in report.incidents if i["section"] == "table1"]
        assert len(crash) == 1
        assert crash[0]["kind"] == "infrastructure"
        assert crash[0]["retried"] is True

    def test_persistent_infrastructure_failure_exhausts_attempts(self):
        # Unbounded plan (no stamp dir): the crash fires on the retry
        # too, so the section fails with both attempts on the ledger.
        plan = FaultPlan(
            (FaultSpec(kind="kill-section", target="table1"),)
        )
        report = execute_report(select(SECTIONS), _ctx(plan))
        (failure,) = report.failures
        assert failure.name == "table1"
        assert failure.attempts == 2
        assert len(report.incidents) == 2

    def test_killed_pool_worker_recovers(self, tmp_path):
        plan = FaultPlan(
            (FaultSpec(kind="kill-section", target="table1", count=1),),
            stamp_dir=str(tmp_path / "stamps"),
        )
        report = execute_report(select(SECTIONS), _ctx(plan, jobs=2))
        assert report.ok
        crash = [
            i for i in report.incidents if i["kind"] == "worker-crash"
        ]
        assert crash and all(i["retried"] for i in crash)

    def test_retry_round_pool_is_sized_to_pending_sections(
        self, record_pool_sizes
    ):
        # The fork start method spawns every worker up front: a round
        # with two pending sections must not fork jobs=4 workers.
        sizes = record_pool_sizes(runner)
        results, errors = runner._attempt_round(
            select(SECTIONS), _ctx(jobs=4)
        )
        assert sizes == [2]
        assert sorted(results) == SECTIONS and not errors


class TestArtifacts:
    def test_failed_section_renders_in_report(self, tmp_path):
        report = execute_report(select(SECTIONS), _ctx(_fail_plan()))
        path = str(tmp_path / "EXPERIMENTS.md")
        write_report(report.outcomes, path)
        text = open(path).read()
        assert "SECTION FAILED (exception, 1 attempt(s))" in text
        assert "injected failure" in text

    def test_results_record_failures_and_incidents(self, tmp_path):
        report = execute_report(select(SECTIONS), _ctx(_fail_plan()))
        write_results(
            report.outcomes,
            str(tmp_path),
            profile="quick",
            incidents=report.incidents,
        )
        index = json.load(open(tmp_path / "index.json"))
        statuses = {s["name"]: s["status"] for s in index["sections"]}
        assert statuses == {"table1": "ok", "table2": "failed"}
        (failure,) = index["failures"]
        assert failure["name"] == "table2"
        assert failure["kind"] == "exception"
        assert index["incidents"][0]["section"] == "table2"
        document = json.load(open(tmp_path / "table2.json"))
        assert document["schema"] == FAILURE_SCHEMA

    def test_clean_run_writes_empty_fault_fields(self, tmp_path):
        report = execute_report(select(SECTIONS), _ctx())
        write_results(
            report.outcomes,
            str(tmp_path),
            profile="quick",
            incidents=report.incidents,
        )
        index = json.load(open(tmp_path / "index.json"))
        assert index["failures"] == []
        assert index["incidents"] == []
        assert index["corpus_events"] == []


class TestCli:
    def _run(self, tmp_path, *extra):
        return cli.main(
            [
                "run",
                *SECTIONS,
                "--no-corpus",
                "--output",
                str(tmp_path / "E.md"),
                "--results-dir",
                str(tmp_path / "results"),
                *extra,
            ]
        )

    def test_faulted_run_completes_with_nonzero_exit(
        self, tmp_path, capsys
    ):
        code = self._run(
            tmp_path, "--faults", _fail_plan().to_json()
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED table2 (exception, 1 attempt(s))" in captured.err
        assert "1 of 2 section(s) failed" in captured.err
        index = json.load(open(tmp_path / "results" / "index.json"))
        assert index["failures"][0]["name"] == "table2"
        assert "SECTION FAILED" in open(tmp_path / "E.md").read()

    def test_recovered_fault_exits_zero_but_keeps_the_incident(
        self, tmp_path, capsys
    ):
        plan = FaultPlan(
            (FaultSpec(kind="kill-section", target="table1", count=1),),
            stamp_dir=str(tmp_path / "stamps"),
        )
        assert self._run(tmp_path, "--faults", plan.to_json()) == 0
        capsys.readouterr()
        index = json.load(open(tmp_path / "results" / "index.json"))
        assert index["failures"] == []
        assert index["incidents"][0]["retried"] is True

    def test_second_run_matches_an_unfaulted_run_byte_for_byte(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean"
        faulted = tmp_path / "faulted"
        clean.mkdir()
        faulted.mkdir()
        assert self._run(clean) == 0
        assert self._run(
            faulted, "--faults", _fail_plan().to_json()
        ) == 1
        assert self._run(faulted) == 0  # the fault was one run's event
        capsys.readouterr()
        assert (
            (clean / "E.md").read_bytes() == (faulted / "E.md").read_bytes()
        )
        for name in ("table1.json", "table2.json", "index.json"):
            assert (
                (clean / "results" / name).read_bytes()
                == (faulted / "results" / name).read_bytes()
            )

    def test_rejects_malformed_plan(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self._run(tmp_path, "--faults", "{broken")
        assert "not a valid fault plan" in capsys.readouterr().err
