"""End-to-end instrumentation: real decode/replay/corpus work under an
active telemetry sink produces the documented counters and spans."""

import os

from repro.corpus.store import CorpusStore
from repro.telemetry import runtime
from repro.telemetry.export import metrics_document, read_span_log
from repro.traces.recorder import live_run, record_spec
from repro.traces.registry import CORPUS
from repro.traces.replayer import replay_timing
from repro.workloads import generator

INSTRUCTIONS = 2000


def exported(handle):
    handle.flush()
    return metrics_document(
        read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    )


def test_replay_emits_decode_kernel_counters_and_spans(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "server-churn.trace")
    record_spec(spec, trace)

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    document = exported(handle)

    counters = document["counters"]
    assert counters["decode_frames_total"] > 0
    assert counters["decode_records_total"] > 0
    assert counters['kernel_accesses_total{level="l1"}'] > 0
    assert counters['kernel_rounds_total{level="l1"}'] > 0
    span_row = document["spans"]["replay/timing"]
    assert span_row["count"] == 1


def test_replay_span_carries_touches(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "t.trace")
    record_spec(spec, trace)

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    handle.flush()
    log = read_span_log(
        os.path.join(handle.directory, runtime.SPAN_LOG_NAME)
    )
    (record,) = [r for r in log.spans if r["name"] == "replay/timing"]
    assert record["attrs"]["touches"] > 0


def test_live_runs_emit_workload_spans_and_kernel_counters(tmp_path):
    handle = runtime.configure(str(tmp_path / "tel"))
    results = {
        driver: live_run(CORPUS[name].scaled(INSTRUCTIONS))
        for driver, name in (
            ("generator", "server-churn"), ("attacks", "attack-replay")
        )
    }
    document = exported(handle)
    log = read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    spans = [r for r in log.spans if r["name"] == "workload/live"]
    assert {r["attrs"]["driver"]: r["attrs"]["touches"] for r in spans} == {
        driver: result.events.l1_accesses
        for driver, result in results.items()
    }
    assert document["counters"]['kernel_accesses_total{level="l1"}'] == sum(
        result.events.l1_accesses for result in results.values()
    )
    assert document["counters"]['kernel_rounds_total{level="l3"}'] > 0


def test_disabled_live_run_costs_one_lookup(monkeypatch):
    lookups = []
    lookup = generator.telemetry_active
    monkeypatch.setattr(
        generator, "telemetry_active", lambda: lookups.append(1) or lookup()
    )
    live_run(CORPUS["server-churn"].scaled(INSTRUCTIONS))
    assert lookups == [1]


def test_corpus_resolutions_count_recorded_then_hit(tmp_path):
    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    store.ensure(spec)  # cache miss: records
    store.ensure(spec)  # cache hit
    document = exported(handle)

    counters = document["counters"]
    assert counters['corpus_resolutions_total{outcome="recorded"}'] == 1
    assert counters['corpus_resolutions_total{outcome="hit"}'] == 1
    record_span = document["spans"]["corpus/record"]
    assert record_span["count"] == 1


def test_corpus_verify_counts_outcomes(tmp_path):
    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    resolved = store.ensure(CORPUS["server-churn"].scaled(INSTRUCTIONS))
    assert store.verify() == []
    document = exported(handle)
    counters = document["counters"]
    assert counters['corpus_verifications_total{outcome="ok"}'] == 1
    assert counters["corpus_verify_bytes_total"] == resolved.entry.raw_bytes
    log = read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    (record,) = [r for r in log.spans if r["name"] == "corpus/verify"]
    assert record["attrs"]["bytes"] == resolved.entry.raw_bytes


def test_disabled_run_writes_nothing(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "t.trace")
    record_spec(spec, trace)
    assert runtime.active() is None
    replay_timing(trace)  # must not create any sink
    assert not os.path.exists(str(tmp_path / "tel"))
