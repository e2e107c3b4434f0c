"""End-to-end instrumentation: real decode/replay/corpus work under an
active telemetry sink produces the documented counters and spans."""

import os

from repro.corpus.store import CorpusStore
from repro.memory.hierarchy import WESTMERE
from repro.telemetry import runtime
from repro.telemetry.export import metrics_document, read_span_log
from repro.traces.compress import CompressedTraceWriter, frame_stats
from repro.traces.format import TraceReader
from repro.traces.recorder import live_run, record_spec
from repro.traces.registry import CORPUS
from repro.traces.replayer import replay_timing
from repro.workloads import generator
from repro.workloads.generator import EV_LOAD

INSTRUCTIONS = 2000


def slow_path_records():
    """Loads whose reuse windows need the kernel's multi-chunk scan at
    L1 and at L3 of the Table 3 ladder.

    Lines ``t * 2048 + s`` share L3 set ``s`` (and hence one L2 and one
    L1 set).  Line 0 of set 5, twelve lines cycled six times, line 0
    again: the cycle thrashes the 8-way L1 and L2, so all of it reaches
    the 16-way L3, where line 0's reuse window is 72 entries long but
    holds only 12 distinct lines.  Then the same shape with a 3-line
    cycle on set 9, short enough to hit in L1 itself.
    """
    def line(tag, set_index):
        return (EV_LOAD, (tag * 2048 + set_index) * 64, 8)

    records = [line(0, 5)]
    records += [line(tag, 5) for _ in range(6) for tag in range(1, 13)]
    records += [line(0, 5), line(0, 9)]
    records += [line(tag, 9) for _ in range(20) for tag in range(1, 4)]
    records.append(line(0, 9))
    return records


def assert_slow_path_counted(counters, level):
    """The scan counters of ``level`` show multi-chunk windows."""
    rounds = counters[f'kernel_rounds_total{{level="{level}"}}']
    tail = counters[f'kernel_tail_accesses_total{{level="{level}"}}']
    accesses = counters[f'kernel_accesses_total{{level="{level}"}}']
    assert 0 < tail <= accesses
    assert rounds > 1  # a first chunk, then more for the tail


def exported(handle):
    handle.flush()
    return metrics_document(
        read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    )


def test_replay_emits_decode_kernel_counters_and_spans(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    recorded = str(tmp_path / "server-churn.trace")
    record_spec(spec, recorded)
    # The recorded run with the slow-path loads appended (the footer no
    # longer matches, so the replay skips verification).
    trace = str(tmp_path / "slow-path.trace")
    with TraceReader(recorded) as reader:
        batches = list(reader.column_batches())
        with CompressedTraceWriter(trace, reader.header) as writer:
            for batch in batches:
                writer.extend(batch.kind, batch.address, batch.arg)
            for record in slow_path_records():
                writer.append(*record)
            writer.set_footer(reader.read_footer())

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace, verify=False)
    document = exported(handle)

    counters = document["counters"]
    assert counters["decode_frames_total"] > 0
    assert counters["decode_records_total"] > 0
    assert counters['kernel_accesses_total{level="l1"}'] > 0
    assert_slow_path_counted(counters, "l1")
    span_row = document["spans"]["replay/timing"]
    assert span_row["count"] == 1


def test_recording_counts_encoded_frames_and_records(tmp_path):
    trace = str(tmp_path / "server-churn.trace")
    handle = runtime.configure(str(tmp_path / "tel"))
    record_spec(CORPUS["server-churn"].scaled(INSTRUCTIONS), trace)
    counters = exported(handle)["counters"]
    frames = frame_stats(trace)
    assert counters["encode_frames_total"] == len(frames) > 1
    assert counters["encode_records_total"] == sum(
        count for count, _ in frames
    )


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
    touches = {
        driver: live_run(CORPUS[name].scaled(INSTRUCTIONS)).events.l1_accesses
        for driver, name in (
            ("generator", "server-churn"), ("attacks", "attack-replay")
        )
    }
    # A live stream fed the slow-path loads, as a driver would.
    with generator.live_stream(WESTMERE, None, "slow-path") as stream:
        for record in slow_path_records():
            stream.append(*record)
    touches["slow-path"] = stream.events.l1_accesses
    document = exported(handle)
    log = read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    spans = [r for r in log.spans if r["name"] == "workload/live"]
    assert {r["attrs"]["driver"]: r["attrs"]["touches"] for r in spans} == (
        touches
    )
    counters = document["counters"]
    assert counters['kernel_accesses_total{level="l1"}'] == sum(
        touches.values()
    )
    assert_slow_path_counted(counters, "l3")


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
