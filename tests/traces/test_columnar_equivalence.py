"""Columnar replayer vs per-record oracle: whole-registry differential suite.

The acceptance gate for the replayer: over every registry scenario in
both container versions — plus a loadgen-composed trace — its
statistics are **bit-identical** to the per-record oracle's
(``oracle.py``: the per-access reference classes fed one record at a
time), for timing replay (footer stats, and the live run), hierarchy
replay (counters, violations, cycles), sharded merges, and multi-core
per-core attribution.  The corpus's columnar canonical digest is held
to the same standard against the per-record serialisation, on the
registry and on random record streams.  The same differential-testing
pattern as ``tests/core/test_fastpath_equivalence``.
"""

import zlib
from io import BytesIO

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.store import canonical_digest
from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.traces import CORPUS, compress, record_spec, replay_timing
from repro.traces.format import EV_EPOCH, TraceReader, trace_writer
from repro.traces.replayer import (
    replay_hierarchy,
    replay_multicore,
    replay_shards,
    shard_trace,
)

INSTRUCTIONS = 5_000

ALL_SCENARIOS = sorted(CORPUS)

CONTAINERS = ("v1", "v2")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Every registry scenario in both containers, plus a loadgen mix."""
    workdir = tmp_path_factory.mktemp("columnar")
    traces = {}
    for name in ALL_SCENARIOS:
        spec = CORPUS[name].scaled(INSTRUCTIONS)
        for container in CONTAINERS:
            path = str(workdir / f"{name}.{container}.trace")
            live = record_spec(spec, path, compress=container == "v2")
            traces[name, container] = (path, live)
    load = LoadScenario(
        name="columnar-mix",
        description="loadgen stream for the columnar differential suite",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
        mix=(
            MixEntry(profile="server-churn", weight=2.0),
            MixEntry(profile="scan-heavy", weight=1.0),
        ),
        tenants=3,
        duration_s=0.2,
        warmup_s=0.05,
        seed=23,
    )
    for container in CONTAINERS:
        path = str(workdir / f"loadgen.{container}.trace")
        live = record_spec(
            compose_spec(load), path, compress=container == "v2"
        )
        traces["loadgen", container] = (path, live)
    return traces


ALL_TRACES = [
    (name, container)
    for name in ALL_SCENARIOS + ["loadgen"]
    for container in CONTAINERS
]


# -- decode layer -------------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_column_batches_reproduce_the_record_stream(name, container, recorded):
    path, _ = recorded[name, container]
    with TraceReader(path) as tuples, TraceReader(path) as columns:
        stream = tuples.records()
        for batch in columns.column_batches():
            for row in zip(
                batch.kind.tolist(), batch.address.tolist(), batch.arg.tolist()
            ):
                assert row == next(stream)
        assert next(stream, None) is None
        assert columns.footer == tuples.footer


def test_column_batches_rejects_mixed_iteration(recorded):
    path, _ = recorded["server-churn", "v1"]
    with TraceReader(path) as reader:
        next(iter(reader.records()))
        with pytest.raises(RuntimeError, match="records\\(\\)"):
            reader.column_batches()


# -- single-trace replay ------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_timing_replay_is_engine_agnostic(name, container, recorded):
    path, live = recorded[name, container]
    replayed = replay_timing(path)
    expected = oracle.timing_stats(path)
    assert replayed == live
    assert replayed.events == expected.events
    assert replayed.cform_instructions == expected.cform_lines
    assert replayed.alloc_events == expected.alloc_events


@pytest.mark.parametrize(
    "name,container",
    [
        (name, container)
        for name, container in ALL_TRACES
        # The data-carrying hierarchy models one 8 GB address space;
        # multi-tenant loadgen traces stride tenants beyond it, so
        # hierarchy mode covers the registry scenarios only.
        if name != "loadgen"
    ],
)
def test_hierarchy_replay_is_engine_agnostic(name, container, recorded):
    path, _ = recorded[name, container]
    # Full ShardStats equality: counters, violations, AMAT cycles.
    assert replay_hierarchy(path) == oracle.hierarchy_stats(path)


# -- sharded merge ------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("mode", ["timing", "hierarchy"])
def test_sharded_merge_is_engine_agnostic(container, mode, recorded, tmp_path):
    path, _ = recorded["server-churn", container]
    shards = shard_trace(path, str(tmp_path / "shards"), shards=3)
    assert replay_shards(shards, jobs=2, mode=mode) == oracle.replay_shards(
        shards, mode=mode
    )


# -- multi-core ---------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
def test_multicore_attribution_is_engine_agnostic(container, recorded):
    sources = [
        recorded["server-churn", container][0],
        recorded["scan-heavy", container][0],
        recorded["pointer-chase", container][0],
    ]
    assert replay_multicore(sources, jobs=2) == oracle.replay_multicore(
        sources
    )


def test_multicore_shard_streams_are_engine_agnostic(recorded, tmp_path):
    # Concatenated shard files per core: region semantics (warm markers
    # ignored) must match the oracle too.
    churn, _ = recorded["server-churn", "v1"]
    scan, _ = recorded["scan-heavy", "v2"]
    churn_shards = shard_trace(churn, str(tmp_path / "churn"), shards=2)
    scan_shards = shard_trace(scan, str(tmp_path / "scan"), shards=2)
    sources = [churn_shards, scan_shards]
    assert replay_multicore(sources) == oracle.replay_multicore(sources)


# -- canonical digest ---------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_canonical_digest_matches_the_per_record_oracle(
    name, container, recorded
):
    path, _ = recorded[name, container]
    assert canonical_digest(path) == oracle.canonical_digest_records(path)


ADDRESS_MAX = (1 << 63) - 1
ARG_MAX = (1 << 32) - 1


@st.composite
def record_streams(draw):
    """Records of every kind over the full address/arg ranges, laid out
    as constant-stride runs (length 1 is a lone record) so both CALTRC02
    token shapes appear."""
    records = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, EV_EPOCH))
        arg = draw(st.integers(0, ARG_MAX))
        start = draw(st.integers(0, ADDRESS_MAX))
        stride = draw(st.integers(-4096, 4096))
        for step in range(draw(st.integers(1, 20))):
            address = start + step * stride
            if not 0 <= address <= ADDRESS_MAX:
                break
            records.append((kind, address, arg))
    return records


def _serialise(records, version):
    buffer = BytesIO()
    header = {"format": "ignored", "scenario": "digest-property"}
    with trace_writer(buffer, header, version=version) as writer:
        for record in records:
            writer.append(*record)
        writer.set_footer({"records": writer.record_count})
    return buffer.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    records=record_streams(),
    frame_records=st.integers(1, 9),
    group_records=st.integers(1, 9),
    chunk_records=st.integers(1, 9),
)
@example(records=[], frame_records=1, group_records=1, chunk_records=1)
def test_canonical_digest_matches_the_oracle_on_any_stream(
    records, frame_records, group_records, chunk_records
):
    """Frame, frame-group and v1 read-chunk sizes are shrunk so batch
    boundaries fall anywhere in the stream, including mid-run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "MAX_FRAME_RECORDS", frame_records)
        patch.setattr(compress, "FRAME_GROUP_RECORDS", group_records)
        patch.setattr(TraceReader, "COLUMN_CHUNK_RECORDS", chunk_records)
        v1, v2 = _serialise(records, 1), _serialise(records, 2)
        expected = oracle.canonical_digest_records(BytesIO(v1))
        assert oracle.canonical_digest_records(BytesIO(v2)) == expected
        assert canonical_digest(BytesIO(v1)) == expected
        assert canonical_digest(BytesIO(v2)) == expected


def test_canonical_digest_accepts_an_empty_frame(monkeypatch):
    """A zero-record frame decoding alone is an empty column batch; it
    contributes no bytes rather than failing the range check."""
    monkeypatch.setattr(compress, "FRAME_GROUP_RECORDS", 1)
    buffer = BytesIO()
    writer = compress.CompressedTraceWriter(buffer, {"scenario": "empty"})
    writer.append(0, 0x1000, 8)
    writer._flush_frame()
    payload = zlib.compress(b"")
    buffer.write(
        compress._FRAME_RECORDS_HEAD.pack(compress.FRAME_RECORDS, 0, len(payload))
    )
    buffer.write(payload)
    writer.close()
    data = buffer.getvalue()
    with TraceReader(BytesIO(data)) as reader:
        assert [len(batch) for batch in reader.column_batches()] == [1, 0]
    assert canonical_digest(BytesIO(data)) == oracle.canonical_digest_records(
        BytesIO(data)
    )
