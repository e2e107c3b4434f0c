"""Columnar replayer vs per-record oracle: whole-registry differential suite.

The acceptance gate for the replayer: over every registry scenario in
both container versions — plus a loadgen-composed trace — its
statistics are **bit-identical** to the per-record oracle's
(``oracle.py``: the per-access reference classes fed one record at a
time), for timing replay (footer stats, and the live run), hierarchy
replay (counters, violations, cycles), sharded merges, and multi-core
per-core attribution.  The corpus's columnar canonical digest is held
to the same standard against the per-record serialisation, on the
registry and on random record streams, and the columnar frame decoder
against the per-record ``oracle.decode_frame`` on corrupted frames.  The
same differential-testing pattern as
``tests/core/test_fastpath_equivalence``.
"""

import hashlib
import zlib
from io import BytesIO

import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.corpus.store import canonical_digest
from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.traces import CORPUS, compress, record_spec, replay_timing
from repro.traces.format import EV_EPOCH, TraceFormatError, TraceReader
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
    """Every registry scenario in both containers, plus a loadgen mix.

    The recorder writes CALTRC02; each CALTRC01 twin is the oracle's
    re-serialisation of it."""
    workdir = tmp_path_factory.mktemp("columnar")
    traces = {}

    def record(name, spec):
        v2 = str(workdir / f"{name}.v2.trace")
        live = record_spec(spec, v2)
        v1 = oracle.write_v1(v2, str(workdir / f"{name}.v1.trace"))
        traces[name, "v1"] = (v1, live)
        traces[name, "v2"] = (v2, live)

    for name in ALL_SCENARIOS:
        record(name, CORPUS[name].scaled(INSTRUCTIONS))
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
    record("loadgen", compose_spec(load))
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
        stream = oracle.iter_records(tuples)
        for batch in columns.column_batches():
            for row in oracle.rows([batch]):
                assert row == next(stream)
        assert next(stream, None) is None
        assert columns.footer == tuples.footer


RUN_SHAPES = st.lists(
    st.tuples(
        st.integers(0, EV_EPOCH),
        st.integers(0, 1 << 40),
        st.integers(0, 4096),
        st.integers(-512, 512),
        st.integers(1, 8),
    ),
    max_size=10,
)


def _decode_outcome(decode):
    """``("records", rows)`` or ``("error", message)``; any exception
    other than :class:`TraceFormatError` propagates and fails the test."""
    try:
        return "records", decode()
    except TraceFormatError as error:
        return "error", str(error)


@settings(max_examples=300, deadline=None)
@given(
    runs=RUN_SHAPES,
    edits=st.lists(
        st.tuples(
            st.sampled_from(["flip", "insert", "delete"]),
            st.integers(0, 1 << 16),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=3,
    ),
    count_shift=st.sampled_from([-1, 0, 1]),
)
@example(  # the zero-length run token of TestMalformedCompressed
    runs=[(0, 50, 8, 0, 1), (0, 51, 8, 0, 1)],
    edits=[("insert", 3, 0x08), ("insert", 4, 0x00), ("insert", 5, 0x0A),
           ("insert", 6, 0x06), ("insert", 7, 0x08)],
    count_shift=0,
)
def test_columnar_frame_decode_matches_the_oracle_on_corrupt_frames(
    runs, edits, count_shift
):
    """Byte-mutated token streams decode to the same records, or fail
    with the same :class:`TraceFormatError` message, in the columnar
    decoder and the per-record reference."""
    records = [
        (kind, start + step * stride, arg)
        for kind, start, arg, stride, length in runs
        for step in range(length)
        if start + step * stride >= 0
    ]
    tokens = bytearray(zlib.decompress(oracle.encode_frame(records)))
    for operation, position, value in edits:
        if operation == "insert":
            tokens.insert(position % (len(tokens) + 1), value)
        elif tokens:
            index = position % len(tokens)
            if operation == "flip":
                tokens[index] ^= value or 0x80
            else:
                del tokens[index]
    payload = zlib.compress(bytes(tokens))
    record_count = max(0, len(records) + count_shift)
    expected = _decode_outcome(
        lambda: list(oracle.decode_frame(payload, record_count))
    )
    if expected[0] == "records":
        # The columnar engine's domain is int64; the reference decodes
        # unbounded Python ints.
        assume(
            all(
                -(1 << 63) <= value < (1 << 63)
                for _, address, arg in expected[1]
                for value in (address, arg)
            )
        )
    actual = _decode_outcome(
        lambda: oracle.rows([compress.decode_frame_columns(payload, record_count)])
    )
    assert actual == expected


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


@pytest.mark.parametrize("name", ALL_SCENARIOS + ["loadgen"])
def test_canonical_digest_is_the_hash_of_the_v1_bytes(name, recorded):
    """The corpus digest of a CALTRC02 recording is the sha256 (and the
    length) of its CALTRC01 serialisation, so objects recorded in either
    container share one identity."""
    v2, _ = recorded[name, "v2"]
    v1, _ = recorded[name, "v1"]
    with open(v1, "rb") as handle:
        data = handle.read()
    assert data == oracle.canonical_v1(v2)[0]
    digest, length, _ = canonical_digest(v2)
    assert (digest, length) == (hashlib.sha256(data).hexdigest(), len(data))


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
    header = {"format": "ignored", "scenario": "digest-property"}
    footer = {"records": len(records)}
    if version == 1:
        return oracle.encode_v1(header, records, footer)
    buffer = BytesIO()
    with compress.CompressedTraceWriter(buffer, header) as writer:
        for record in records:
            writer.append(*record)
        writer.set_footer(footer)
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
