"""CALTRC02: codec correctness, v1↔v2 equivalence, error paths.

The acceptance gate for the compressed container: across the whole
scenario registry, a CALTRC02 recording replays bit-identically to its
CALTRC01 twin — single-core, sharded and multi-core — while shrinking
the on-disk footprint by well over the 4x target on compressible mixes.
The CALTRC01 twins are written by the test-side encoder
(``oracle.write_v1``); nothing in ``src/`` writes that container.
"""

import io
import json
import struct
import zlib

import oracle
import pytest

from repro.traces import CORPUS, record_spec, replay_timing
from repro.traces.compress import (
    _FRAME_RECORDS_HEAD,
    FRAME_RECORDS,
    MAGIC_V2,
    MAX_FRAME_RECORDS,
    CompressedTraceWriter,
    compression_summary,
    decode_frame_columns,
    frame_stats,
    transcode,
)
from repro.traces.format import (
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_LOAD,
    EV_STORE,
    TraceFormatError,
    TraceReader,
)
from repro.traces.replayer import replay_multicore, replay_shards, shard_trace

INSTRUCTIONS = 5_000

ALL_SCENARIOS = sorted(CORPUS)


# -- token/frame codec --------------------------------------------------------


class TestFrameCodec:
    def roundtrip(self, records):
        payload = oracle.encode_frame(records)
        assert list(oracle.decode_frame(payload, len(records))) == records
        if all(address < 2**63 for _, address, _ in records):
            columns = decode_frame_columns(payload, len(records))
            assert oracle.rows([columns]) == records
        return payload

    def test_empty_frame(self):
        assert list(oracle.decode_frame(oracle.encode_frame([]), 0)) == []
        assert len(decode_frame_columns(oracle.encode_frame([]), 0)) == 0

    def test_mixed_records(self):
        self.roundtrip(
            [
                (EV_LOAD, 0x1000, 8),
                (EV_STORE, 0x7FFF_0000, 8),
                (EV_CFORM, 0xDEAD_BEEF_0000, 3),
                (EV_ALLOC, 0x2000, 96),
                (EV_EPOCH, 0, 0),
            ]
        )

    def test_u64_bounds_and_negative_deltas(self):
        self.roundtrip(
            [
                (EV_LOAD, 2**64 - 1, 2**32 - 1),
                (EV_LOAD, 0, 0),
                (EV_STORE, 2**63, 8),
            ]
        )

    def test_monotone_run_collapses(self):
        # A constant-stride scan should tokenise far below one byte per
        # record even before deflate sees it.
        scan = [(EV_LOAD, 0x4000 + index * 64, 8) for index in range(10_000)]
        payload = self.roundtrip(scan)
        assert len(zlib.decompress(payload)) < len(scan)  # < 1 B/record

    def test_descending_run(self):
        self.roundtrip(
            [(EV_LOAD, 0x9000 - index * 8, 8) for index in range(100)]
        )

    def test_runs_broken_by_kind_or_arg(self):
        records = []
        for index in range(50):
            kind = EV_LOAD if index % 7 else EV_STORE
            arg = 8 if index % 11 else 4
            records.append((kind, 0x1000 + index * 64, arg))
        self.roundtrip(records)

    def test_record_count_mismatch_detected(self):
        payload = oracle.encode_frame([(EV_LOAD, 64, 8)] * 10)
        with pytest.raises(TraceFormatError, match="promised"):
            list(oracle.decode_frame(payload, 11))
        with pytest.raises(TraceFormatError, match="promised"):
            decode_frame_columns(payload, 11)


# -- container round-trip -----------------------------------------------------


class TestContainer:
    def _write(self, records, buffer=None):
        buffer = buffer if buffer is not None else io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            for record in records:
                writer.append(*record)
            writer.set_footer({"records": len(records)})
        return buffer

    def test_roundtrip_with_epoch_frames(self):
        records = []
        for epoch in range(5):
            records.extend(
                (EV_LOAD, 0x1000 + epoch * 4096 + index * 8, 8)
                for index in range(200)
            )
            records.append((EV_EPOCH, epoch, 0))
        buffer = self._write(records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.version == 2
        assert oracle.rows(reader.column_batches()) == records
        assert reader.footer == {"records": len(records)}

    def test_epochless_trace_flushes_by_cap(self):
        count = MAX_FRAME_RECORDS + 17
        records = [(EV_LOAD, index * 8, 8) for index in range(count)]
        buffer = self._write(records)
        buffer.seek(0)
        assert len(oracle.rows(TraceReader(buffer).column_batches())) == count

    def test_empty_trace(self):
        buffer = self._write([])
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert oracle.rows(reader.column_batches()) == []
        assert reader.footer == {"records": 0}

    def test_magic_detected(self):
        buffer = self._write([])
        assert buffer.getvalue().startswith(MAGIC_V2)


# -- whole-registry v1 <-> v2 equivalence ------------------------------------


@pytest.fixture(scope="module")
def recorded_pairs(tmp_path_factory):
    """Record every registry scenario once, plus its CALTRC01 twin."""
    workdir = tmp_path_factory.mktemp("v1v2")
    pairs = {}
    for name in ALL_SCENARIOS:
        spec = CORPUS[name].scaled(INSTRUCTIONS)
        v1 = str(workdir / f"{name}.v1.trace")
        v2 = str(workdir / f"{name}.v2.trace")
        live = record_spec(spec, v2)
        oracle.write_v1(v2, v1)
        pairs[name] = (spec, v1, v2, live)
    return pairs


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_v2_record_stream_is_identical(name, recorded_pairs):
    _, v1, v2, _ = recorded_pairs[name]
    with TraceReader(v1) as a, TraceReader(v2) as b:
        assert oracle.rows(a.column_batches()) == oracle.rows(b.column_batches())
        assert a.footer == b.footer
        assert {k: v for k, v in a.header.items() if k != "format"} == {
            k: v for k, v in b.header.items() if k != "format"
        }


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_v2_replay_is_bit_identical(name, recorded_pairs):
    _, v1, v2, live = recorded_pairs[name]
    assert replay_timing(v2) == replay_timing(v1) == live


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_sharded_v2_replay_matches_v1(name, recorded_pairs, tmp_path):
    _, v1, v2, _ = recorded_pairs[name]
    shards_v1 = shard_trace(v1, str(tmp_path / "v1"), shards=3)
    shards_v2 = shard_trace(v2, str(tmp_path / "v2"), shards=3)
    # v2 shards stay compressed.
    with TraceReader(shards_v2[0]) as reader:
        assert reader.version == 2
    assert (
        replay_shards(shards_v2, jobs=2).stats
        == replay_shards(shards_v1, jobs=1).stats
    )


def test_multicore_replay_is_container_agnostic(recorded_pairs):
    _, churn_v1, churn_v2, _ = recorded_pairs["server-churn"]
    _, scan_v1, scan_v2, _ = recorded_pairs["scan-heavy"]
    from_v1 = replay_multicore([churn_v1, scan_v1])
    from_v2 = replay_multicore([churn_v2, scan_v2], jobs=2)
    mixed = replay_multicore([churn_v1, scan_v2])
    assert from_v1.per_core == from_v2.per_core == mixed.per_core
    assert from_v1.merged == from_v2.merged == mixed.merged


def test_compression_reaches_target_ratio(recorded_pairs):
    """≥4x on-disk reduction on at least two registry mixes (acceptance
    criterion); in practice every mix clears it by a wide margin."""
    import os

    winners = [
        name
        for name, (_, v1, v2, _) in recorded_pairs.items()
        if os.path.getsize(v1) / os.path.getsize(v2) >= 4.0
    ]
    assert len(winners) >= 2, winners


def test_transcode_writes_caltrc02(recorded_pairs, tmp_path):
    spec, v1, v2, live = recorded_pairs["quarantine-pressure"]
    from_v1 = str(tmp_path / "from-v1.trace")
    from_v2 = str(tmp_path / "from-v2.trace")
    assert transcode(v1, from_v1) == transcode(v2, from_v2)
    # Re-encoding reproduces the recorder's CALTRC02 file byte-for-byte,
    # whichever container the records came from.
    with open(v2, "rb") as recorded:
        original = recorded.read()
    for path in (from_v1, from_v2):
        with open(path, "rb") as handle:
            assert handle.read() == original
    assert replay_timing(from_v1) == live


def test_frame_stats_match_footer(recorded_pairs):
    _, _, v2, _ = recorded_pairs["server-churn"]
    with TraceReader(v2) as reader:
        footer = reader.read_footer()
    frames = frame_stats(v2)
    assert sum(count for count, _ in frames) == footer["records"]
    summary = compression_summary(v2, footer["records"])
    assert summary["frames"] == len(frames)
    assert summary["ratio"] > 4.0


def test_frame_stats_rejects_v1(recorded_pairs):
    _, v1, _, _ = recorded_pairs["server-churn"]
    with pytest.raises(TraceFormatError, match="not a compressed"):
        frame_stats(v1)


# -- error paths --------------------------------------------------------------


class TestMalformedCompressed:
    @pytest.fixture()
    def sample(self):
        buffer = io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            for index in range(500):
                writer.append(EV_LOAD, index * 64, 8)
                if index % 100 == 99:
                    writer.append(EV_EPOCH, index // 100, 0)
            writer.set_footer({"records": writer.record_count})
        return buffer.getvalue()

    def test_truncated_mid_frame(self, sample):
        reader = TraceReader(io.BytesIO(sample[: len(sample) // 2]))
        with pytest.raises(TraceFormatError, match="truncated|terminator"):
            list(reader.column_batches())

    def test_missing_end_frame(self, sample):
        # Chop the end frame (5-byte head + footer JSON) off exactly.
        footer_bytes = len(json.dumps({"records": 505}, sort_keys=True))
        reader = TraceReader(io.BytesIO(sample[: -(5 + footer_bytes)]))
        with pytest.raises(TraceFormatError, match="terminator"):
            list(reader.column_batches())

    def test_corrupt_frame_payload(self, sample):
        corrupted = bytearray(sample)
        corrupted[len(corrupted) // 2] ^= 0xFF
        reader = TraceReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(TraceFormatError):
            list(reader.column_batches())

    def test_unknown_frame_type(self):
        buffer = io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            writer.set_footer({})
        raw = buffer.getvalue()
        # The first byte after the header preamble is the frame type.
        header_len = struct.unpack_from("<I", raw, 8)[0]
        offset = 8 + 4 + header_len
        corrupted = bytearray(raw)
        corrupted[offset] = 0x7E
        reader = TraceReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(TraceFormatError, match="frame type"):
            list(reader.column_batches())

    def test_truncated_magic(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(io.BytesIO(MAGIC_V2[:5]))

    def test_abort_leaves_invalid_file(self, tmp_path):
        path = str(tmp_path / "aborted.trace")
        writer = CompressedTraceWriter(path, {"kind": "test"})
        writer.append(EV_LOAD, 64, 8)
        writer.abort()
        reader = TraceReader(path)
        with pytest.raises(TraceFormatError):
            list(reader.column_batches())

    # Tokens of two plain records at 50 and 51 plus one run token with
    # count 0 (``08 00 0a 06 08``: Δstart +5, stride 3, arg 8).  The
    # encoder never emits a zero count (``MIN_RUN``), so it is corrupt.
    ZERO_RUN_MIDDLE = bytes.fromhex("006408" "08000a0608" "000208")
    ZERO_RUN_LAST = bytes.fromhex("006408" "000208" "08000a0608")

    @pytest.mark.parametrize(
        "tokens", [ZERO_RUN_MIDDLE, ZERO_RUN_LAST], ids=["middle", "last"]
    )
    def test_zero_length_run_is_corrupt(self, tokens):
        payload = zlib.compress(tokens)
        with pytest.raises(TraceFormatError, match="zero-length run"):
            decode_frame_columns(payload, 2)
        with pytest.raises(TraceFormatError, match="zero-length run"):
            list(oracle.decode_frame(payload, 2))

    def test_zero_length_run_is_located_in_the_file(self, tmp_path):
        path = str(tmp_path / "zero-run.trace")
        with CompressedTraceWriter(path, {"kind": "test"}) as writer:
            writer.append(EV_LOAD, 0x1000, 8)
            writer._flush_frame()
            frame_start = writer._file.tell()
            payload = zlib.compress(self.ZERO_RUN_LAST)
            writer._file.write(
                _FRAME_RECORDS_HEAD.pack(FRAME_RECORDS, 2, len(payload))
            )
            writer._file.write(payload)
            writer.set_footer({"records": 3})
        with pytest.raises(TraceFormatError) as caught:
            with TraceReader(path) as reader:
                list(reader.column_batches())
        assert caught.value.path == path
        assert caught.value.offset == frame_start
        assert "zero-length run" in str(caught.value)


def test_frame_stats_report_a_truncated_payload_inside_the_file(tmp_path):
    """A file cut inside a frame payload is reported at that frame's
    offset, exactly as the reader reports it — not as a missing
    terminator past the end of the file."""
    path = str(tmp_path / "cut.trace")
    with CompressedTraceWriter(path, {"kind": "test"}) as writer:
        for index in range(40):
            writer.append(EV_LOAD, index * 4096 + (index * 7919) % 977, 8)
        writer.append(EV_EPOCH, 0, 0)
        for index in range(40):
            writer.append(EV_STORE, index * 8192 + (index * 104729) % 613, 4)
        writer.set_footer({"records": writer.record_count})
    with open(path, "rb") as handle:
        raw = handle.read()
    with TraceReader(io.BytesIO(raw)) as reader:
        second_frame = reader.data_offset
        second_frame += _FRAME_RECORDS_HEAD.size + struct.unpack_from(
            "<I", raw, second_frame + 5
        )[0]
    size = second_frame + _FRAME_RECORDS_HEAD.size + 3  # inside the payload
    with open(path, "wb") as handle:
        handle.write(raw[:size])
    with pytest.raises(TraceFormatError) as from_reader:
        with TraceReader(path) as reader:
            list(reader.column_batches())
    with pytest.raises(TraceFormatError) as from_stats:
        frame_stats(path)
    assert str(from_stats.value) == str(from_reader.value)
    assert "truncated compressed trace: frame payload" in str(from_stats.value)
    assert from_stats.value.offset == second_frame < size
