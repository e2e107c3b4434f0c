"""Unit tests for the CALTRC01 container's streaming column reader.

Nothing in ``src/`` writes CALTRC01 any more; the samples are built by
the test-side encoder ``oracle.encode_v1``.
"""

import io

import oracle
import pytest

from repro.corpus.store import canonical_digest
from repro.traces.format import (
    EV_CFORM,
    EV_LOAD,
    EV_STORE,
    MAGIC,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
    read_header,
)


def _write_sample(target, records, header=None, footer=None):
    data = oracle.encode_v1(
        header or {"kind": "test"}, records, footer or {"records": len(records)}
    )
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(data)
    else:
        target.write(data)


class TestRoundTrip:
    def test_records_survive(self):
        records = [
            (EV_LOAD, 0x1000, 8),
            (EV_STORE, 0x7FFF_0000, 8),
            (EV_CFORM, 0xDEAD_BEEF_0000, 3),
        ]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.header == {"kind": "test"}
        assert oracle.rows(reader.column_batches()) == records
        assert reader.footer == {"records": 3}

    def test_empty_trace(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [])
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert oracle.rows(reader.column_batches()) == []
        assert reader.footer == {"records": 0}

    def test_path_based_io(self, tmp_path):
        path = str(tmp_path / "sample.trace")
        _write_sample(path, [(EV_LOAD, 64, 8)])
        assert read_header(path) == {"kind": "test"}
        with TraceReader(path) as reader:
            assert reader.read_footer() == {"records": 1}

    def test_streaming_across_flush_boundaries(self):
        # More records than two reader chunks, plus a partial one.
        count = TraceReader.COLUMN_CHUNK_RECORDS * 2 + 17
        records = [(EV_LOAD, index * 64, 8) for index in range(count)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        sizes = [len(batch) for batch in reader.column_batches()]
        assert sizes == [TraceReader.COLUMN_CHUNK_RECORDS] * 2 + [17]

    def test_read_footer_after_partial_iteration(self, monkeypatch):
        """read_footer continues the shared column iterator — breaking
        out of an iteration must not lose the buffered chunk."""
        monkeypatch.setattr(TraceReader, "COLUMN_CHUNK_RECORDS", 5)
        records = [(EV_LOAD, index * 64, 8) for index in range(100)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        first = next(reader.column_batches())
        assert reader.read_footer() == {"records": 100}
        # The shared iterator was drained, not restarted.
        assert oracle.rows([first]) == records[:5]
        assert next(reader.column_batches(), None) is None

    def test_u64_address_and_u32_arg_bounds(self):
        records = [(EV_LOAD, 2**63 - 1, 2**32 - 1)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        assert oracle.rows(TraceReader(buffer).column_batches()) == records
        # Beyond int64 the columnar reader refuses rather than wrapping.
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 2**64 - 1, 8)])
        buffer.seek(0)
        with pytest.raises(TraceFormatError, match="int64 range"):
            list(TraceReader(buffer).column_batches())


class TestMalformedFiles:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            TraceReader(io.BytesIO(b"NOTATRACE" * 4))

    def test_truncated_header(self):
        buffer = io.BytesIO(MAGIC + (99).to_bytes(4, "little") + b"{}")
        with pytest.raises(TraceFormatError, match="header"):
            TraceReader(buffer)

    def test_missing_terminator(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 0, 8)])
        # Chop the footer and terminator off.
        raw = buffer.getvalue()[: -(RECORD_SIZE + 2)]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError):
            list(reader.column_batches())

    def test_truncated_footer(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [], footer={"long": "x" * 100})
        raw = buffer.getvalue()[:-50]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="footer"):
            list(reader.column_batches())

    def test_path_based_errors_name_file_and_offset(self, tmp_path):
        """Failures must be attributable to one file and one position —
        a multi-shard replay's error is useless without them."""
        path = str(tmp_path / "truncated.trace")
        _write_sample(path, [(EV_LOAD, 0, 8)] * 10)
        size = len(open(path, "rb").read())
        with open(path, "r+b") as handle:
            handle.truncate(size - (RECORD_SIZE + 20))
        with pytest.raises(TraceFormatError) as caught:
            with TraceReader(path) as reader:
                list(reader.column_batches())
        assert caught.value.path == path
        assert caught.value.offset is not None
        assert path in str(caught.value)
        assert "byte offset" in str(caught.value)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bogus.trace"
        path.write_bytes(b"NOTATRACE" * 4)
        with pytest.raises(TraceFormatError) as caught:
            TraceReader(str(path))
        assert caught.value.offset == 0
        assert str(path) in str(caught.value)

    def test_located_decorates_once(self):
        bare = TraceFormatError("boom", offset=7)
        located = bare.located("/a/file.trace")
        assert located.path == "/a/file.trace"
        assert located.offset == 7
        # Already-located errors keep their original attribution.
        assert located.located("/elsewhere.trace") is located

    def test_record_size_is_stable(self):
        # The format spec in BENCHMARKS.md documents 13-byte records.
        assert RECORD_SIZE == 13


class TestUnknownKinds:
    """A CALTRC01 record of a kind above ``EV_EPOCH`` (other than the
    terminator) is a located format error at decode, as in CALTRC02 —
    never a record handed to the replayer or hashed into a digest."""

    RECORDS = [(EV_LOAD, 0x1000, 8), (EV_LOAD, 0x1040, 8), (9, 0x2000, 8)]

    def test_column_batches_reject_the_record(self, tmp_path):
        path = str(tmp_path / "kind9.trace")
        _write_sample(path, self.RECORDS)
        with pytest.raises(TraceFormatError) as caught:
            with TraceReader(path) as reader:
                list(reader.column_batches())
        error = caught.value
        assert "unknown record kind 9" in str(error)
        assert error.path == path
        # The third record, after the preamble and two 13-byte records.
        with TraceReader(path) as reader:
            assert error.offset == reader.data_offset + 2 * RECORD_SIZE

    def test_canonical_digest_refuses_it(self, tmp_path):
        path = str(tmp_path / "kind9.trace")
        _write_sample(path, self.RECORDS)
        with pytest.raises(TraceFormatError, match="unknown record kind 9"):
            canonical_digest(path)
