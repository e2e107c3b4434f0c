"""Columnar recording vs the per-record oracle, and the pinned file bytes.

The CALTRC02 writer cuts frames and tokenises them a column batch at a
time (:func:`repro.traces.compress.encode_frames`).  Here its frames are
held to the per-record reference — ``oracle.frames`` cutting the stream
one record at a time, ``oracle.encode_tokens`` walking each frame
greedily — token for token and frame for frame, however the stream is
split into :meth:`CompressedTraceWriter.extend` calls.  The recorder's
EPOCH insertion is held to the per-burst rule, and three recordings are
pinned to the sha256 of their stored bytes, so any change to the bytes a
recording stores fails here, not only one that moves the canonical
digest.
"""

import hashlib
import zlib
from io import BytesIO

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.store import figure_spec
from repro.loadgen.compose import compose_spec
from repro.loadgen.sets import load_scenarios
from repro.softstack.insertion import Policy
from repro.traces import CORPUS, compress, record_spec
from repro.traces.compress import CompressedTraceWriter, _iter_frames
from repro.traces.format import EV_EPOCH, EV_LOAD, EV_STORE, TraceReader
from repro.traces.recorder import RecordingSink
from repro.workloads.generator import Scenario
from repro.workloads.specs import SPEC_PROFILES

#: Addresses stay within ±2**61 so every delta fits the int64 domain.
ADDRESS_SPAN = 1 << 61


@st.composite
def segments(draw):
    """Records laid out as same-kind, same-arg segments whose addresses
    step through chained stride blocks: each block is ``pairs`` record
    pairs of one stride and shares its first record with the previous
    block's last, so runs of 3, 4 and 5 records, chains of 3-pair blocks
    and stride changes mid-segment all occur.  EPOCH rows and kind or
    arg breaks separate segments."""
    records = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            records.append((EV_EPOCH, draw(st.integers(0, 9)), 0))
        kind = draw(st.sampled_from([EV_LOAD, EV_LOAD, EV_STORE, 4, 2]))
        arg = draw(st.sampled_from([8, 8, 4, 0, (1 << 32) - 1, (1 << 62)]))
        address = draw(st.integers(-ADDRESS_SPAN, ADDRESS_SPAN))
        records.append((kind, address, arg))
        for _ in range(draw(st.integers(0, 5))):
            stride = draw(
                st.sampled_from([0, 64, -64, 8, -8, 1])
                | st.integers(-4096, 4096)
            )
            for _ in range(draw(st.sampled_from([1, 2, 3, 3, 3, 4, 5]))):
                address += stride
                if not -ADDRESS_SPAN <= address <= ADDRESS_SPAN:
                    break
                records.append((kind, address, arg))
    return records


def columns(records):
    kinds, addresses, args = zip(*records) if records else ((), (), ())
    return (
        np.array(kinds, dtype=np.uint8),
        np.array(addresses, dtype=np.int64),
        np.array(args, dtype=np.int64),
    )


def written_frames(records, splits):
    """``(record_count, tokens)`` of every frame the writer stores when
    the records arrive as ``extend`` calls cut at ``splits``."""
    kinds, addresses, args = columns(records)
    buffer = BytesIO()
    with CompressedTraceWriter(buffer, {"scenario": "frames"}) as writer:
        bounds = [0, *sorted(splits), len(records)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            writer.extend(
                kinds[start:stop], addresses[start:stop], args[start:stop]
            )
    buffer.seek(0)
    with TraceReader(buffer) as reader:
        return [
            (count, zlib.decompress(payload))
            for _, count, payload in _iter_frames(reader)
        ]


def oracle_frames(records, max_frame_records):
    return [
        (len(frame), oracle.encode_tokens(frame))
        for frame in oracle.frames(records, max_frame_records)
    ]


@settings(max_examples=150, deadline=None)
@given(
    records=segments(),
    frame_records=st.integers(1, 12),
    splits=st.lists(st.integers(0, 200), max_size=4),
)
@example(  # two touching 3-pair blocks: the second is plain tokens
    records=[(EV_LOAD, a, 8) for a in (0, 1, 2, 3, 5, 7, 9)],
    frame_records=64,
    splits=[],
)
@example(  # an EPOCH as the cap's last record closes one frame, not two
    records=[(EV_LOAD, 64 * i, 8) for i in range(3)] + [(EV_EPOCH, 0, 0)],
    frame_records=4,
    splits=[],
)
def test_columnar_frames_equal_the_oracle(records, frame_records, splits):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "MAX_FRAME_RECORDS", frame_records)
        splits = [split % (len(records) + 1) for split in splits]
        assert written_frames(records, splits) == oracle_frames(
            records, frame_records
        )


@settings(max_examples=25, deadline=None)
@given(records=segments(), frame_records=st.integers(1, 12))
def test_frames_do_not_depend_on_where_the_batches_split(
    records, frame_records
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "MAX_FRAME_RECORDS", frame_records)
        expected = oracle_frames(records, frame_records)
        for split in range(len(records) + 1):
            assert written_frames(records, [split]) == expected


@pytest.mark.parametrize("epoch_at", [3, 4, 5, 8])
def test_epoch_at_the_frame_cap(epoch_at, monkeypatch):
    """EPOCH rows just before, exactly at and just past a cap of 4."""
    monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 4)
    records = [(EV_LOAD, 64 * index, 8) for index in range(11)]
    records.insert(epoch_at - 1, (EV_EPOCH, 0, 0))
    frames = written_frames(records, [])
    assert frames == oracle_frames(records, 4)
    assert [count for count, _ in frames][:2] == {
        3: [3, 4], 4: [4, 4], 5: [4, 1], 8: [4, 4]
    }[epoch_at]


def test_staged_appends_frame_like_one_batch():
    records = [(EV_LOAD, 64 * (index % 50), 8) for index in range(300)]
    records[120] = (EV_EPOCH, 0, 0)
    buffer = BytesIO()
    with CompressedTraceWriter(buffer, {"scenario": "frames"}) as writer:
        for record in records[:100]:
            writer.append(*record)
        writer.extend(*columns(records[100:200]))
        for record in records[200:]:
            writer.append(*record)
        assert writer.record_count == len(records)
    batch = BytesIO()
    with CompressedTraceWriter(batch, {"scenario": "frames"}) as writer:
        writer.extend(*columns(records))
    assert buffer.getvalue() == batch.getvalue()


def test_negative_arg_is_rejected():
    writer = CompressedTraceWriter(BytesIO(), {})
    with pytest.raises(ValueError, match="arg"):
        writer.extend(*columns([(EV_LOAD, 64, 8), (EV_LOAD, 128, -1)]))
    writer.append(EV_LOAD, 64, -8)
    with pytest.raises(ValueError, match="arg"):
        writer.close()


def test_address_delta_beyond_int64_is_rejected():
    writer = CompressedTraceWriter(BytesIO(), {})
    low, high = -(1 << 63), (1 << 63) - 1
    with pytest.raises(ValueError, match="int64"):
        writer.extend(
            *columns([(EV_LOAD, low, 8), (EV_LOAD, high, 8), (EV_EPOCH, 0, 0)])
        )


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.integers(0, 6), st.lists(st.integers(0, 6), max_size=5)),
        max_size=8,
    ),
    epoch_bursts=st.integers(1, 4),
)
def test_recording_sink_inserts_an_epoch_every_epoch_bursts(
    batches, epoch_bursts
):
    """Batches of ``size`` loads with bursts at the given offsets: the
    written stream is the per-burst rule's (an EPOCH row after every
    ``epoch_bursts``-th burst, numbered from 0)."""
    buffer = BytesIO()
    expected = []
    bursts = epochs = address = 0
    with CompressedTraceWriter(buffer, {}) as writer:
        sink = RecordingSink(writer, epoch_bursts)
        for size, offsets in batches:
            offsets = sorted(min(offset, size) for offset in offsets)
            records = [(EV_LOAD, address + 8 * i, 8) for i in range(size)]
            address += 8 * size
            position = 0
            for offset in offsets:
                expected += records[position:offset]
                position = offset
                bursts += 1
                if bursts % epoch_bursts == 0:
                    expected.append((EV_EPOCH, epochs, 0))
                    epochs += 1
            expected += records[position:]
            sink.extend(*columns(records), np.array(offsets, dtype=np.int64))
        assert sink.epochs == epochs
    assert oracle.read_records(BytesIO(buffer.getvalue())) == expected


# -- pinned stored bytes ------------------------------------------------------

#: sha256 of the CALTRC02 bytes each spec records (Table 3 geometry),
#: pinned from the per-record encoder the columnar one replaced.
GOLDEN = {
    "registry": (
        "2a5ea8f5535ee856ba99fe2ecd40c0fdb748a356423633866966823b635db597"
    ),
    "loadgen": (
        "58ff3871e746089025ba60286ff6db2981dfe3b033fd94a07e15ae1c79076d79"
    ),
    "figure": (
        "1054f81b374fe3716390bb21fcdcbe5a55b5b16cd9a88793d6d6730bb6afeda6"
    ),
}


def golden_spec(case):
    if case == "registry":
        return CORPUS["scan-heavy"]
    if case == "loadgen":
        return compose_spec(load_scenarios()["uniform-churn"])
    # A quick-profile (80,000-instruction) Figure 12 cell.
    scenario = Scenario(
        policy=Policy.INTELLIGENT, min_bytes=1, max_bytes=7, with_cform=True
    )
    return figure_spec(SPEC_PROFILES["hmmer"], scenario, 80_000)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_recorded_bytes_are_pinned(case):
    buffer = BytesIO()
    record_spec(golden_spec(case), buffer)
    assert hashlib.sha256(buffer.getvalue()).hexdigest() == GOLDEN[case]

