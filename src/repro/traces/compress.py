"""CALTRC02: the epoch-framed compressed trace format — the only one written.

Recorded record streams are highly redundant: addresses walk in small
strides, ``arg`` is almost always the access width, and scans/pre-warm
loops emit thousands of constant-stride touches.  ``CALTRC02`` keeps the
shared container shape of :mod:`repro.traces.format` (magic, JSON
header, record stream, JSON footer) but stores the record stream as a
sequence of independently decodable *frames*:

* one frame per recorded **epoch** (the sink's shard split points), so
  frame boundaries coincide with the only legal shard boundaries and
  sharded/multi-core replay stream frame-by-frame exactly as before;
* inside a frame, records are byte-tokenised: **delta-encoded addresses**
  (zigzag varints against the previous record's address), **varint args**
  and **run tokens** that collapse a monotone constant-stride burst
  (scans, the pre-warm sweep, CFORM line walks) into one token;
* the token stream is then **zlib-deflated**, frame by frame.

Frame wire format (after the v1-shaped ``magic + u32 header-length +
header JSON`` preamble, all integers little-endian)::

    0x01  u32 record_count  u32 payload_length  <deflate(tokens)>   * N
    0xFF  u32 footer_length  <footer JSON>

Tokens (``kind`` is the ``EV_*`` record kind, 0..6)::

    kind                 zigzag-varint Δaddress  varint arg
    kind | 0x08 (run)    varint count  zigzag-varint Δstart
                         zigzag-varint stride    varint arg

A run token expands to ``count`` records of the same kind and arg whose
addresses step by ``stride``; the delta base resets to 0 at every frame
boundary so frames decode independently.  A run token's count is
never 0 (the encoder only emits runs of :data:`MIN_RUN` or more), so a
zero count is rejected as corruption.

:class:`CompressedTraceWriter` is the one trace writer: the recorder,
the sharder and :func:`transcode` (any container in, CALTRC02 out) all
use it.  Both directions are columnar.  The writer takes column
batches, and :func:`encode_frames` tokenises every frame a batch closes
in one vectorised pass.  :func:`iter_compressed_columns` decodes groups
of frames into :class:`~repro.traces.format.RecordColumns` for
:meth:`~repro.traces.format.TraceReader.column_batches`, and
:func:`_iter_frames` is the one walker over the frame headers.  Encode
and decode are both streaming: the writer holds one batch plus at most
one open frame of records, the reader inflates a bounded group of
frames at a time.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from repro.telemetry.runtime import active as telemetry_active
from repro.traces.format import (
    _HEADER_LEN,
    EV_EPOCH,
    RECORD_SIZE,
    RecordColumns,
    TraceFormatError,
    TraceReader,
)

#: The compressed container's magic (same family, next version digit).
MAGIC_V2 = b"CALTRC02"

#: Frame type bytes.
FRAME_RECORDS = 0x01
FRAME_END = 0xFF

#: zlib level: 6 is the sweet spot for these token streams (9 buys a few
#: percent for a multiple of the encode time).
COMPRESSION_LEVEL = 6

#: Frames are cut at EPOCH records; epoch-less traces (foreign writers,
#: tests) still flush after this many records so memory stays bounded.
MAX_FRAME_RECORDS = 1 << 16

#: A constant-stride same-kind/same-arg run must be at least this long
#: before the encoder emits a run token (shorter runs compress fine as
#: plain delta tokens).
MIN_RUN = 4

#: Run flag on the token's kind byte.  EV_* kinds occupy 3 bits.
_RUN_FLAG = 0x08

#: Rows :meth:`CompressedTraceWriter.append` stages before writing them
#: through the column path.
STAGED_RECORDS = 1 << 14

_FRAME_RECORDS_HEAD = struct.Struct("<BII")
_FRAME_END_HEAD = struct.Struct("<BI")


# -- varint primitives --------------------------------------------------------


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    value = 0
    shift = 0
    try:
        while True:
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, offset
            shift += 7
    except IndexError:
        raise TraceFormatError("corrupt frame: truncated varint") from None


def _read_signed(data: bytes, offset: int) -> tuple[int, int]:
    zigzag, offset = _read_varint(data, offset)
    return ((zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1)), offset


# -- frame codec --------------------------------------------------------------


def _zigzag(values):
    """Zigzag-map int64 values to uint64 (0, -1, 1, -2 → 0, 1, 2, 3)."""
    return ((values << 1) ^ (values >> 63)).view(np.uint64)


def _run_blocks(kinds, addresses, args, frame_first):
    """The run tokens the greedy encoder emits: ``(start, last, stride)``
    record-index arrays, one entry per run.

    The encoder walks a frame greedily: at record ``i`` it measures the
    longest constant-stride, same-kind, same-arg stretch starting there
    and emits it as one run token when it spans :data:`MIN_RUN` (4) or
    more records, else emits ``i`` alone and moves on.  Group the record
    pairs into *blocks*: maximal stretches of linkable pairs (same kind,
    same arg, same frame) with one stride.  A walk enters a block of
    ``m`` pairs at its first record, or — when the previous block ends on
    this block's first record and was emitted as a run — one record
    later, and it emits the rest of the block as a run iff ``m``, less
    that offset, is at least 3.  So whether a block is a run is a 1-bit
    recurrence over blocks with three transitions: constant (a block not
    touching its predecessor, or ``m`` ≥ 4 or ≤ 2), or NOT (``m == 3``
    touching its predecessor: a run iff that one is not).  Each block's
    bit is its last constant block's bit, flipped once per NOT block
    since (a running maximum and a parity count).
    """
    strides = np.diff(addresses)
    linkable = (kinds[1:] == kinds[:-1]) & (args[1:] == args[:-1])
    linkable &= ~frame_first[1:]
    joined = linkable[1:] & linkable[:-1] & (strides[1:] == strides[:-1])
    first_pairs = linkable.copy()
    first_pairs[1:] &= ~joined
    last_pairs = linkable.copy()
    last_pairs[:-1] &= ~joined
    starts = np.flatnonzero(first_pairs)
    lasts = np.flatnonzero(last_pairs) + 1  # each block's last record
    pairs = lasts - starts
    touching = np.zeros(len(starts), dtype=bool)
    touching[1:] = starts[1:] == lasts[:-1]
    least = MIN_RUN - 1  # pairs in a run entered at its block's start
    flip = touching & (pairs == least)
    constant = np.where(touching, pairs > least, pairs >= least)
    anchors = np.maximum.accumulate(
        np.where(flip, 0, np.arange(len(starts)))
    )
    flips = np.cumsum(flip)
    run = constant[anchors] ^ ((flips - flips[anchors]) & 1).astype(bool)
    entered_late = np.zeros(len(starts), dtype=bool)
    entered_late[1:] = touching[1:] & run[:-1]
    return (
        (starts + entered_late)[run], lasts[run], strides[starts[run]]
    )


def _varints(values):
    """LEB128-encode a uint64 array into one uint8 array; also return
    each value's byte offset."""
    widths = np.ones(len(values), dtype=np.int64)
    longer = np.flatnonzero(values > 0x7F)
    shift = np.uint64(7)
    while longer.size:
        widths[longer] += 1
        longer = longer[values[longer] >> shift > 0x7F]
        shift += np.uint64(7)
    offsets = np.cumsum(widths) - widths
    out = np.empty(int(widths.sum()), dtype=np.uint8)
    out[offsets] = values & 0x7F
    longer = np.flatnonzero(widths > 1)
    column = 1
    while longer.size:
        out[offsets[longer] + column - 1] |= 0x80
        out[offsets[longer] + column] = (
            values[longer] >> np.uint64(7 * column)
        ) & 0x7F
        column += 1
        longer = longer[widths[longer] > column]
    return out, offsets


def encode_frames(kinds, addresses, args, frame_starts):
    """Tokenise consecutive frames of column records in one pass.

    ``frame_starts`` holds each frame's first record index (ascending,
    the first 0; every frame non-empty).  Returns the concatenated token
    bytes (a uint8 array) and each frame's byte span as an offset array
    one longer than ``frame_starts`` — the exact tokens of the greedy
    per-frame walk described under :func:`_run_blocks`, which
    ``tests/traces/oracle.py`` keeps as the reference encoder.  Addresses
    are int64 and every in-frame address delta must fit int64, the
    columnar decoder's domain; args must be non-negative.
    """
    count = len(kinds)
    kinds = kinds.astype(np.uint64)
    frame_first = np.zeros(count, dtype=bool)
    frame_first[frame_starts] = True
    previous = np.empty(count, dtype=np.int64)
    previous[0] = 0
    previous[1:] = addresses[:-1]
    previous[frame_first] = 0
    deltas = addresses - previous
    if ((addresses ^ previous) & (addresses ^ deltas) < 0).any():
        raise ValueError("address delta exceeds the int64 range")
    run_starts, run_lasts, run_strides = _run_blocks(
        kinds, addresses, args, frame_first
    )
    # Tokens start at every record outside a run's tail.
    inside = np.zeros(count + 1, dtype=np.int8)
    inside[run_starts + 1] = 1
    inside[run_lasts + 1] -= 1
    tokens = np.flatnonzero(np.cumsum(inside[:count]) == 0)
    runs = np.searchsorted(tokens, run_starts)
    widths = np.full(len(tokens), 3, dtype=np.int64)
    widths[runs] = 5
    units = np.cumsum(widths) - widths
    values = np.empty(int(widths.sum()), dtype=np.uint64)
    plain = np.ones(len(tokens), dtype=bool)
    plain[runs] = False
    plain_units = units[plain]
    plain_tokens = tokens[plain]
    values[plain_units] = kinds[plain_tokens]
    values[plain_units + 1] = _zigzag(deltas[plain_tokens])
    values[plain_units + 2] = args[plain_tokens]
    run_units = units[runs]
    values[run_units] = kinds[run_starts] | _RUN_FLAG
    values[run_units + 1] = run_lasts + 1 - run_starts
    values[run_units + 2] = _zigzag(deltas[run_starts])
    values[run_units + 3] = _zigzag(run_strides)
    values[run_units + 4] = args[run_starts]
    data, offsets = _varints(values)
    bounds = np.empty(len(frame_starts) + 1, dtype=np.int64)
    bounds[:-1] = offsets[units[np.searchsorted(tokens, frame_starts)]]
    bounds[-1] = len(data)
    return data, bounds


def decode_frame_columns(payload: bytes, record_count: int):
    """Inflate + de-tokenise one frame into column arrays.

    Returns a :class:`~repro.traces.format.RecordColumns` with exactly
    ``record_count`` rows.  Well-formed frames decode on the vectorized
    path of :func:`_decode_frames_fast`; anything it declines falls back
    to the per-token walk of :func:`_decode_frame_columns_tokens`, which
    diagnoses corrupt payloads with a :class:`TraceFormatError`.
    """
    try:
        tokens = zlib.decompress(payload)
    except zlib.error as error:
        raise TraceFormatError(f"corrupt frame: {error}") from None
    columns = _decode_frames_fast([tokens], [record_count])
    if columns is not None:
        return columns
    return _decode_frame_columns_tokens(tokens, record_count)


def _decode_frame_columns_tokens(tokens: bytes, record_count: int):
    """Per-token fallback decoder (also the corrupt-frame diagnoser).

    One Python step per token, validating in stream order: kind byte,
    varint fields, zero-length runs, then the record count the frame
    header promised.
    """
    offset = 0
    end = len(tokens)
    kinds: list[int] = []
    counts: list[int] = []
    args: list[int] = []
    first_deltas: list[int] = []
    strides: list[int] = []
    produced = 0
    while offset < end:
        token = tokens[offset]
        offset += 1
        kind = token & ~_RUN_FLAG
        if kind > EV_EPOCH:
            raise TraceFormatError(
                f"corrupt frame: invalid record kind byte 0x{token:02X}"
            )
        if token & _RUN_FLAG:
            length, offset = _read_varint(tokens, offset)
            delta, offset = _read_signed(tokens, offset)
            stride, offset = _read_signed(tokens, offset)
            arg, offset = _read_varint(tokens, offset)
            if not length:
                raise TraceFormatError("corrupt frame: zero-length run")
        else:
            length = 1
            delta, offset = _read_signed(tokens, offset)
            stride = 0
            arg, offset = _read_varint(tokens, offset)
        produced += length
        if produced > record_count:
            raise TraceFormatError(
                f"corrupt frame: decodes past the {record_count} "
                "records its header promised"
            )
        kinds.append(kind)
        counts.append(length)
        args.append(arg)
        first_deltas.append(delta)
        strides.append(stride)
    if produced != record_count:
        raise TraceFormatError(
            f"corrupt frame: decoded {produced} records, "
            f"frame header promised {record_count}"
        )
    try:
        count_column = np.array(counts, dtype=np.int64)
        kind_column = np.repeat(np.array(kinds, dtype=np.uint8), count_column)
        arg_column = np.repeat(np.array(args, dtype=np.int64), count_column)
        increments = np.repeat(np.array(strides, dtype=np.int64), count_column)
        if counts:
            starts = np.cumsum(count_column) - count_column
            increments[starts] = np.array(first_deltas, dtype=np.int64)
        address_column = np.cumsum(increments)
    except OverflowError:
        raise TraceFormatError(
            "corrupt frame: address delta exceeds the columnar engine's "
            "int64 range"
        ) from None
    return RecordColumns(
        kind=kind_column, address=address_column, arg=arg_column
    )


def _decode_frames_fast(streams, record_counts):
    """Vectorized decode of one or more inflated token streams.

    Returns the concatenated :class:`RecordColumns` of every frame, or
    ``None`` for anything irregular — truncated or over-long varints,
    token/frame misalignment, invalid kind bytes, record-count
    mismatches — so the caller can re-run the per-token walk and raise
    its exact diagnostics.  The trick is that *every* unit of the token
    stream — a kind byte (always ``< 0x80``) or a varint — ends at the
    first byte with the continuation bit clear, so one vectorized scan
    splits the whole stream into units and decodes every varint at once;
    only the token-boundary walk (3 or 5 units per token) stays a Python
    loop, one cheap step per token.
    """
    data = streams[0] if len(streams) == 1 else b"".join(streams)
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0 or (raw[-1] & 0x80):
        return None
    # Unit split: every byte with bit 7 clear terminates a unit.
    unit_ends = np.flatnonzero((raw & 0x80) == 0)
    unit_total = unit_ends.size
    unit_starts = np.empty(unit_total, dtype=np.int64)
    unit_starts[0] = 0
    unit_starts[1:] = unit_ends[:-1] + 1
    unit_lengths = unit_ends + 1 - unit_starts
    max_length = int(unit_lengths.max())
    if max_length > 9:
        return None  # a 10+-byte varint would overflow the int64 shifts
    # Varint values: 7-bit groups, little-endian.  Most units are one
    # byte, so start from the lead byte and accumulate the longer units
    # column by column over a rapidly shrinking index set.
    values = (raw[unit_starts] & 0x7F).astype(np.int64)
    if max_length > 1:
        longer = np.flatnonzero(unit_lengths > 1)
        for column in range(1, max_length):
            if column > 1:
                longer = longer[unit_lengths[longer] > column]
            values[longer] |= (
                raw[unit_starts[longer] + column] & 0x7F
            ).astype(np.int64) << (7 * column)
    # Frame boundaries must coincide with unit boundaries.
    if any(len(stream) == 0 for stream in streams):
        return None
    frame_byte_starts = np.zeros(len(streams), dtype=np.int64)
    frame_byte_starts[1:] = np.cumsum(
        [len(stream) for stream in streams[:-1]]
    )
    frame_units = np.searchsorted(unit_starts, frame_byte_starts)
    if (frame_units >= unit_total).any() or (
        unit_starts[frame_units] != frame_byte_starts
    ).any():
        return None
    # Token walk: per frame, tokens span 3 units (plain) or 5 (run).
    # Only the (rare) run tokens are collected; every start position is
    # then reconstructed with one cumulative sum over the step widths.
    values_list = values.tolist()
    run_token_list: list[int] = []
    append = run_token_list.append
    frame_token_counts: list[int] = []
    unit = 0
    token_total = 0
    for limit in frame_units[1:].tolist() + [unit_total]:
        token_count = 0
        while unit < limit:
            if values_list[unit] & _RUN_FLAG:
                append(token_total + token_count)
                unit += 5
            else:
                unit += 3
            token_count += 1
        if unit != limit or token_count == 0:
            return None
        frame_token_counts.append(token_count)
        token_total += token_count
    run_tokens = np.array(run_token_list, dtype=np.int64)
    steps = np.full(token_total, 3, dtype=np.int64)
    steps[run_tokens] = 5
    starts = np.cumsum(steps) - steps
    # The walk's step decisions used decoded unit values; they match the
    # scalar decoder's raw kind bytes only where the kind unit really is
    # a single byte, so multi-byte "kind" units force the fallback.
    kind_bytes = values[starts]
    if ((kind_bytes & ~_RUN_FLAG) > EV_EPOCH).any() or (
        unit_lengths[starts] != 1
    ).any():
        return None
    run_starts = starts[run_tokens]
    counts = np.ones(token_total, dtype=np.int64)
    counts[run_tokens] = values[run_starts + 1]
    if (counts[run_tokens] <= 0).any():
        return None  # a zero-length run is corrupt: the token walk says so
    run_offset = np.zeros(token_total, dtype=np.int64)
    run_offset[run_tokens] = 1
    zigzag = values[starts + 1 + run_offset]
    first_deltas = (zigzag >> 1) ^ -(zigzag & 1)
    strides = np.zeros(token_total, dtype=np.int64)
    zigzag_strides = values[run_starts + 3]
    strides[run_tokens] = (zigzag_strides >> 1) ^ -(zigzag_strides & 1)
    args = values[starts + 2 + 2 * run_offset]
    frame_token_starts = np.zeros(len(streams), dtype=np.int64)
    frame_token_starts[1:] = np.cumsum(frame_token_counts[:-1])
    produced = np.add.reduceat(counts, frame_token_starts)
    if (produced != np.asarray(record_counts, dtype=np.int64)).any():
        return None
    # Expansion: per-record address increments are a token's delta on
    # its first record and the run stride afterwards; the cumulative sum
    # re-bases at every frame boundary (the encoder resets the delta
    # base to 0 per frame).
    kind_column = np.repeat((kind_bytes & ~_RUN_FLAG).astype(np.uint8), counts)
    arg_column = np.repeat(args, counts)
    increments = np.repeat(strides, counts)
    record_starts = np.cumsum(counts) - counts
    increments[record_starts] = first_deltas
    address_column = np.cumsum(increments)
    if len(streams) > 1:
        frame_record_starts = np.cumsum(produced) - produced
        bases = np.zeros(len(streams), dtype=np.int64)
        bases[1:] = address_column[frame_record_starts[1:] - 1]
        address_column = address_column - np.repeat(bases, produced)
    return RecordColumns(
        kind=kind_column, address=address_column, arg=arg_column
    )


# -- streaming writer ---------------------------------------------------------


def _columns(rows):
    """``(kind, address, arg)`` rows as uint8/int64/int64 column arrays."""
    kinds, addresses, args = zip(*rows) if rows else ((), (), ())
    return (
        np.array(kinds, dtype=np.uint8),
        np.array(addresses, dtype=np.int64),
        np.array(args, dtype=np.int64),
    )


class CompressedTraceWriter:
    """Streaming CALTRC02 writer: header, epoch frames, footer last.

    ``target`` is a path or a binary file object (e.g. ``io.BytesIO``).
    Records go in as column arrays; use as a context manager, or call
    :meth:`close` after the footer::

        with CompressedTraceWriter("x.trace", header) as writer:
            writer.extend(kinds, addresses, args)  # uint8/int64 columns
            ...
            writer.set_footer({"records": writer.record_count})

    Frames are cut after every EPOCH record and after
    :data:`MAX_FRAME_RECORDS` records, the open frame carrying over from
    one :meth:`extend` to the next, so the frames do not depend on how
    the stream is split into calls.  :meth:`append` stages one record
    into the same column stream.

    The header is serialised *before* the target is opened, so a
    non-JSON-able header never leaves an empty file or a leaked
    descriptor behind.  Exiting the context on an exception calls
    :meth:`abort` instead of :meth:`close`.
    """

    def __init__(self, target: str | BinaryIO, header: dict):
        self.header = dict(header)
        header_bytes = json.dumps(self.header, sort_keys=True).encode("utf-8")
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.record_count = 0
        self._footer: dict | None = None
        #: The open frame's records, and the rows :meth:`append` staged
        #: after them.
        self._open = _columns([])
        self._staged: list[tuple[int, int, int]] = []
        try:
            self._file.write(MAGIC_V2)
            self._file.write(_HEADER_LEN.pack(len(header_bytes)))
            self._file.write(header_bytes)
        except BaseException:
            if self._owns_file:
                self._file.close()
            raise

    def append(self, kind: int, address: int, arg: int) -> None:
        """Append one record (staged, then written as a column row)."""
        self._staged.append((kind, address, arg))
        self.record_count += 1
        if len(self._staged) >= STAGED_RECORDS:
            self._write(*self._take_staged())

    def extend(self, kinds, addresses, args) -> None:
        """Append the rows of three parallel column arrays, in order.

        Writes every frame the rows close; a negative ``arg`` raises
        :class:`ValueError` (args are unsigned varints)."""
        if self._staged:
            self._write(*self._take_staged())
        self._write(kinds, addresses, args)
        self.record_count += len(kinds)

    def _take_staged(self):
        staged, self._staged = self._staged, []
        return _columns(staged)

    def _write(self, kinds, addresses, args, close_open=False) -> None:
        """Add rows to the open frame; write every frame now closed (the
        open one too when ``close_open``)."""
        if len(args) and int(args.min()) < 0:
            raise ValueError("record arg must be non-negative")
        if len(self._open[0]):
            kinds, addresses, args = (
                np.concatenate((held, new))
                for held, new in zip(self._open, (kinds, addresses, args))
            )
        count = len(kinds)
        limit = MAX_FRAME_RECORDS
        ends = []
        start = 0
        for epoch in np.flatnonzero(kinds == EV_EPOCH).tolist():
            while epoch + 1 - start > limit:
                start += limit
                ends.append(start)
            start = epoch + 1
            ends.append(start)
        while count - start >= limit:
            start += limit
            ends.append(start)
        if close_open and start < count:
            ends.append(count)
        closed = ends[-1] if ends else 0
        self._open = (kinds[closed:], addresses[closed:], args[closed:])
        if not ends:
            return
        starts = [0] + ends[:-1]
        data, bounds = encode_frames(
            kinds[:closed], addresses[:closed], args[:closed],
            np.array(starts, dtype=np.int64),
        )
        parts = []
        for first, end, low, high in zip(
            starts, ends, bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            payload = zlib.compress(data[low:high], COMPRESSION_LEVEL)
            parts.append(
                _FRAME_RECORDS_HEAD.pack(
                    FRAME_RECORDS, end - first, len(payload)
                )
            )
            parts.append(payload)
        self._file.write(b"".join(parts))
        tel = telemetry_active()
        if tel is not None:
            tel.inc("encode_frames_total", len(ends))
            tel.inc("encode_records_total", closed)

    def _flush_frame(self) -> None:
        """Write the open frame (and any staged rows) as one frame."""
        self._write(*self._take_staged(), close_open=True)

    def set_footer(self, footer: dict) -> None:
        """Provide the summary written after the end frame."""
        self._footer = dict(footer)

    def close(self) -> None:
        self._flush_frame()
        footer = json.dumps(self._footer or {}, sort_keys=True)
        footer_bytes = footer.encode("utf-8")
        self._file.write(_FRAME_END_HEAD.pack(FRAME_END, len(footer_bytes)))
        self._file.write(footer_bytes)
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def abort(self) -> None:
        """Close without writing an end frame/footer (error cleanup).

        The file is left deliberately invalid-on-read; callers should
        unlink it.
        """
        self._staged = []
        self._open = _columns([])
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "CompressedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# -- streaming reader side (driven by TraceReader) ----------------------------


def _read_exact(
    file: BinaryIO,
    size: int,
    what: str,
    path: str | None = None,
    offset: int | None = None,
) -> bytes:
    data = file.read(size)
    if len(data) != size:
        raise TraceFormatError(
            f"truncated compressed trace: {what}", path=path, offset=offset
        )
    return data


def _iter_frames(reader: TraceReader) -> Iterator[tuple[int, int, bytes]]:
    """Walk a CALTRC02 reader's frames: ``(frame_offset, records, payload)``.

    The one frame walker, under both columnar decoding and
    :func:`frame_stats`: reads each record frame's header + compressed
    payload, parses the terminator frame's footer into
    ``reader.footer``, and attributes truncation/corruption to the
    offending frame's byte offset.  Payload decoding is the caller's
    business.
    """
    file = reader._file
    path = reader.path
    position = reader.data_offset  # offset of the next frame's type byte
    while True:
        frame_start = position
        type_byte = file.read(1)
        if not type_byte:
            raise reader.error(
                "compressed trace ends without a terminator frame",
                offset=frame_start,
            )
        frame_type = type_byte[0]
        if frame_type == FRAME_RECORDS:
            head = _read_exact(
                file, _FRAME_RECORDS_HEAD.size - 1, "frame header",
                path=path, offset=frame_start,
            )
            record_count, payload_length = struct.unpack("<II", head)
            payload = _read_exact(
                file, payload_length, "frame payload",
                path=path, offset=frame_start,
            )
            position = frame_start + _FRAME_RECORDS_HEAD.size + payload_length
            yield frame_start, record_count, payload
        elif frame_type == FRAME_END:
            head = _read_exact(
                file, _FRAME_END_HEAD.size - 1, "footer length",
                path=path, offset=frame_start,
            )
            (footer_length,) = struct.unpack("<I", head)
            footer_bytes = _read_exact(
                file, footer_length, "footer", path=path, offset=frame_start
            )
            try:
                reader.footer = json.loads(footer_bytes)
            except ValueError as error:
                raise reader.error(
                    f"corrupt trace footer JSON: {error}", offset=frame_start
                ) from None
            return
        else:
            raise reader.error(
                f"corrupt compressed trace: unknown frame type "
                f"0x{frame_type:02X}",
                offset=frame_start,
            )


#: Records accumulated before one grouped columnar decode.  Epoch frames
#: are a few hundred records each; decoding a group of them as one
#: vectorized pass amortises the array-op overhead that would otherwise
#: dominate per-frame columns.
FRAME_GROUP_RECORDS = 1 << 18


def _decode_group(reader, group):
    """Decode a list of ``(frame_start, record_count, payload)`` frames
    into one concatenated :class:`RecordColumns`, or — when the fast
    path declines — per-frame token-walk columns with the standard
    located errors."""
    path = reader.path
    streams = []
    for frame_start, _, payload in group:
        try:
            streams.append(zlib.decompress(payload))
        except zlib.error as error:
            raise TraceFormatError(f"corrupt frame: {error}").located(
                path, frame_start
            ) from None
    columns = _decode_frames_fast(
        streams, [record_count for _, record_count, _ in group]
    )
    tel = telemetry_active()
    if tel is not None:
        tel.inc("decode_frames_total", len(group))
        tel.inc(
            "decode_records_total",
            sum(record_count for _, record_count, _ in group),
        )
        if columns is None:
            tel.inc("decode_scalar_fallback_total", len(group))
    if columns is not None:
        return columns
    parts = []
    for (frame_start, record_count, _), tokens in zip(group, streams):
        try:
            parts.append(
                _decode_frame_columns_tokens(tokens, record_count)
            )
        except TraceFormatError as error:
            raise error.located(path, frame_start) from None
    return RecordColumns(
        kind=np.concatenate([part.kind for part in parts]),
        address=np.concatenate([part.address for part in parts]),
        arg=np.concatenate([part.arg for part in parts]),
    )


def iter_compressed_columns(reader: TraceReader):
    """Columnar frame iterator: one
    :class:`~repro.traces.format.RecordColumns` per *group* of record
    frames (up to :data:`FRAME_GROUP_RECORDS` records).

    The CALTRC02 side of :meth:`TraceReader.column_batches`: populates
    ``reader.footer`` when the end frame is reached, and locates every
    error at the offending frame's byte offset in the reader's file.
    Batch boundaries are a decoding artifact — consumers see the
    identical concatenated record stream whatever the grouping.
    """
    group: list[tuple[int, int, bytes]] = []
    pending = 0
    for frame_start, record_count, payload in _iter_frames(reader):
        group.append((frame_start, record_count, payload))
        pending += record_count
        if pending >= FRAME_GROUP_RECORDS:
            yield _decode_group(reader, group)
            group = []
            pending = 0
    if group:
        yield _decode_group(reader, group)


# -- frame statistics (no decompression) --------------------------------------


def frame_stats(path: str) -> list[tuple[int, int]]:
    """Per-frame ``(records, compressed_payload_bytes)`` of a CALTRC02
    file, from the frame walk alone — no decompression, so ``trace
    info`` stays cheap on big traces."""
    with TraceReader(path) as reader:
        if reader.version != 2:
            raise TraceFormatError(
                f"{path} is not a compressed (CALTRC02) trace"
            )
        return [
            (record_count, len(payload))
            for _, record_count, payload in _iter_frames(reader)
        ]


def compression_summary(path: str, records: int) -> dict:
    """Ratio + frame aggregates for ``trace info`` (CALTRC02 only)."""
    frames = frame_stats(path)
    payload_bytes = sum(size for _, size in frames)
    raw_bytes = records * RECORD_SIZE
    per_frame = [count for count, _ in frames]
    return {
        "frames": len(frames),
        "payload_bytes": payload_bytes,
        "raw_record_bytes": raw_bytes,
        "ratio": (raw_bytes / payload_bytes) if payload_bytes else float("inf"),
        "records_per_frame_min": min(per_frame) if per_frame else 0,
        "records_per_frame_max": max(per_frame) if per_frame else 0,
        "records_per_frame_avg": (records / len(frames)) if frames else 0.0,
        "frame_detail": frames,
    }


# -- transcoding --------------------------------------------------------------


def transcode(source, target) -> int:
    """Stream any-version ``source`` into ``target`` as CALTRC02.

    Preserves the header (with ``format`` updated), every record, and the
    footer byte-for-byte in JSON terms, so the canonical identity — and
    every replay statistic — is unchanged.  Returns the record count.
    """
    with TraceReader(source) as reader:
        header = dict(reader.header)
        if "format" in header:
            header["format"] = MAGIC_V2.decode("ascii")
        with CompressedTraceWriter(target, header) as writer:
            for batch in reader.column_batches():
                writer.extend(batch.kind, batch.address, batch.arg)
            writer.set_footer(reader.footer)
    return writer.record_count
