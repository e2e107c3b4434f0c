"""Per-record oracles for the columnar replayer and the corpus digest.

Replays a trace one ``(kind, address, arg)`` record at a time through
the per-access reference classes — a ``TagOnlyCache`` ladder for
timing mode, :meth:`MemoryHierarchy.replay_trace` for hierarchy mode,
``MultiCoreHierarchy`` for shared-L3 replay (both from
``tests/cache_oracle.py``) — and returns the same
accounting types as :mod:`repro.traces.replayer`, so the differential
suite compares the two with plain ``==``.

The semantics pinned here are the replayer's documented ones:

* a LOAD/STORE record is one touch at its address; a CFORM record is
  ``arg`` touches at ``address + i * 64``; every other kind is none;
* EV_WARM resets every counter (contents stay warm) in a whole recorded
  trace and is ignored in a shard file (region semantics);
* multi-core streams interleave round-robin per record, core 0 first,
  and core ``c`` presents its addresses offset by ``c << 44`` (disjoint
  physical spaces for co-runners recorded in one synthetic space).

:func:`iter_records` is the per-record reference decoder the
columnar reader (:meth:`TraceReader.column_batches`) is compared
against: the CALTRC01 struct loop, and :func:`decode_frame` for each
CALTRC02 frame.  :func:`encode_frame` is the per-record reference
encoder (the greedy token walk) the columnar frame encoder
(:func:`repro.traces.compress.encode_frames`) is compared against, and
:func:`frames` cuts a record list into CALTRC02 frames the way the
writer does.  :func:`encode_v1` is the CALTRC01 serialisation one
``struct`` record at a time — the canonical form the corpus hashes, and
the way the tests obtain v1 files now that nothing in ``src/`` writes
them; :func:`canonical_digest_records` is the per-record twin of
:func:`repro.corpus.store.canonical_digest` built on it.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

from cache_oracle import MultiCoreHierarchy, TagOnlyCache

from repro.core.cform import CformRequest
from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.hierarchy import MemoryHierarchy, amat_cycles
from repro.traces.compress import (
    _RUN_FLAG,
    COMPRESSION_LEVEL,
    MIN_RUN,
    _iter_frames,
    _read_signed,
    _read_varint,
)
from repro.traces.format import (
    EV_ALLOC,
    EV_CFORM,
    EV_END,
    EV_EPOCH,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    MAGIC,
    RECORD,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
    read_header,
)
from repro.traces.replayer import (
    CFORM_REPLAY_OFFSETS,
    MergedReplay,
    MulticoreReplay,
    ShardStats,
    _config_from_header,
)

#: Ops accumulated before one ``replay_trace`` batch in hierarchy mode
#: (a pure buffering choice: the hierarchy evolves in record order).
HIERARCHY_BATCH_OPS = 2048

#: Per-core physical-address stride of shared-L3 replay.
CORE_ADDRESS_STRIDE = 1 << 44

#: Records per read of the CALTRC01 struct loop (a multiple of the
#: record size, so chunk boundaries never split a record).
V1_CHUNK_RECORDS = 8192


# -- per-record encode --------------------------------------------------------


def _append_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_signed(out: bytearray, value: int) -> None:
    _append_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def encode_tokens(records: list[tuple[int, int, int]]) -> bytes:
    """Tokenise one frame's records (delta base starts at 0) by the
    greedy walk: at each record, the longest same-kind, same-arg,
    constant-stride stretch starting there becomes one run token when it
    spans ``MIN_RUN`` records or more, else the record is one plain
    token."""
    tokens = bytearray()
    previous = 0
    count = len(records)
    index = 0
    while index < count:
        kind, address, arg = records[index]
        # Probe for a constant-stride run of the same kind and arg.
        run = index + 1
        if run < count and records[run][0] == kind and records[run][2] == arg:
            stride = records[run][1] - address
            expected = records[run][1]
            while run < count:
                candidate = records[run]
                if (
                    candidate[0] != kind
                    or candidate[2] != arg
                    or candidate[1] != expected
                ):
                    break
                expected += stride
                run += 1
        length = run - index
        if length >= MIN_RUN:
            tokens.append(kind | _RUN_FLAG)
            _append_varint(tokens, length)
            _append_signed(tokens, address - previous)
            _append_signed(tokens, records[run - 1][1] - records[run - 2][1])
            _append_varint(tokens, arg)
            previous = records[run - 1][1]
            index = run
        else:
            tokens.append(kind)
            _append_signed(tokens, address - previous)
            _append_varint(tokens, arg)
            previous = address
            index += 1
    return bytes(tokens)


def encode_frame(records: list[tuple[int, int, int]]) -> bytes:
    """Tokenise + deflate one frame's records."""
    return zlib.compress(encode_tokens(records), COMPRESSION_LEVEL)


def frames(records, max_frame_records: int) -> list[list[tuple]]:
    """Cut a record list into frames one record at a time: a frame closes
    after an EPOCH record or on reaching ``max_frame_records`` records;
    the trailing open frame closes at the end."""
    cut: list[list[tuple[int, int, int]]] = []
    frame: list[tuple[int, int, int]] = []
    for record in records:
        frame.append(record)
        if record[0] == EV_EPOCH or len(frame) >= max_frame_records:
            cut.append(frame)
            frame = []
    if frame:
        cut.append(frame)
    return cut


# -- per-record decode --------------------------------------------------------


def decode_frame(payload: bytes, record_count: int):
    """Inflate + de-tokenise one CALTRC02 frame; yields exactly
    ``record_count`` ``(kind, address, arg)`` tuples, in Python ints."""
    try:
        tokens = zlib.decompress(payload)
    except zlib.error as error:
        raise TraceFormatError(f"corrupt frame: {error}") from None
    offset = 0
    end = len(tokens)
    previous = 0
    produced = 0
    while offset < end:
        token = tokens[offset]
        offset += 1
        kind = token & ~_RUN_FLAG
        if kind > EV_EPOCH:
            # Fail before yielding anything downstream: a corrupt kind
            # byte must not be masked into a plausible record.
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
            produced += length
            if produced > record_count:
                raise TraceFormatError(
                    f"corrupt frame: decodes past the {record_count} "
                    "records its header promised"
                )
            address = previous + delta
            for _ in range(length):
                yield kind, address, arg
                address += stride
            previous = address - stride
        else:
            delta, offset = _read_signed(tokens, offset)
            arg, offset = _read_varint(tokens, offset)
            produced += 1
            if produced > record_count:
                raise TraceFormatError(
                    f"corrupt frame: decodes past the {record_count} "
                    "records its header promised"
                )
            previous += delta
            yield kind, previous, arg
    if produced != record_count:
        raise TraceFormatError(
            f"corrupt frame: decoded {produced} records, "
            f"frame header promised {record_count}"
        )


def _iter_records_v1(reader: TraceReader):
    chunk_bytes = V1_CHUNK_RECORDS * RECORD_SIZE
    unpack_from = RECORD.unpack_from
    pending = b""
    position = reader.data_offset  # file offset of the next record
    while True:
        chunk = pending + reader._file.read(chunk_bytes)
        if not chunk:
            raise reader.error(
                "trace ends without a terminator record", offset=position
            )
        usable = len(chunk) - (len(chunk) % RECORD_SIZE)
        for offset in range(0, usable, RECORD_SIZE):
            kind, address, arg = unpack_from(chunk, offset)
            if kind == EV_END:
                tail = chunk[offset + RECORD_SIZE :]
                reader._read_footer_bytes(
                    arg, tail, position + offset + RECORD_SIZE
                )
                return
            yield kind, address, arg
        pending = chunk[usable:]
        position += usable
        if usable == 0:
            raise reader.error("truncated trace record", offset=position)


def iter_records(reader: TraceReader):
    """Yield a reader's ``(kind, address, arg)`` records one at a time
    and populate ``reader.footer`` (the reader must be fresh: this
    iterates the file, not :meth:`TraceReader.column_batches`)."""
    if reader.version == 1:
        yield from _iter_records_v1(reader)
        return
    for frame_start, record_count, payload in _iter_frames(reader):
        try:
            yield from decode_frame(payload, record_count)
        except TraceFormatError as error:
            raise error.located(reader.path, frame_start) from None


def rows(batches) -> list[tuple[int, int, int]]:
    """The ``(kind, address, arg)`` tuples of column batches, in order."""
    return [
        row
        for batch in batches
        for row in zip(
            batch.kind.tolist(), batch.address.tolist(), batch.arg.tolist()
        )
    ]


def read_records(source) -> list[tuple[int, int, int]]:
    """Every record of a trace file or buffer, through :func:`iter_records`."""
    with TraceReader(source) as reader:
        return list(iter_records(reader))


# -- CALTRC01 encode ----------------------------------------------------------


def encode_v1(header: dict, records, footer: dict) -> bytes:
    """A CALTRC01 file: header, one ``RECORD`` struct per record, the
    terminator, then the footer."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    parts.extend(RECORD.pack(*record) for record in records)
    parts.append(RECORD.pack(EV_END, 0, len(footer_bytes)))
    parts.append(footer_bytes)
    return b"".join(parts)


def canonical_v1(source) -> tuple[bytes, dict]:
    """The canonical CALTRC01 bytes of any trace — its records and footer
    re-serialised by :func:`encode_v1`, header ``format`` normalised —
    and its footer."""
    with TraceReader(source) as reader:
        header = dict(reader.header)
        if "format" in header:
            header["format"] = MAGIC.decode("ascii")
        records = list(iter_records(reader))
        return encode_v1(header, records, reader.footer), reader.footer


def write_v1(source, target: str) -> str:
    """Write the CALTRC01 twin of ``source`` to the path ``target``."""
    with open(target, "wb") as handle:
        handle.write(canonical_v1(source)[0])
    return target


class _Tally:
    """The record-derived counters every replay mode reports."""

    def __init__(self):
        self.touches = 0
        self.cform_lines = 0
        self.alloc_events = 0

    def touch_addresses(self, kind: int, address: int, arg: int) -> list[int]:
        """Count one record; return the addresses it touches."""
        if kind == EV_LOAD or kind == EV_STORE:
            self.touches += 1
            return [address]
        if kind == EV_CFORM:
            self.touches += arg
            self.cform_lines += arg
            return [address + index * 64 for index in range(arg)]
        if kind == EV_ALLOC:
            self.alloc_events += 1
        elif kind > EV_EPOCH:
            raise TraceFormatError(f"unknown record kind {kind}")
        return []

    def stats(self, events: MemoryEventCounts, violations: int, cycles: int):
        return ShardStats(
            events=events,
            touches=self.touches,
            cform_lines=self.cform_lines,
            alloc_events=self.alloc_events,
            violations=violations,
            amat_cycles=cycles,
        )


def ladder_stats(records, config, honor_warm: bool = True) -> ShardStats:
    """Timing accounting of a ``(kind, address, arg)`` record stream fed
    one record at a time through a cold per-access ``TagOnlyCache``
    ladder."""
    ladder = [
        TagOnlyCache(geometry)
        for geometry in (
            config.l1_geometry, config.l2_geometry, config.l3_geometry
        )
    ]
    tally = _Tally()
    for kind, address, arg in records:
        if kind == EV_WARM and honor_warm:
            for level in ladder:
                level.reset_counters()
            tally = _Tally()
        for touch in tally.touch_addresses(kind, address, arg):
            for level in ladder:
                if level.access(touch):
                    break
    l1, l2, l3 = ladder
    events = MemoryEventCounts(
        l1_accesses=l1.accesses,
        l1_misses=l1.misses,
        l2_misses=l2.misses,
        l3_misses=l3.misses,
    )
    return tally.stats(
        events,
        violations=0,
        cycles=amat_cycles(
            config, l1.accesses, l1.misses, l2.misses, l3.misses
        ),
    )


def timing_stats(source, honor_warm: bool = True) -> ShardStats:
    """Timing replay through a cold per-access ``TagOnlyCache`` ladder."""
    with TraceReader(source) as reader:
        config = _config_from_header(reader.header)
        stats = ladder_stats(iter_records(reader), config, honor_warm)
        reader.read_footer()
    return stats


def hierarchy_stats(source, honor_warm: bool = True) -> ShardStats:
    """Hierarchy replay through batched ``MemoryHierarchy.replay_trace``."""
    with TraceReader(source) as reader:
        hierarchy = MemoryHierarchy(_config_from_header(reader.header))
        ops: list[tuple] = []
        violations = 0
        tally = _Tally()
        for kind, address, arg in iter_records(reader):
            if kind == EV_WARM and honor_warm:
                violations += hierarchy.replay_trace(ops)
                ops = []
                hierarchy.reset_stats()
                violations = 0
                tally = _Tally()
            touches = tally.touch_addresses(kind, address, arg)
            if kind == EV_LOAD:
                ops.append(("L", address, arg))
            elif kind == EV_STORE:
                ops.append(("S", address, bytes([address & 0xFF]) * arg))
            elif kind == EV_CFORM:
                violations += hierarchy.replay_trace(ops)
                ops = []
                for touch in touches:
                    line_address = touch & ~63
                    # Object churn re-califorms reused lines; setting an
                    # already-set byte is an architectural usage error,
                    # so only the still-clear offsets are set.
                    current = hierarchy.secmask_of(line_address)
                    wanted = [
                        offset
                        for offset in CFORM_REPLAY_OFFSETS
                        if not (current >> offset) & 1
                    ]
                    if wanted:
                        hierarchy.cform(
                            CformRequest.set_bytes(line_address, wanted)
                        )
            if len(ops) >= HIERARCHY_BATCH_OPS:
                violations += hierarchy.replay_trace(ops)
                ops = []
        violations += hierarchy.replay_trace(ops)
        reader.read_footer()
    events = MemoryEventCounts(
        l1_accesses=hierarchy.l1.stats.accesses,
        l1_misses=hierarchy.l1.stats.misses,
        l2_misses=hierarchy.l2.stats.misses,
        l3_misses=hierarchy.l3.stats.misses,
    )
    return tally.stats(events, violations, hierarchy.total_cycles())


def replay_shards(shard_paths: list, mode: str = "timing") -> MergedReplay:
    """Region replay of every shard (warm markers ignored), summed."""
    replay = {"timing": timing_stats, "hierarchy": hierarchy_stats}[mode]
    results = [replay(path, honor_warm=False) for path in shard_paths]
    merged = results[0]
    for stats in results[1:]:
        merged = merged.merged_with(stats)
    return MergedReplay(shards=len(results), stats=merged)


def _core_records(sources):
    """One core's concatenated stream as ``(kind, address, arg, honor_warm)``."""
    for source in sources:
        with TraceReader(source) as reader:
            honor_warm = "shard" not in reader.header
            for kind, address, arg in iter_records(reader):
                yield kind, address, arg, honor_warm
            reader.read_footer()


def replay_multicore(core_sources: list, config=None) -> MulticoreReplay:
    """Shared-L3 replay fed round-robin, one record per core per turn."""
    core_sources = [
        list(entry) if isinstance(entry, (list, tuple)) else [entry]
        for entry in core_sources
    ]
    if config is None:
        config = _config_from_header(read_header(core_sources[0][0]))
    cores = len(core_sources)
    hierarchy = MultiCoreHierarchy(config, cores)
    tallies = [_Tally() for _ in range(cores)]
    active = [
        (core, _core_records(sources))
        for core, sources in enumerate(core_sources)
    ]
    while active:
        still_active = []
        for core, stream in active:
            record = next(stream, None)
            if record is None:
                continue
            still_active.append((core, stream))
            kind, address, arg, honor_warm = record
            if kind == EV_WARM and honor_warm:
                hierarchy.reset_core_counters(core)
                tallies[core] = _Tally()
            offset = core * CORE_ADDRESS_STRIDE
            for touch in tallies[core].touch_addresses(kind, address, arg):
                hierarchy.access(core, touch + offset)
        active = still_active
    per_core = tuple(
        tallies[core].stats(
            hierarchy.core_events(core),
            violations=0,
            cycles=hierarchy.core_cycles(core),
        )
        for core in range(cores)
    )
    merged = per_core[0]
    for stats in per_core[1:]:
        merged = merged.merged_with(stats)
    return MulticoreReplay(cores=cores, per_core=per_core, merged=merged)


def canonical_digest_records(source) -> tuple[str, int, dict]:
    """sha256, length and footer of the canonical CALTRC01 stream,
    serialised record by record through :func:`encode_v1`."""
    data, footer = canonical_v1(source)
    return hashlib.sha256(data).hexdigest(), len(data), footer
