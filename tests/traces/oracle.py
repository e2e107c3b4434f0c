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

:func:`canonical_digest_records` is the per-record twin of
:func:`repro.corpus.store.canonical_digest`: the canonical CALTRC01
stream packed one ``struct`` record at a time.
"""

from __future__ import annotations

import hashlib
import json
import struct

from cache_oracle import MultiCoreHierarchy, TagOnlyCache

from repro.core.cform import CformRequest
from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.hierarchy import MemoryHierarchy, amat_cycles
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
        stats = ladder_stats(reader.records(), config, honor_warm)
        reader.read_footer()
    return stats


def hierarchy_stats(source, honor_warm: bool = True) -> ShardStats:
    """Hierarchy replay through batched ``MemoryHierarchy.replay_trace``."""
    with TraceReader(source) as reader:
        hierarchy = MemoryHierarchy(_config_from_header(reader.header))
        ops: list[tuple] = []
        violations = 0
        tally = _Tally()
        for kind, address, arg in reader.records():
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
            for kind, address, arg in reader.records():
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
    serialised record by record through ``RECORD.pack``."""
    digest = hashlib.sha256()
    length = 0

    def feed(data: bytes) -> None:
        nonlocal length
        digest.update(data)
        length += len(data)

    with TraceReader(source) as reader:
        header = dict(reader.header)
        if "format" in header:
            header["format"] = MAGIC.decode("ascii")
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        feed(MAGIC)
        feed(struct.pack("<I", len(header_bytes)))
        feed(header_bytes)
        pack = RECORD.pack
        for kind, address, arg in reader.records():
            feed(pack(kind, address, arg))
        footer = reader.read_footer()
        footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
        feed(pack(EV_END, 0, len(footer_bytes)))
        feed(footer_bytes)
    return digest.hexdigest(), length, footer
