"""Batched tag-hierarchy kernel: column arrays in, exact LRU stats out.

Every cache-timing statistic is computed here, live or replayed.  The
trace layer decodes whole epochs into parallel numpy arrays
(:class:`repro.traces.format.RecordColumns`); the live drivers append
one ``EV_*`` record at a time to a :class:`LadderStream`, which buffers
them into the same columns.  Either way the kernel resolves a whole
block of accesses in whole-array passes, instead of walking one access
at a time through a per-access tag-array ladder.

Exactness is the design constraint, not an aspiration: every statistic a
kernel produces is **bit-identical** to a per-access LRU tag-array
ladder's.  That per-access ladder lives on only as the test oracle
(``tests/cache_oracle.py``) the kernel is tested against
(``tests/memory/test_kernel.py``, the per-record replay oracle
``tests/traces/oracle.py`` and the live-driver differential tests in
``tests/traces/test_live_stream.py``), and ``replay_timing``
verifies replayed counts against recorded footers.
Two facts make a block-at-a-time resolution exact:

* cache **sets are independent**: an access only reads and writes its
  own set's state, so grouping a block by set (stably, keeping each
  set's accesses in stream order) changes no outcome;
* LRU is a **stack algorithm** (Mattson et al., "Evaluation techniques
  for storage hierarchies", IBM Systems Journal, 1970): an access hits
  iff fewer than ``ways`` distinct lines of its set were touched since
  the previous access to its line.  A set's whole state is therefore
  its last ``ways`` distinct lines in recency order — which is what
  :class:`LruTagKernel` stores — and replaying them ahead of the set's
  next block rebuilds it exactly.

So each block costs two sorts, previous/next-occurrence indices, and a
short backward scan for the reuse windows longer than ``ways``; no
per-access or per-set Python loop is left.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig

#: The trace event kinds, as the kernel's own vocabulary.  These mirror
#: the ``EV_*`` constants of :mod:`repro.workloads.generator` (re-exported
#: by :mod:`repro.traces.format`); the memory layer cannot import the
#: workload engine without an import cycle, and the codes are frozen by
#: the trace container magic anyway.  A unit test pins the two sets to
#: each other so they cannot drift.
KIND_LOAD = 0
KIND_STORE = 1
KIND_ALLOC = 2
KIND_FREE = 3
KIND_CFORM = 4
KIND_WARM = 5
KIND_EPOCH = 6

#: Byte stride of one CFORM line touch during replay (the trace format
#: defines CFORM expansion as ``address + i * 64`` regardless of the
#: simulated geometry's line size).
CFORM_LINE_STRIDE = 64


#: Sentinel stored in the line slot of an empty way.  No address can
#: floor-divide (line size ≥ 2) to the int64 minimum, so it never
#: matches a real line.
_EMPTY_LINE = int(np.iinfo(np.int64).min)

#: Cells of one backward-scan position matrix (queries × chunk): bounds
#: the scan's temporaries whatever the block size.
_SCAN_CELLS = 1 << 15


def _occurrences(values):
    """``argsort(values, kind="stable")`` plus, per adjacent pair of the
    sorted order, whether the two values are equal.

    When ``(value - min) << bits(len)`` fits an int64, the index rides in
    the low bits of one composite key, and a plain (SIMD) sort does the
    work of a stable argsort several times faster.
    """
    bits = len(values).bit_length()
    low = values.min()
    if int(values.max()) - int(low) < 1 << (62 - bits):
        keys = values - low
        keys <<= bits
        keys |= np.arange(len(values))
        keys.sort()
        order = keys & ((1 << bits) - 1)
        keys >>= bits
        return order, keys[1:] == keys[:-1]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    return order, ordered[1:] == ordered[:-1]


class LruTagKernel:
    """Batched LRU tag array: one set-associative cache level.

    Same geometry, counters and LRU decisions as a per-access tag array
    (the per-access test oracle) — but accessed a column of addresses
    at a time.  State is one ``(num_sets, associativity)`` array of
    resident lines in **recency order**: each row runs from its least
    recently used line to its most recently used one in the last column,
    with empty ways (:data:`_EMPTY_LINE`) padding the left end.  The
    order itself is the LRU state, so no timestamps are kept.
    """

    __slots__ = (
        "geometry", "accesses", "hits", "misses",
        "scan_chunks", "multi_chunk_accesses",
        "_line_size", "_num_sets", "_ways", "_set_dtype", "_rows",
    )

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._ways = geometry.associativity
        # uint16 set ids let the stable set sort run as a radix sort.
        self._set_dtype = (
            np.uint16 if geometry.num_sets <= 1 << 16 else np.int64
        )
        self._rows = np.full(
            (geometry.num_sets, geometry.associativity),
            _EMPTY_LINE,
            dtype=np.int64,
        )
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        #: Instrumentation (telemetry's ``kernel_rounds_total`` and
        #: ``kernel_tail_accesses_total``): cumulative backward-scan chunk
        #: iterations, and accesses whose reuse window needed more than
        #: one chunk.  Int adds per scan; kept unconditional.
        self.scan_chunks = 0
        self.multi_chunk_accesses = 0

    def access_block(self, addresses):
        """Touch every address in order; return the miss mask.

        ``addresses`` is an int64 array; the returned boolean array marks
        the accesses that missed this level (the residual stream a lower
        level must see, in order).  Counters update exactly as ``len(
        addresses)`` sequential per-access lookups would.

        Exact LRU from stack distances (Mattson et al., "Evaluation
        techniques for storage hierarchies", 1970), in one pass:

        1. each touched set's resident lines, oldest first, are
           prepended to that set's accesses (replaying them into an
           empty set rebuilds its entry state exactly), and the whole
           stream is stably grouped by set;
        2. a repeat of the previous entry of the same set is a hit on
           its MRU way that changes nothing, and is dropped;
        3. a stable sort by line gives every entry its line's previous
           and next occurrence.  Access ``j`` whose line last occurred
           at ``p`` hits iff fewer than ``ways`` positions in ``(p, j)``
           have their next occurrence after ``j`` — one per distinct
           line touched in between.  A line with no previous occurrence
           misses.  A window shorter than ``ways`` hits outright, and one
           holding ``ways`` entries that are their line's last use in
           the block (distinct lines by definition) misses outright;
           :meth:`_scan` counts the rest;
        4. each touched set's new row is its last ``ways`` distinct
           lines, in order of last use.
        """
        n = len(addresses)
        self.accesses += n
        miss_mask = np.zeros(n, dtype=bool)
        if n == 0:
            return miss_mask
        rows = self._rows
        ways = self._ways
        lines = addresses // self._line_size
        # Consecutive repeats of one line are a subset of step 2;
        # dropping them first shrinks every sort.
        work = np.empty(n, dtype=bool)
        work[0] = True
        np.not_equal(lines[1:], lines[:-1], out=work[1:])
        work_idx = np.flatnonzero(work)
        work_lines = lines[work_idx]
        work_sets = (work_lines % self._num_sets).astype(self._set_dtype)
        # Step 1: entries below ``prefix`` (pre-sort) are resident lines.
        touched = np.flatnonzero(np.bincount(work_sets))
        resident = rows[touched]
        live = resident != _EMPTY_LINE
        prefix = int(np.count_nonzero(live))
        sets = np.concatenate((
            np.broadcast_to(
                touched.astype(self._set_dtype)[:, None], live.shape
            )[live],
            work_sets,
        ))
        order = np.argsort(sets, kind="stable")
        stream = np.concatenate((resident[live], work_lines))[order]
        # Step 2: a line pins its set, so equal neighbours share a set.
        keep = np.empty(len(stream), dtype=bool)
        keep[0] = True
        np.not_equal(stream[1:], stream[:-1], out=keep[1:])
        if not keep.all():
            order = order[keep]
            stream = stream[keep]
        m = len(stream)
        # Step 3: reuse pairs (earlier, later) of each line, in order.
        by_line, same = _occurrences(stream)
        earlier = by_line[:-1][same]
        later = by_line[1:][same]
        following = np.full(m, m, dtype=np.int64)
        following[earlier] = later
        final = following == m  # last use in the block
        hit = np.zeros(m, dtype=bool)
        near = later - earlier <= ways
        hit[later[near]] = True
        if not near.all():
            queries = later[~near]
            starts = earlier[~near]
            finals = np.cumsum(final)
            open_ = finals[queries - 1] - finals[starts] < ways
            hit[queries[open_]] = self._scan(
                queries[open_], starts[open_], following
            )
        missed = order[~hit]
        missed = missed[missed >= prefix]
        miss_mask[work_idx[missed - prefix]] = True
        self.misses += len(missed)
        self.hits += n - len(missed)
        # Step 4: per set, the last ``ways`` lines not used again.
        last = np.flatnonzero(final)
        last_sets = sets[order[last]]
        group_end = np.empty(len(last), dtype=bool)
        group_end[-1] = True
        np.not_equal(last_sets[1:], last_sets[:-1], out=group_end[:-1])
        ends = np.flatnonzero(group_end)
        depth = np.repeat(ends, np.diff(ends, prepend=-1))
        depth -= np.arange(len(last))
        kept = depth < ways
        rows[touched] = _EMPTY_LINE
        rows[last_sets[kept], ways - 1 - depth[kept]] = stream[last[kept]]
        return miss_mask

    def _scan(self, queries, starts, following):
        """Hit flags of long reuse windows.

        Query ``k`` hits iff fewer than ``ways`` positions in
        ``(starts[k], queries[k])`` have a ``following`` occurrence
        after ``queries[k]``.  The windows are scanned backwards from
        their end, ``2 * ways`` positions per chunk, and a query drops
        out as soon as it has counted ``ways`` (a miss) or exhausted its
        window (a hit).  Queries run in slices, so each position matrix
        holds at most :data:`_SCAN_CELLS` cells.
        """
        ways = self._ways
        chunk = 2 * ways
        offsets = np.arange(1, chunk + 1)
        hit = np.zeros(len(queries), dtype=bool)
        step = max(1, _SCAN_CELLS // chunk)
        for first in range(0, len(queries), step):
            index = np.arange(first, min(first + step, len(queries)))
            ends = queries[index]
            floors = starts[index]
            seen = np.zeros(len(index), dtype=np.int64)
            depth = 0
            while index.size:
                self.scan_chunks += 1
                if depth == chunk:
                    self.multi_chunk_accesses += len(index)
                window = ends[:, None] - depth - offsets
                # Clamped to the window's start, whose next occurrence is
                # the query itself: it never counts.
                np.maximum(window, floors[:, None], out=window)
                seen += np.count_nonzero(
                    following[window] > ends[:, None], axis=1
                )
                depth += chunk
                undecided = seen < ways
                exhausted = ends - depth <= floors + 1
                hit[index[undecided & exhausted]] = True
                undecided &= ~exhausted
                index = index[undecided]
                ends = ends[undecided]
                floors = floors[undecided]
                seen = seen[undecided]
        return hit

    def reset_counters(self) -> None:
        """Zero the counters, keep the tag contents warm (end of warmup)."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0


class LadderKernel:
    """A stack of :class:`LruTagKernel` levels filtering a touch stream.

    ``levels=3`` is the single-core L1→L2→L3 ladder (timing replay);
    ``levels=2`` is a multi-core private L1+L2 ladder whose residual —
    the shared-L3 request stream — the caller collects via the returned
    indices.
    """

    __slots__ = ("config", "l1", "l2", "l3")

    def __init__(self, config: HierarchyConfig, levels: int = 3):
        if levels not in (2, 3):
            raise ValueError("LadderKernel supports 2 or 3 levels")
        self.config = config
        self.l1 = LruTagKernel(config.l1_geometry)
        self.l2 = LruTagKernel(config.l2_geometry)
        self.l3 = LruTagKernel(config.l3_geometry) if levels == 3 else None

    def touch_block(self, addresses):
        """Run one touch column through the ladder, top to bottom.

        Returns the indices (into ``addresses``) of the touches that
        missed every level of this ladder, in stream order — empty for a
        3-level ladder's caller to ignore, the shared-L3 request stream
        for a 2-level one.
        """
        indices = np.flatnonzero(self.l1.access_block(addresses))
        for level in (self.l2, self.l3):
            if level is None:
                break
            if indices.size == 0:
                return indices
            indices = indices[np.flatnonzero(level.access_block(addresses[indices]))]
        return indices

    def reset_counters(self) -> None:
        self.l1.reset_counters()
        self.l2.reset_counters()
        if self.l3 is not None:
            self.l3.reset_counters()

    @property
    def levels(self) -> tuple:
        """The live kernel levels as ``(name, kernel)`` pairs."""
        pairs = [("l1", self.l1), ("l2", self.l2)]
        if self.l3 is not None:
            pairs.append(("l3", self.l3))
        return tuple(pairs)


def expand_touches(kinds, addresses, args):
    """Expand one record column into its cache-touch column.

    LOAD/STORE records contribute one touch at their address; CFORM
    records contribute ``arg`` touches at ``address + i * 64`` (the
    format's replay expansion); ALLOC/FREE/WARM/EPOCH contribute none.
    Returns ``(touch_addresses, counts)`` where ``counts`` holds each
    record's touch count — ``np.repeat(per_record_value, counts)``
    carries any per-record annotation (e.g. a multi-core slot) onto the
    touch column.
    """
    counts = np.zeros(len(kinds), dtype=np.int64)
    counts[(kinds == KIND_LOAD) | (kinds == KIND_STORE)] = 1
    cform = kinds == KIND_CFORM
    if cform.any():
        counts[cform] = args[cform]
    total = int(counts.sum())
    base = np.repeat(addresses, counts)
    if total and cform.any():
        # Intra-record index: 0 for single touches, 0..arg-1 inside a
        # CFORM line walk, stepping the touch address by 64 per line.
        starts = np.cumsum(counts) - counts
        intra = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        touch_addresses = base + intra * CFORM_LINE_STRIDE
    else:
        touch_addresses = base
    return touch_addresses, counts


#: Records a :class:`LadderStream` buffers before running them through
#: its ladder.  Fixed, not an option: any value gives the same
#: statistics, and this one amortises numpy dispatch while keeping the
#: buffers a few percent of a live run's footprint (``1 << 16``
#: measurably grows peak RSS).
STREAM_BATCH_RECORDS = 1 << 14


class UnknownRecordKind(ValueError):
    """A record kind outside the ``EV_*`` vocabulary."""


def report_ladder(ladder, tel) -> None:
    """Add a ladder's per-level kernel health (scan chunk iterations,
    multi-chunk accesses and total accesses) to telemetry handle ``tel``;
    no-op when ``None``."""
    if tel is None:
        return
    for name, level in ladder.levels:
        tel.inc("kernel_rounds_total", level.scan_chunks, level=name)
        tel.inc(
            "kernel_tail_accesses_total", level.multi_chunk_accesses,
            level=name,
        )
        tel.inc("kernel_accesses_total", level.accesses, level=name)


class RecordLoop:
    """The record loop every simulation shares: ``EV_*`` batches in.

    :meth:`feed` rejects unknown kinds, splits each batch at EV_WARM
    records when ``honor_warm`` is set (the end of warmup: every counter
    resets, simulated state stays warm; region replay passes ``False`` so
    every record counts), and counts each segment's touches, CFORM lines,
    CFORM records and ALLOC events.  Subclasses simulate a segment in
    ``_segment(start, kinds, addresses, args)`` (``start`` is its batch
    offset) and reset their statistics in ``_warm(position)``:
    :class:`LadderStream` here, the hierarchy and multi-core replays in
    :mod:`repro.traces.replayer`.
    """

    def __init__(self, honor_warm: bool = True):
        self.honor_warm = honor_warm
        self.touches = 0
        self.cform_lines = 0
        self.cform_records = 0
        self.alloc_events = 0

    def feed(self, kinds, addresses, args) -> None:
        """Run one record column batch, in order."""
        unknown = np.flatnonzero(kinds > KIND_EPOCH)
        if unknown.size:
            raise UnknownRecordKind(f"unknown record kind {kinds[unknown[0]]}")
        warms = []
        if self.honor_warm:
            warms = np.flatnonzero(kinds == KIND_WARM).tolist()
        start = 0
        for warm in warms + [None]:
            stop = len(kinds) if warm is None else warm
            if stop > start:
                segment_kinds = kinds[start:stop]
                segment_args = args[start:stop]
                self._segment(
                    start, segment_kinds, addresses[start:stop], segment_args
                )
                cform = segment_kinds == KIND_CFORM
                lines = int(segment_args[cform].sum())
                self.touches += lines + int(  # + one per LOAD/STORE
                    np.count_nonzero(segment_kinds <= KIND_STORE)
                )
                self.cform_lines += lines
                self.cform_records += int(np.count_nonzero(cform))
                self.alloc_events += int(
                    np.count_nonzero(segment_kinds == KIND_ALLOC)
                )
            if warm is not None:
                self._warm(warm)
                self.touches = 0
                self.cform_lines = 0
                self.cform_records = 0
                self.alloc_events = 0
                start = warm + 1


class LadderStream(RecordLoop):
    """A cold 3-level :class:`LadderKernel` fed by the record loop.

    Timing replay feeds it decoded batches; a live driver appends one
    record at a time, buffered and fed every
    :data:`STREAM_BATCH_RECORDS` records — so live and replayed runs
    share one loop.  ``sink``, when given, is a trace-engine tap: at
    every :meth:`flush` it receives the buffered batch as
    ``sink.extend(kinds, addresses, args, bursts)``, where ``bursts``
    holds the batch offsets at which :meth:`burst` was called (a burst
    after the batch's last record has offset ``len(kinds)``).
    """

    def __init__(self, config: HierarchyConfig, honor_warm: bool = True,
                 sink=None):
        super().__init__(honor_warm)
        self.ladder = LadderKernel(config, levels=3)
        self._sink = sink
        self._kinds: list[int] = []
        self._addresses: list[int] = []
        self._args: list[int] = []
        self._bursts: list[int] = []

    def append(self, kind: int, address: int, arg: int) -> None:
        """Buffer one record."""
        kinds = self._kinds
        kinds.append(kind)
        self._addresses.append(address)
        self._args.append(arg)
        if len(kinds) >= STREAM_BATCH_RECORDS:
            self.flush()

    def burst(self) -> None:
        """Driver signal: one burst finished (noted for ``sink``)."""
        if self._sink is not None:
            self._bursts.append(len(self._kinds))

    def flush(self) -> None:
        """Hand the buffered batch to ``sink``; feed it through the
        ladder."""
        if not (self._kinds or self._bursts):
            return
        batch = (
            np.array(self._kinds, dtype=np.uint8),
            np.array(self._addresses, dtype=np.int64),
            np.array(self._args, dtype=np.int64),
        )
        self._kinds, self._addresses, self._args = [], [], []
        if self._sink is not None:
            bursts = np.array(self._bursts, dtype=np.int64)
            self._bursts = []
            self._sink.extend(*batch, bursts)
        self.feed(*batch)

    def _segment(self, start, kinds, addresses, args) -> None:
        self.ladder.touch_block(expand_touches(kinds, addresses, args)[0])

    def _warm(self, position) -> None:
        self.ladder.reset_counters()

    @property
    def events(self) -> MemoryEventCounts:
        """The ladder's event counts (fed records only)."""
        ladder = self.ladder
        return MemoryEventCounts(
            l1_accesses=ladder.l1.accesses,
            l1_misses=ladder.l1.misses,
            l2_misses=ladder.l2.misses,
            l3_misses=ladder.l3.misses,
        )
