"""The batched tag kernel: exact twin-ship with the per-access classes.

Property layer under the whole-registry differential suite
(``tests/traces/test_columnar_equivalence.py``): every kernel class is
driven side by side with its per-access twin over randomized streams and
must agree on every counter and on the residual miss stream — the
invariant the replayer's bit-identical claim rests on.  The seeded
tests pin the paper's geometry; the Hypothesis properties at the end
draw random geometries, streams and batch splits.
"""

import random

import numpy as np
import pytest
from cache_oracle import PrivateLadder, SharedL3, TagOnlyCache
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import kernel
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import (
    CFORM_LINE_STRIDE,
    LadderKernel,
    LadderStream,
    LruTagKernel,
    expand_touches,
)
from repro.memory.multicore import SharedL3Kernel
from repro.workloads.generator import (
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
)

#: Tiny geometry so eviction/LRU paths are exercised by short streams.
SMALL = CacheGeometry(size_bytes=4 * 1024, associativity=2)


def random_addresses(seed: int, count: int = 4000) -> "np.ndarray":
    """A burst/stride-structured address stream (like recorded traces)."""
    rng = random.Random(seed)
    addresses: list[int] = []
    cursor = 0x1000
    while len(addresses) < count:
        if rng.random() < 0.5:  # stride burst (scan / CFORM walk)
            stride = rng.choice((8, 64, 128))
            for index in range(rng.randrange(1, 12)):
                addresses.append(cursor + index * stride)
            cursor += rng.randrange(0, 1 << 14)
        else:  # random jump (pointer chase)
            cursor = rng.randrange(0, 1 << 18)
            addresses.append(cursor)
    return np.array(addresses[:count], dtype=np.int64)


class TestKindConstants:
    def test_pinned_to_the_trace_event_codes(self):
        # The kernel defines its own copies to avoid an import cycle;
        # this is the pin that keeps the two vocabularies identical.
        assert kernel.KIND_LOAD == EV_LOAD
        assert kernel.KIND_STORE == EV_STORE
        assert kernel.KIND_ALLOC == EV_ALLOC
        assert kernel.KIND_FREE == EV_FREE
        assert kernel.KIND_CFORM == EV_CFORM
        assert kernel.KIND_WARM == EV_WARM
        assert kernel.KIND_EPOCH == EV_EPOCH


class TestLruTagKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_tag_only_cache_access_for_access(self, seed):
        reference = TagOnlyCache(SMALL)
        batched = LruTagKernel(SMALL)
        addresses = random_addresses(seed)
        expected_miss = np.array(
            [not reference.access(int(a)) for a in addresses], dtype=bool
        )
        # Drive the kernel in several blocks so the MRU collapse crosses
        # block boundaries too.
        produced = np.concatenate(
            [batched.access_block(block) for block in np.array_split(addresses, 7)]
        )
        assert (produced == expected_miss).all()
        assert batched.accesses == reference.accesses == len(addresses)
        assert batched.hits == reference.hits
        assert batched.misses == reference.misses

    def test_lru_state_matches_after_batches(self):
        # Same follow-up behaviour ⇒ same retained contents and order.
        reference = TagOnlyCache(SMALL)
        batched = LruTagKernel(SMALL)
        first = random_addresses(11)
        batched.access_block(first)
        for address in first.tolist():
            reference.access(address)
        probe = random_addresses(12)
        expected = [not reference.access(int(a)) for a in probe]
        assert batched.access_block(probe).tolist() == expected

    def test_reset_counters_keeps_contents_warm(self):
        batched = LruTagKernel(SMALL)
        warm = np.arange(0, 64 * 16, 64, dtype=np.int64)
        batched.access_block(warm)
        batched.reset_counters()
        assert (batched.accesses, batched.hits, batched.misses) == (0, 0, 0)
        assert not batched.access_block(warm).any()  # still resident

    def test_empty_block(self):
        batched = LruTagKernel(SMALL)
        assert len(batched.access_block(np.empty(0, dtype=np.int64))) == 0
        assert batched.accesses == 0


def oracle_misses(geometry, addresses):
    """The per-access oracle's miss flags and final counters."""
    reference = TagOnlyCache(geometry)
    flags = [not reference.access(a) for a in addresses.tolist()]
    return flags, (reference.accesses, reference.hits, reference.misses)


def set_lines(geometry, set_index, tags):
    """Addresses of lines ``tags`` of one set (line offset included)."""
    return [
        (tag * geometry.num_sets + set_index) * geometry.line_size + 8
        for tag in tags
    ]


class TestStackDistanceEdges:
    """Reuse windows at and around the ``ways`` boundary, and geometries
    at the edges of the kernel's sort keys."""

    @pytest.mark.parametrize("ways", [3, 4, 8, 16])
    def test_short_windows_across_many_scan_chunks(self, ways):
        # Line 0, then a long run cycling ``ways - 1`` other lines (so
        # its window holds few distinct lines), then line 0 again: a hit
        # only a scan over several chunks can prove.  (With two ways or
        # fewer such a run collapses to MRU repeats.)
        geometry = CacheGeometry(
            size_bytes=64 * ways * 4, associativity=ways, line_size=64
        )
        cycle = list(range(1, ways))
        tags = [0] + cycle * (8 * ways // len(cycle) + 3) + [0]
        addresses = np.array(set_lines(geometry, 2, tags), dtype=np.int64)
        expected, counters = oracle_misses(geometry, addresses)
        batched = LruTagKernel(geometry)
        assert batched.access_block(addresses).tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == counters
        assert expected[-1] is False  # the far reuse hits ...
        assert batched.multi_chunk_accesses == 1  # ... after several chunks
        assert batched.scan_chunks > 2

    @pytest.mark.parametrize("ways", [3, 4, 8, 16])
    def test_distant_distinct_lines_behind_a_long_repeat_run(self, ways):
        # ``ways - 2`` distinct lines, then a long run cycling two more:
        # the reuse of line 0 sees exactly ``ways`` distinct lines, the
        # last of them found only chunks back — a miss.  The early lines
        # are touched again afterwards, so no shortcut settles it.
        geometry = CacheGeometry(
            size_bytes=64 * ways * 3, associativity=ways, line_size=64
        )
        early = list(range(1, ways - 1))
        run = [ways, ways + 1] * 4 * ways
        tags = [0, *early, *run, 0, *early]
        addresses = np.array(set_lines(geometry, 1, tags), dtype=np.int64)
        expected, counters = oracle_misses(geometry, addresses)
        batched = LruTagKernel(geometry)
        assert batched.access_block(addresses).tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == counters
        assert expected[len(early) + len(run) + 1] is True
        assert batched.multi_chunk_accesses >= 1

    @pytest.mark.parametrize(
        "ways,num_sets", [(1, 16), (1, 1), (4, 1), (16, 1), (2, 70_001)]
    )
    def test_edge_geometries(self, ways, num_sets):
        # Direct-mapped, fully associative (one set) and more sets than
        # a uint16 set id can name.
        geometry = CacheGeometry(
            size_bytes=64 * ways * num_sets, associativity=ways, line_size=64
        )
        rng = np.random.default_rng(ways * 7919 + num_sets)
        footprint = 64 * max(4 * ways * num_sets, 256)
        addresses = rng.integers(0, footprint, 6000, dtype=np.int64)
        # Revisit the first lines so even the widest geometry reuses.
        addresses = np.concatenate((addresses, addresses[:500]))
        expected, counters = oracle_misses(geometry, addresses)
        batched = LruTagKernel(geometry)
        produced = np.concatenate(
            [batched.access_block(block) for block in np.array_split(addresses, 5)]
        )
        assert produced.tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == counters

    def test_line_numbers_spanning_the_int64_range(self):
        # Lines too far apart to pack beside an index in one int64 sort
        # key take the stable-argsort path; outcomes must not change.
        rng = np.random.default_rng(5)
        near = rng.integers(0, 1 << 12, 600) * 64
        far = (1 << 63) - 1 - rng.integers(0, 1 << 12, 600) * 64
        addresses = np.where(rng.random(600) < 0.5, near, far)
        expected, counters = oracle_misses(SMALL, addresses)
        batched = LruTagKernel(SMALL)
        produced = np.concatenate(
            [batched.access_block(block) for block in np.array_split(addresses, 3)]
        )
        assert produced.tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == counters

    def test_set_ids_beyond_uint16_stay_distinct(self):
        # Sets 3 and 65539 would collide under a uint16 set id.
        geometry = CacheGeometry(
            size_bytes=64 * 70_000, associativity=1, line_size=64
        )
        low, high = set_lines(geometry, 3, [0])[0], set_lines(geometry, 65539, [0])[0]
        addresses = np.array([low, high, low, high], dtype=np.int64)
        batched = LruTagKernel(geometry)
        assert batched.access_block(addresses).tolist() == [
            True, True, False, False
        ]


class TestLadderKernel:
    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError, match="2 or 3"):
            LadderKernel(WESTMERE, levels=1)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_two_level_residue_matches_private_ladder(self, seed):
        reference = PrivateLadder(WESTMERE)
        batched = LadderKernel(WESTMERE, levels=2)
        addresses = random_addresses(seed)
        expected = [
            index
            for index, address in enumerate(addresses.tolist())
            if not reference.access(address)
        ]
        assert batched.touch_block(addresses).tolist() == expected
        assert batched.l1.accesses == reference.l1.accesses
        assert batched.l1.misses == reference.l1.misses
        assert batched.l2.misses == reference.l2.misses

    def test_three_level_counters_match_the_serial_ladder(self):
        l1 = TagOnlyCache(WESTMERE.l1_geometry)
        l2 = TagOnlyCache(WESTMERE.l2_geometry)
        l3 = TagOnlyCache(WESTMERE.l3_geometry)
        batched = LadderKernel(WESTMERE, levels=3)
        addresses = random_addresses(7)
        for address in addresses.tolist():
            if not l1.access(address):
                if not l2.access(address):
                    l3.access(address)
        batched.touch_block(addresses)
        assert (batched.l1.accesses, batched.l1.misses) == (
            l1.accesses, l1.misses
        )
        assert (batched.l2.accesses, batched.l2.misses) == (
            l2.accesses, l2.misses
        )
        assert (batched.l3.accesses, batched.l3.misses) == (
            l3.accesses, l3.misses
        )


class TestExpandTouches:
    def test_mixed_record_batch(self):
        kinds = np.array(
            [EV_LOAD, EV_ALLOC, EV_CFORM, EV_STORE, EV_FREE, EV_WARM, EV_EPOCH],
            dtype=np.uint8,
        )
        addresses = np.array([0x100, 0x200, 0x300, 0x400, 0, 0, 0], np.int64)
        args = np.array([8, 96, 3, 4, 96, 0, 0], dtype=np.int64)
        touches, counts = expand_touches(kinds, addresses, args)
        assert counts.tolist() == [1, 0, 3, 1, 0, 0, 0]
        assert touches.tolist() == [
            0x100,
            0x300,
            0x300 + CFORM_LINE_STRIDE,
            0x300 + 2 * CFORM_LINE_STRIDE,
            0x400,
        ]

    def test_no_cform_fast_path(self):
        kinds = np.array([EV_LOAD, EV_STORE], dtype=np.uint8)
        touches, counts = expand_touches(
            kinds, np.array([1, 2], np.int64), np.array([8, 8], np.int64)
        )
        assert touches.tolist() == [1, 2]
        assert counts.tolist() == [1, 1]

    def test_zero_line_cform_contributes_nothing(self):
        kinds = np.array([EV_CFORM], dtype=np.uint8)
        touches, counts = expand_touches(
            kinds, np.array([0x800], np.int64), np.array([0], np.int64)
        )
        assert len(touches) == 0
        assert counts.tolist() == [0]


class TestLadderStream:
    def test_mid_block_warm_resets_counters_like_the_oracle_ladder(self):
        # One fed batch with an EV_WARM in the middle: the kernel must
        # keep its tag contents across the reset and count only the
        # records after it, exactly as the per-access ladder does.
        rng = random.Random(3)
        records = []
        for index in range(3000):
            if index == 1700:
                records.append((EV_WARM, 0, 0))
            roll = rng.random()
            address = rng.randrange(1 << 19)
            if roll < 0.1:
                records.append((EV_CFORM, address, rng.randrange(0, 5)))
            elif roll < 0.15:
                records.append((EV_ALLOC, address, 64))
            else:
                records.append((rng.choice((EV_LOAD, EV_STORE)), address, 8))
        ladder = [
            TagOnlyCache(geometry)
            for geometry in (
                WESTMERE.l1_geometry, WESTMERE.l2_geometry, WESTMERE.l3_geometry
            )
        ]
        for kind, address, arg in records:
            if kind == EV_WARM:
                for level in ladder:
                    level.reset_counters()
            touches = (
                [address] if kind in (EV_LOAD, EV_STORE)
                else [address + i * CFORM_LINE_STRIDE for i in range(arg)]
                if kind == EV_CFORM else []
            )
            for touch in touches:
                any(level.access(touch) for level in ladder)
        stream = LadderStream(WESTMERE)
        kinds, addresses, args = (np.array(column) for column in zip(*records))
        stream.feed(kinds.astype(np.uint8), addresses, args)
        events = stream.events
        l1, l2, l3 = ladder
        assert (
            events.l1_accesses, events.l1_misses,
            events.l2_misses, events.l3_misses,
        ) == (l1.accesses, l1.misses, l2.misses, l3.misses)
        assert stream.touches == l1.accesses


class TestSharedL3Kernel:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_matches_shared_l3_attribution(self, seed):
        cores = 3
        reference = SharedL3(WESTMERE, cores)
        batched = SharedL3Kernel(WESTMERE, cores)
        rng = random.Random(seed)
        addresses = random_addresses(seed, count=3000)
        core_column = np.array(
            [rng.randrange(cores) for _ in range(len(addresses))],
            dtype=np.int64,
        )
        for core, address in zip(core_column.tolist(), addresses.tolist()):
            reference.access(core, address)
        for start in range(0, len(addresses), 500):
            batched.replay_columns(
                core_column[start : start + 500],
                addresses[start : start + 500],
            )
        assert batched.accesses == reference.accesses
        assert batched.misses == reference.misses

    def test_reset_core_zeroes_attribution_only(self):
        batched = SharedL3Kernel(WESTMERE, 2)
        addresses = np.arange(0, 64 * 32, 64, dtype=np.int64)
        batched.replay_columns(np.zeros(len(addresses), np.int64), addresses)
        batched.reset_core(0)
        assert batched.accesses == [0, 0]
        assert batched.misses == [0, 0]
        # Contents stayed warm: core 1 re-touching the lines all hits.
        batched.replay_columns(np.ones(len(addresses), np.int64), addresses)
        assert batched.misses[1] == 0

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError, match="positive"):
            SharedL3Kernel(WESTMERE, 0)


# -- properties: random geometries, streams and batch splits ----------------


@st.composite
def geometries(draw):
    """Any legal geometry: non-power-of-two set counts, 1-16 ways."""
    line_size = draw(st.sampled_from((16, 32, 64, 128)))
    associativity = draw(st.integers(1, 16))
    num_sets = draw(st.integers(1, 48))
    return CacheGeometry(
        size_bytes=line_size * associativity * num_sets,
        associativity=associativity,
        line_size=line_size,
    )


@st.composite
def address_streams(draw):
    """Addresses mixing same-address and same-line repeats, stride walks
    and random jumps over a drawn footprint.

    The stream itself comes from a drawn seed: streams long enough to
    keep many sets active at once and to open long reuse windows are
    far beyond what element-wise drawing produces.
    """
    count = draw(st.integers(1, 1500))
    span = draw(st.sampled_from((1 << 10, 1 << 14, 1 << 20)))
    repeat = draw(st.floats(0.0, 0.9))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    addresses = [rng.randrange(span)]
    while len(addresses) < count:
        roll = rng.random()
        if roll < repeat / 2:  # same address again
            addresses.append(addresses[-1])
        elif roll < repeat:  # same line (or its neighbour)
            addresses.append(addresses[-1] + rng.randrange(64))
        elif roll < (1 + repeat) / 2:  # stride walk
            addresses.append(addresses[-1] + rng.choice((8, 64, 128)))
        else:  # random jump
            addresses.append(rng.randrange(span))
    return np.array(addresses, dtype=np.int64)


def split_points(count: int):
    """Sorted cut positions splitting a ``count``-long stream in blocks."""
    return st.lists(st.integers(0, count), max_size=6).map(sorted)


@st.composite
def conflict_streams(draw):
    """``(geometry, addresses)``: cyclic working sets of ``ways - 1``,
    ``ways`` and ``ways + 1`` lines on a few sets, interleaved.

    Under LRU the ``ways + 1`` cycle misses on every access while the
    smaller ones hit once warm, so every outcome sits at the hit rule's
    boundary.
    """
    geometry = draw(geometries())
    ways = geometry.associativity
    sets = draw(
        st.lists(
            st.integers(0, geometry.num_sets - 1),
            min_size=1, max_size=3, unique=True,
        )
    )
    phases = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sets),
                st.sampled_from((max(1, ways - 1), ways, ways + 1)),
                st.integers(0, 3),  # first tag: phases share lines
                st.integers(1, 8),  # cycles
            ),
            min_size=1, max_size=6,
        )
    )
    streams = [
        set_lines(geometry, set_index, list(range(base, base + size)) * cycles)
        for set_index, size, base, cycles in phases
    ]
    # Merge the phases in a drawn interleaving, each kept in order.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cursors = [0] * len(streams)
    addresses = []
    while True:
        open_ = [i for i, stream in enumerate(streams) if cursors[i] < len(stream)]
        if not open_:
            break
        pick = rng.choice(open_)
        addresses.append(streams[pick][cursors[pick]])
        cursors[pick] += 1
    return geometry, np.array(addresses, dtype=np.int64)


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(conflict_streams(), st.data())
    def test_conflict_dominated_streams_match_tag_only_cache(
        self, case, data
    ):
        geometry, addresses = case
        cuts = data.draw(split_points(len(addresses)))
        expected, counters = oracle_misses(geometry, addresses)
        batched = LruTagKernel(geometry)
        produced = np.concatenate(
            [batched.access_block(block) for block in np.split(addresses, cuts)]
        )
        assert produced.tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == counters

    @settings(max_examples=60, deadline=None)
    @given(geometries(), address_streams(), st.data())
    def test_lru_kernel_matches_tag_only_cache(self, geometry, addresses, data):
        cuts = data.draw(split_points(len(addresses)))
        reference = TagOnlyCache(geometry)
        batched = LruTagKernel(geometry)
        expected = [not reference.access(a) for a in addresses.tolist()]
        produced = np.concatenate(
            [batched.access_block(block) for block in np.split(addresses, cuts)]
        )
        assert produced.tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == (
            reference.accesses, reference.hits, reference.misses
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from((2, 3)),
        geometries(),
        geometries(),
        geometries(),
        address_streams(),
        st.data(),
    )
    def test_ladder_kernel_matches_tag_only_ladder(
        self, levels, l1, l2, l3, addresses, data
    ):
        cuts = data.draw(split_points(len(addresses)))
        config = HierarchyConfig(l1_geometry=l1, l2_geometry=l2, l3_geometry=l3)
        ladder = [TagOnlyCache(geometry) for geometry in (l1, l2, l3)[:levels]]
        expected = []
        for index, address in enumerate(addresses.tolist()):
            if not any(level.access(address) for level in ladder):
                expected.append(index)
        batched = LadderKernel(config, levels=levels)
        produced = []
        start = 0
        for block in np.split(addresses, cuts):
            produced.extend((batched.touch_block(block) + start).tolist())
            start += len(block)
        assert produced == expected
        for (_, kernel_level), level in zip(batched.levels, ladder):
            assert (kernel_level.accesses, kernel_level.misses) == (
                level.accesses, level.misses
            )

    @settings(max_examples=25, deadline=None)
    @given(address_streams(), st.data())
    def test_ladder_kernel_matches_on_the_table3_hierarchy(self, addresses, data):
        # The paper's geometry (Table 3) with random streams and splits;
        # the pessimistic extra-latency variant shares it.
        cuts = data.draw(split_points(len(addresses)))
        ladder = [
            TagOnlyCache(geometry)
            for geometry in (
                WESTMERE.l1_geometry, WESTMERE.l2_geometry, WESTMERE.l3_geometry
            )
        ]
        for address in addresses.tolist():
            any(level.access(address) for level in ladder)
        batched = LadderKernel(WESTMERE, levels=3)
        for block in np.split(addresses, cuts):
            batched.touch_block(block)
        for (_, kernel_level), level in zip(batched.levels, ladder):
            assert (
                kernel_level.accesses, kernel_level.hits, kernel_level.misses
            ) == (level.accesses, level.hits, level.misses)

    @settings(max_examples=40, deadline=None)
    @given(geometries(), st.integers(1, 4), address_streams(), st.data())
    def test_shared_l3_kernel_matches_shared_l3(
        self, geometry, cores, addresses, data
    ):
        config = HierarchyConfig(l3_geometry=geometry)
        seed = data.draw(st.integers(0, 2**32 - 1))
        core_column = np.random.default_rng(seed).integers(
            0, cores, len(addresses), dtype=np.int64
        )
        cuts = data.draw(split_points(len(addresses)))
        # After each batch, optionally reset one core's attribution.
        resets = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, cores - 1)),
                min_size=len(cuts) + 1,
                max_size=len(cuts) + 1,
            )
        )
        reference = SharedL3(config, cores)
        batched = SharedL3Kernel(config, cores)
        bounds = [0, *cuts, len(addresses)]
        for start, stop, reset in zip(bounds, bounds[1:], resets):
            for core, address in zip(
                core_column[start:stop].tolist(), addresses[start:stop].tolist()
            ):
                reference.access(core, address)
            batched.replay_columns(core_column[start:stop], addresses[start:stop])
            if reset is not None:
                reference.reset_core(reset)
                batched.reset_core(reset)
            assert batched.accesses == reference.accesses
            assert batched.misses == reference.misses
