"""Per-access cache oracles: the reference semantics of the tag kernels.

Every production cache-timing statistic comes from the batched kernels
of :mod:`repro.memory.kernel` (live runs and replay alike).  The
classes here are their per-access twins, kept only as differential
oracles: a :class:`TagOnlyCache` is one LRU tag array touched one
address at a time, :class:`PrivateLadder` one core's L1+L2 pair,
:class:`SharedL3` one L3 shared by several cores with per-core
attribution, and :class:`MultiCoreHierarchy` the two combined.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE, HierarchyConfig, amat_cycles


class TagOnlyCache:
    """Tag array with LRU for miss counting over address traces."""

    __slots__ = (
        "geometry", "_sets", "accesses", "hits", "misses",
        "_line_size", "_num_sets", "_associativity",
    )

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._associativity = geometry.associativity
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch the line containing ``address``; return True on hit."""
        line_number = address // self._line_size
        num_sets = self._num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        entries = self._sets[set_index]
        self.accesses += 1
        if tag in entries:
            self.hits += 1
            entries.move_to_end(tag)
            return True
        self.misses += 1
        if len(entries) >= self._associativity:
            entries.popitem(last=False)
        entries[tag] = None
        return False

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping the cache contents warm."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class PrivateLadder:
    """One core's private L1+L2 tag pair.

    :meth:`access` returns ``True`` when the touch is satisfied
    privately; ``False`` means the access missed both levels and must be
    presented to the shared L3.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, config: HierarchyConfig):
        self.l1 = TagOnlyCache(config.l1_geometry)
        self.l2 = TagOnlyCache(config.l2_geometry)

    def access(self, address: int) -> bool:
        """Touch the ladder; ``True`` iff the L1 or L2 hit."""
        if self.l1.access(address):
            return True
        return self.l2.access(address)

    def reset_counters(self) -> None:
        """Discard statistics, keep tag contents warm (end of warmup)."""
        self.l1.reset_counters()
        self.l2.reset_counters()


class SharedL3:
    """One L3 tag array shared by ``cores`` requesters.

    The underlying :class:`TagOnlyCache` holds the global contents (so
    cores evict each other's lines); per-core ``accesses``/``misses``
    lists attribute every request to the core that issued it.
    """

    __slots__ = ("cache", "accesses", "misses")

    def __init__(self, config: HierarchyConfig, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cache = TagOnlyCache(config.l3_geometry)
        self.accesses = [0] * cores
        self.misses = [0] * cores

    def access(self, core: int, address: int) -> bool:
        """Present one L2 miss from ``core``; ``True`` on L3 hit."""
        self.accesses[core] += 1
        if self.cache.access(address):
            return True
        self.misses[core] += 1
        return False

    def reset_core(self, core: int) -> None:
        """Zero one core's attribution; tag contents stay warm."""
        self.accesses[core] = 0
        self.misses[core] = 0


class MultiCoreHierarchy:
    """``cores`` private L1/L2 ladders in front of one shared L3."""

    def __init__(self, config: HierarchyConfig | None = None, cores: int = 2):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.config = config or WESTMERE
        self.cores = cores
        self.ladders = [PrivateLadder(self.config) for _ in range(cores)]
        self.shared_l3 = SharedL3(self.config, cores)

    def access(self, core: int, address: int) -> None:
        """One cache touch by ``core`` at ``address``."""
        if not self.ladders[core].access(address):
            self.shared_l3.access(core, address)

    def reset_core_counters(self, core: int) -> None:
        """End-of-warmup for one core: statistics out, contents warm."""
        self.ladders[core].reset_counters()
        self.shared_l3.reset_core(core)

    def core_events(self, core: int) -> MemoryEventCounts:
        """One core's event counts, L3 misses attributed to it."""
        ladder = self.ladders[core]
        return MemoryEventCounts(
            l1_accesses=ladder.l1.accesses,
            l1_misses=ladder.l1.misses,
            l2_misses=ladder.l2.misses,
            l3_misses=self.shared_l3.misses[core],
        )

    def merged_events(self) -> MemoryEventCounts:
        """Whole-chip event counts (sum over cores)."""
        per_core = [self.core_events(core) for core in range(self.cores)]
        return MemoryEventCounts(
            l1_accesses=sum(e.l1_accesses for e in per_core),
            l1_misses=sum(e.l1_misses for e in per_core),
            l2_misses=sum(e.l2_misses for e in per_core),
            l3_misses=sum(e.l3_misses for e in per_core),
        )

    def core_cycles(self, core: int) -> int:
        """AMAT-style cycle total for one core's attributed events."""
        events = self.core_events(core)
        return amat_cycles(
            self.config,
            events.l1_accesses,
            events.l1_misses,
            events.l2_misses,
            events.l3_misses,
        )

    def total_cycles(self) -> int:
        """Sum of per-core cycles (the AMAT model is linear)."""
        return sum(self.core_cycles(core) for core in range(self.cores))
