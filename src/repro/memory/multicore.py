"""Multi-core tag hierarchy: private L1/L2 ladders, one shared L3.

The paper evaluates Califorms on a multi-level hierarchy with per-core
private L1/L2 caches in front of a shared 2 MB L3 (Table 3).  This
module provides the timing-side model of that arrangement for
multi-programmed studies: ``N`` :class:`PrivateLadder` instances (one
per core, each an L1+L2 tag-only pair) filter their core's access
stream, and the residue — the per-core L2 miss stream — contends for
one :class:`SharedL3` tag array with per-core hit/miss attribution.

Everything is built from the same :class:`TagOnlyCache` /
:class:`CacheGeometry` pieces as the single-core ladder and priced with
the shared :func:`repro.memory.hierarchy.amat_cycles` helper, so the
cycle model cannot drift between single-core and multi-core replay: a
1-core :class:`MultiCoreHierarchy` *is* the single ladder, merely split
at the L2/L3 boundary.

The split at that boundary is deliberate: a core's L1/L2 behaviour
depends only on its own stream, so the private ladders can be simulated
independently (in parallel, by the trace replayer), while the shared L3
consumes the deterministically interleaved miss streams serially —
the design that keeps multi-core replay statistics identical at any
worker count.  The trace replayer runs both phases on the batched
kernels (:class:`~repro.memory.kernel.LadderKernel`,
:class:`SharedL3Kernel`); the per-access classes here are the reference
semantics those kernels are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import TagOnlyCache
from repro.memory.hierarchy import WESTMERE, HierarchyConfig, amat_cycles
from repro.memory.kernel import LruTagKernel


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
    cores evict each other's lines — the contention effect under
    study); per-core ``accesses``/``misses`` lists attribute every
    request to the core that issued it, which is what the per-core
    slowdown accounting needs.
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
        """Zero one core's attribution (its warmup boundary passed).

        The tag contents — including lines the core already pulled in —
        stay warm, exactly like :meth:`TagOnlyCache.reset_counters`.
        """
        self.accesses[core] = 0
        self.misses[core] = 0


class SharedL3Kernel:
    """Columnar twin of :class:`SharedL3`: merged miss columns in batches.

    Same global tag contents and per-core attribution, but the requests
    arrive as parallel ``(core, address)`` columns already merged into
    the recorded interleaving — the
    :class:`~repro.memory.kernel.LruTagKernel` resolves the whole batch
    and the boolean miss mask is attributed per core with one bincount.
    Statistics are bit-identical to presenting the same stream through
    :meth:`SharedL3.access` one request at a time.
    """

    __slots__ = ("cache", "accesses", "misses")

    def __init__(self, config: HierarchyConfig, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cache = LruTagKernel(config.l3_geometry)
        self.accesses = [0] * cores
        self.misses = [0] * cores

    def replay_columns(self, core_column, address_column) -> None:
        """Present one merged batch of L2 misses; attribute per core.

        ``core_column`` holds each request's issuing core,
        ``address_column`` its (stride-disambiguated) address; both are
        equal-length int64 arrays in merged stream order.
        """
        miss_mask = self.cache.access_block(address_column)
        cores = len(self.accesses)
        presented = np.bincount(core_column, minlength=cores)
        missed = np.bincount(core_column[miss_mask], minlength=cores)
        for core in range(cores):
            self.accesses[core] += int(presented[core])
            self.misses[core] += int(missed[core])

    def reset_core(self, core: int) -> None:
        """Zero one core's attribution; tag contents stay warm."""
        self.accesses[core] = 0
        self.misses[core] = 0


class MultiCoreHierarchy:
    """``cores`` private L1/L2 ladders in front of one shared L3.

    The live (per-access) interface for direct use and tests; the trace
    replayer runs the same two-level split on the batched kernels and
    is tested against this class.
    """

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

    # -- accounting ----------------------------------------------------------

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
