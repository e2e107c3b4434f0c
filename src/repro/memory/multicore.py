"""Multi-core tag hierarchy: private L1/L2 ladders, one shared L3.

The paper evaluates Califorms with per-core private L1/L2 caches in
front of a shared 2 MB L3 (Table 3).  Multi-programmed trace replay
models that in two phases: a 2-level
:class:`~repro.memory.kernel.LadderKernel` per core filters its core's
touch stream, and the residue — the per-core L2 miss stream — contends
for one :class:`SharedL3Kernel` with per-core attribution.  A core's
L1/L2 behaviour depends only on its own stream, so the private phase
parallelises while the shared L3 consumes the deterministically merged
miss streams serially: statistics are identical at any worker count,
and a 1-core replay *is* the single ladder split at the L2/L3 boundary.
The per-access classes these kernels are tested against live in
``tests/cache_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.memory.hierarchy import HierarchyConfig
from repro.memory.kernel import LruTagKernel


class SharedL3Kernel:
    """One L3 tag array shared by ``cores`` requesters, in batches.

    The tag contents are global (cores evict each other's lines — the
    contention effect under study) and ``accesses``/``misses`` attribute
    every request to the core that issued it.  Requests arrive as
    parallel ``(core, address)`` columns already merged into the
    recorded interleaving — the
    :class:`~repro.memory.kernel.LruTagKernel` resolves the whole batch
    and the boolean miss mask is attributed per core with one bincount.
    Statistics are bit-identical to presenting the same stream one
    request at a time to a per-access shared L3.
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

