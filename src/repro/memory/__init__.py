"""Memory-system substrate: caches, DRAM, the full hierarchy and swap.

* :mod:`repro.memory.cache` — generic set-associative machinery and the
  cache geometry shared with the timing experiments.
* :mod:`repro.memory.kernel` — the batched LRU tag kernels every
  cache-timing statistic comes from, and :class:`LadderStream`, the one
  record → ladder loop that live runs and trace replay both feed.
* :mod:`repro.memory.l1cache` — the L1-D with bitvector metadata, access
  checks and CFORM execution (Figure 6).
* :mod:`repro.memory.dram` — main memory with the ECC spare-bit metadata.
* :mod:`repro.memory.hierarchy` — the Table 3 Westmere-like stack.
* :mod:`repro.memory.multicore` — the shared-L3 tag kernel behind
  multi-programmed replay (N private L1/L2 ladders sharing one L3).
* :mod:`repro.memory.swap` — OS page swap that preserves metadata.
"""

from repro.memory.cache import (
    CacheGeometry,
    CacheLevel,
    CacheStats,
    make_sentinel_cache,
)
from repro.memory.dram import Dram, line_address
from repro.memory.hierarchy import WESTMERE, HierarchyConfig, MemoryHierarchy
from repro.memory.l1cache import L1DataCache
from repro.memory.swap import (
    LINES_PER_PAGE,
    METADATA_BYTES_PER_PAGE,
    PAGE_SIZE,
    SwapManager,
)

__all__ = [
    "CacheGeometry",
    "CacheLevel",
    "CacheStats",
    "make_sentinel_cache",
    "Dram",
    "line_address",
    "L1DataCache",
    "MemoryHierarchy",
    "HierarchyConfig",
    "WESTMERE",
    "SwapManager",
    "PAGE_SIZE",
    "LINES_PER_PAGE",
    "METADATA_BYTES_PER_PAGE",
]
