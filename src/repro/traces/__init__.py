"""Trace engine: record, persist, compress, shard and replay traces.

Workloads become first-class artifacts: the recorder taps a live driver
(the workload generator, or the attack-suite campaign driver) and
streams its event stream to the frame-compressed ``CALTRC02`` format
(readers also accept the fixed-record ``CALTRC01`` container, which
stays the corpus's canonical hash form).  The replayer reproduces
the live run's cycle/exception statistics bit-identically from the
file; the scenario registry names 8 declarative realistic mixes (plus
named multi-core mixes); sharded replay splits a trace at epoch
boundaries and fans the shards across worker processes with merged
accounting; multi-core replay interleaves one trace stream per core
through private L1/L2 ladders into a shared L3 with per-core
attribution.  ``python -m repro trace`` is the CLI
(record/replay/info/shard/replay-shards/replay-mc/list); the
content-addressed corpus store in :mod:`repro.corpus` builds on all of
this.
"""

from repro.traces.compress import CompressedTraceWriter, transcode
from repro.traces.format import (
    TraceFormatError,
    TraceIntegrityError,
    TraceReader,
)
from repro.traces.recorder import RecordingSink, live_run, record_spec
from repro.traces.registry import (
    CORPUS,
    MULTICORE_MIXES,
    MulticoreMixSpec,
    TraceScenarioSpec,
    corpus_spec,
    expand_core_names,
    load_spec,
    multicore_mix,
)
from repro.traces.replayer import (
    MergedReplay,
    MulticoreReplay,
    ShardStats,
    replay_hierarchy,
    replay_multicore,
    replay_shards,
    replay_timing,
    shard_trace,
)

__all__ = [
    "CORPUS",
    "MULTICORE_MIXES",
    "CompressedTraceWriter",
    "MergedReplay",
    "MulticoreMixSpec",
    "MulticoreReplay",
    "RecordingSink",
    "ShardStats",
    "TraceFormatError",
    "TraceIntegrityError",
    "TraceReader",
    "TraceScenarioSpec",
    "corpus_spec",
    "expand_core_names",
    "live_run",
    "load_spec",
    "multicore_mix",
    "record_spec",
    "replay_hierarchy",
    "replay_multicore",
    "replay_shards",
    "replay_timing",
    "shard_trace",
    "transcode",
]
