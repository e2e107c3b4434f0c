"""Live drivers vs the per-access oracle, over their own event streams.

Every live driver — the generator, the attack campaign and the loadgen
composition — emits its ``EV_*`` stream into a
:class:`~repro.memory.kernel.LadderStream` and takes its cache counts
from it.  Here each driver's stream is captured through its ``sink`` and
fed one record at a time through the per-access ``TagOnlyCache`` ladder
(``oracle.ladder_stats``); the live :class:`RunResult` must agree on
every counter.  Small batch sizes put EV_WARM and CFORM records on
flush boundaries, where a lost flush or a misplaced reset would show.

The runs are shrunk so that a one-record batch stays cheap: a small
cache ladder (every level evicts) and 64 KB heaps for the workload
profiles, loadgen tenants included.
"""

from dataclasses import replace

import oracle
import pytest

from repro.loadgen.compose import run_composed
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.memory import kernel
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.softstack.insertion import Policy
from repro.traces.attack_driver import run_attack_trace
from repro.traces.registry import CORPUS
from repro.workloads.generator import (
    EV_CFORM,
    EV_EPOCH,
    EV_WARM,
    Scenario,
    run_trace,
)

#: Every level smaller than the heaps below, so every level misses.
SMALL = HierarchyConfig(
    l1_geometry=CacheGeometry(4 * 1024, 2),
    l2_geometry=CacheGeometry(16 * 1024, 4),
    l3_geometry=CacheGeometry(32 * 1024, 8),
)

HEAP_KB = 64

LOAD = LoadScenario(
    name="live-stream-mix",
    description="loadgen stream for the live-stream differential tests",
    arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
    mix=(
        MixEntry(profile="server-churn", weight=2.0),
        MixEntry(profile="attack-replay", weight=1.0),
    ),
    tenants=3,
    duration_s=0.3,
    warmup_s=0.1,
    seed=29,
)

DRIVERS = {
    "generator": lambda sink: run_trace(
        CORPUS["server-churn"].profile,
        Scenario(policy=Policy.FULL, with_cform=True),
        instructions=1_000,
        seed=3,
        config=SMALL,
        sink=sink,
    ),
    "attacks": lambda sink: run_attack_trace(
        CORPUS["attack-replay"].profile,
        Scenario.baseline(),
        instructions=1_000,
        seed=4,
        config=SMALL,
        sink=sink,
    ),
    "loadgen": lambda sink: run_composed(LOAD, config=SMALL, sink=sink),
}


@pytest.fixture(autouse=True)
def small_heaps(monkeypatch):
    """The mixed-in corpus profiles with :data:`HEAP_KB` heaps."""
    for mix in LOAD.mix:
        spec = CORPUS[mix.profile]
        profile = replace(spec.profile, heap_kb=HEAP_KB)
        monkeypatch.setitem(CORPUS, mix.profile, replace(spec, profile=profile))


class CaptureSink:
    """Keeps every record and every burst's offset in the stream."""

    def __init__(self):
        self.records = []
        self.bursts = []

    def extend(self, kinds, addresses, args, bursts):
        self.bursts += (bursts + len(self.records)).tolist()
        self.records += zip(kinds.tolist(), addresses.tolist(), args.tolist())


@pytest.mark.parametrize("batch", [1, 2, 3, 7, kernel.STREAM_BATCH_RECORDS])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_live_run_equals_the_per_access_oracle(driver, batch, monkeypatch):
    monkeypatch.setattr(kernel, "STREAM_BATCH_RECORDS", batch)
    sink = CaptureSink()
    live = DRIVERS[driver](sink)
    kinds = {kind for kind, _, _ in sink.records}
    assert EV_WARM in kinds and EV_EPOCH not in kinds
    if driver != "attacks":
        assert EV_CFORM in kinds
    assert sink.bursts

    expected = oracle.ladder_stats(sink.records, SMALL)
    assert expected.events.l3_misses > 0
    assert live.events == expected.events
    assert live.cform_instructions == expected.cform_lines
    assert live.alloc_events == expected.alloc_events


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_the_sink_changes_nothing(driver):
    assert DRIVERS[driver](CaptureSink()) == DRIVERS[driver](None)


def test_stream_passes_every_record_and_burst_to_the_sink(monkeypatch):
    """Bursts keep their stream offsets whatever the batch split: right
    after a flush, twice at one offset, and after the last record."""
    records = [(0, 64, 8), (4, 128, 2), (5, 0, 0), (1, 256, 8), (2, 512, 32)]
    for batch in (1, 2, 3, 8):
        monkeypatch.setattr(kernel, "STREAM_BATCH_RECORDS", batch)
        sink = CaptureSink()
        stream = kernel.LadderStream(WESTMERE, sink=sink)
        stream.burst()
        for record in records[:3]:
            stream.append(*record)
        stream.burst()
        stream.burst()
        for record in records[3:]:
            stream.append(*record)
        stream.burst()
        stream.flush()
        assert sink.records == records and sink.bursts == [0, 3, 3, 5]
        # Counters restart at the WARM record: one store touch, one ALLOC.
        assert (
            stream.touches, stream.cform_lines, stream.alloc_events
        ) == (1, 0, 1)
        assert stream.events.l1_accesses == 1

