"""Recorder: tap a live generator run and persist its event stream.

The generator owns the workload logic; the recorder only listens.  A
:class:`RecordingSink` is handed to :func:`run_trace` as its ``sink``.
The driver's :class:`~repro.memory.kernel.LadderStream` hands it each
buffered batch of cache touch / allocation events as column arrays,
with the offsets of the bursts that ended inside it; the sink inserts an
EPOCH row every ``epoch_bursts`` bursts (the shard split points) and
passes the batch to a streaming
:class:`~repro.traces.compress.CompressedTraceWriter`, which cuts and
encodes its frames a batch at a time.  The sink never consumes the
generator's RNG, so a recorded run is
bit-identical to an unrecorded one — :func:`record_spec` returns the live
:class:`~repro.workloads.generator.RunResult` alongside the trace it
wrote, and the footer stores that result's statistics for replay-time
verification.
"""

from __future__ import annotations

import os

import numpy as np

from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.traces.compress import MAGIC_V2, CompressedTraceWriter
from repro.traces.format import EV_EPOCH
from repro.traces.registry import SPEC_VERSION, TraceScenarioSpec
from repro.workloads.generator import RunResult, run_trace


class RecordingSink:
    """The generator-side tap feeding a :class:`CompressedTraceWriter`."""

    __slots__ = ("_writer", "_epoch_bursts", "_bursts", "_epochs")

    def __init__(self, writer: CompressedTraceWriter, epoch_bursts: int):
        self._writer = writer
        self._epoch_bursts = epoch_bursts
        self._bursts = 0
        self._epochs = 0

    def extend(self, kinds, addresses, args, bursts) -> None:
        """One stream batch: write it with an EPOCH row inserted at every
        ``epoch_bursts``-th burst offset (``bursts`` counts on across
        batches)."""
        # The index in ``bursts`` of the first burst completing an epoch.
        first = -(self._bursts + 1) % self._epoch_bursts
        marks = bursts[first::self._epoch_bursts]
        self._bursts += len(bursts)
        if len(marks):
            epochs = np.arange(
                self._epochs, self._epochs + len(marks), dtype=np.int64
            )
            self._epochs += len(marks)
            kinds = np.insert(kinds, marks, EV_EPOCH)
            addresses = np.insert(addresses, marks, epochs)
            args = np.insert(args, marks, 0)
        self._writer.extend(kinds, addresses, args)

    @property
    def epochs(self) -> int:
        return self._epochs


def _geometry_dict(config: HierarchyConfig) -> dict:
    return {
        "l1": [config.l1_geometry.size_bytes, config.l1_geometry.associativity],
        "l2": [config.l2_geometry.size_bytes, config.l2_geometry.associativity],
        "l3": [config.l3_geometry.size_bytes, config.l3_geometry.associativity],
        "latencies": [
            config.l1_latency, config.l2_latency,
            config.l3_latency, config.dram_latency,
        ],
        # Figure 10's pessimistic-latency knobs: without these the
        # replayed cycle model would silently differ from the recorded
        # config's.
        "extra_cycles": [config.l2_extra_cycles, config.l3_extra_cycles],
    }


def _driver_for(spec: TraceScenarioSpec):
    """Resolve the spec's trace driver (the function that runs the
    workload live, with or without a sink).  ``generator`` is the
    synthetic SPEC-like engine; ``attacks`` replays the exploit-suite
    probe patterns of :mod:`repro.analysis.attacks` (heap grooming,
    overflow probes, scans) through the same cache ladder."""
    if spec.driver == "generator":
        return run_trace
    if spec.driver == "attacks":
        from repro.traces.attack_driver import run_attack_trace

        return run_attack_trace
    if spec.driver == "loadgen":
        # The composition is defined by the spec's driver_config (the
        # LoadScenario document), not by the call-site knobs, so the
        # driver is a per-spec closure.
        from repro.loadgen.compose import driver_for_spec

        return driver_for_spec(spec)
    raise ValueError(f"unknown trace driver {spec.driver!r}")


def live_run(spec: TraceScenarioSpec, config: HierarchyConfig = WESTMERE) -> RunResult:
    """Run a spec's workload live, unrecorded (driver-dispatched)."""
    return _driver_for(spec)(
        spec.profile,
        spec.build_scenario(),
        instructions=spec.instructions,
        seed=spec.seed,
        config=config,
        warmup_fraction=spec.warmup_fraction,
        quarantine_delay=spec.quarantine_delay,
    )


def record_spec(
    spec: TraceScenarioSpec,
    target,
    config: HierarchyConfig = WESTMERE,
) -> RunResult:
    """Record one registry scenario to ``target`` (path or file object).

    Runs the spec's driver live with the recording sink attached and
    returns the live :class:`RunResult`; the trace's footer carries the
    result's statistics so any replay can verify itself against the
    recording.  The trace is written as CALTRC02.
    """
    header = {
        "format": MAGIC_V2.decode("ascii"),
        "spec_version": SPEC_VERSION,
        "spec": spec.to_dict(),
        "geometry": _geometry_dict(config),
    }
    try:
        return _record_to_writer(spec, target, config, header)
    except BaseException:
        # A failed/interrupted recording must not leave a terminator-less
        # file behind for a later replay glob to choke on.
        if isinstance(target, str):
            try:
                os.remove(target)
            except OSError:
                pass
        raise


def _record_to_writer(spec, target, config, header) -> RunResult:
    with CompressedTraceWriter(target, header) as writer:
        sink = RecordingSink(writer, spec.epoch_bursts)
        result = _driver_for(spec)(
            spec.profile,
            spec.build_scenario(),
            instructions=spec.instructions,
            seed=spec.seed,
            config=config,
            warmup_fraction=spec.warmup_fraction,
            sink=sink,
            quarantine_delay=spec.quarantine_delay,
        )
        writer.set_footer(
            {
                "benchmark": result.benchmark,
                "instructions": result.instructions,
                "cform_instructions": result.cform_instructions,
                "alloc_events": result.alloc_events,
                "events": {
                    "l1_accesses": result.events.l1_accesses,
                    "l1_misses": result.events.l1_misses,
                    "l2_misses": result.events.l2_misses,
                    "l3_misses": result.events.l3_misses,
                },
                "records": writer.record_count,
                "epochs": sink.epochs,
            }
        )
    return result
