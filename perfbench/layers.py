"""The traced run: layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps each layer's entry point at the name its caller
binds (``repro.corpus.store.replay_timing``, not only
``repro.traces.replayer.replay_timing``) and records one span per call:
name, start, end, parent span and op id.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans'
duration minus their child spans; op time covered by no layer span is
``bench.unattributed_s``.

The program's own ``decode_*``/``kernel_*`` counters come from its
telemetry (``$REPRO_TELEMETRY``), switched on for the traced pass only.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro.corpus.store as store_module
import repro.traces.recorder as recorder_module
from repro.corpus.store import CorpusStore
from repro.memory.kernel import LadderKernel
from repro.telemetry import runtime as telemetry
from repro.traces.format import TraceReader
from repro.workloads import generator
from repro.workloads.generator import RunResult

PER_LAYER_UNITS = {
    "corpus.verify_calls": "count",
    "corpus.verify_s": "s",
    "corpus.verify_mb": "MB",
    "corpus.verify_unique_ratio": "ratio",
    "corpus.ensure_calls": "count",
    "corpus.ensure_s": "s",
    "corpus.hits": "count",
    "corpus.built": "count",
    "corpus.healed": "count",
    "corpus.manifest_s": "s",
    "corpus.manifest_saves": "count",
    "traces.replay_calls": "count",
    "traces.replay_s": "s",
    "traces.replay_unique_ratio": "ratio",
    "traces.decode_s": "s",
    "traces.decode_records": "count",
    "traces.decode_scalar_fallback": "count",
    "traces.record_calls": "count",
    "traces.record_s": "s",
    "traces.record_records": "count",
    "memory.kernel_s": "s",
    "memory.kernel_accesses": "count",
    "memory.kernel_tail_share": "ratio",
    "workloads.run_trace_calls": "count",
    "workloads.run_trace_s": "s",
    "workloads.run_trace_unique_ratio": "ratio",
    "analysis.timing_model_s": "s",
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_s": "s",
}

#: Span name -> the layer its self time is charged to in the table.
LAYERS = {
    "bench.op": "unattributed",
    "corpus.ensure": "corpus.ensure",
    "corpus.verify": "corpus.verify",
    "corpus.manifest.load": "corpus.manifest",
    "corpus.manifest.save": "corpus.manifest",
    "corpus.manifest.lock": "corpus.manifest",
    "traces.record": "traces.record",
    "traces.replay": "traces.replay",
    "traces.decode": "traces.decode",
    "memory.kernel": "memory.kernel",
    "workloads.run_trace": "workloads.run_trace",
    "analysis.timing_model": "analysis.timing_model",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records layer spans while installed (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stores: list[CorpusStore] = []
        self._stack: list[Span] = []
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _start(self, name: str, new_op: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_op:
            op = self._ops
            self._ops += 1
        else:
            op = parent.op if parent is not None else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent is not None else None,
            op=op,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, new_op=False, annotate=None):
        def wrapper(*args, **kwargs):
            span = self._start(name, new_op)
            try:
                result = func(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                return result
            finally:
                self._finish(span)

        return wrapper

    def _patch(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **options))

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._patch(CorpusStore, "slowdown", "bench.op", new_op=True)
        self._patch(generator, "slowdown", "bench.op", new_op=True)
        self._patch(CorpusStore, "ensure", "corpus.ensure", annotate=self._on_ensure)
        self._patch(store_module, "canonical_digest", "corpus.verify", annotate=_on_digest)
        self._patch(store_module, "load_manifest", "corpus.manifest.load")
        self._patch(store_module, "save_manifest", "corpus.manifest.save")
        self._patch(store_module, "record_spec", "traces.record")
        self._patch(store_module, "replay_timing", "traces.replay", annotate=_on_replay)
        self._patch(LadderKernel, "touch_block", "memory.kernel")
        self._patch(generator, "run_trace", "workloads.run_trace", annotate=_on_run_trace)
        self._patch(recorder_module, "run_trace", "workloads.run_trace", annotate=_on_run_trace)
        self._patch(RunResult, "cycles", "analysis.timing_model")

        lock = store_module.manifest_lock
        self._patches.append((store_module, "manifest_lock", lock))

        @contextmanager
        def traced_lock(*args, **kwargs):
            span = self._start("corpus.manifest.lock")
            try:
                with lock(*args, **kwargs):
                    yield
            finally:
                self._finish(span)

        store_module.manifest_lock = traced_lock

        batches = TraceReader.column_batches
        self._patches.append((TraceReader, "column_batches", batches))

        def traced_batches(reader):
            iterator = batches(reader)
            while True:
                span = self._start("traces.decode")
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._finish(span)
                yield batch

        TraceReader.column_batches = traced_batches
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _on_ensure(self, span, args, kwargs, resolved) -> None:
        store = args[0]
        if all(seen is not store for seen in self.stores):
            self.stores.append(store)
        if resolved.built:
            span.attrs["records"] = resolved.entry.records

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the duration of its children."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def layer_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = LAYERS[span.name]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def metrics(self, counters: dict[str, float]) -> dict[str, float]:
        own = self.self_times()

        def named(prefix):
            return [
                (span, seconds)
                for span, seconds in zip(self.spans, own)
                if span.name.startswith(prefix)
            ]

        def calls(prefix):
            return len(named(prefix))

        def seconds(prefix):
            return sum(seconds for _, seconds in named(prefix))

        def unique_ratio(prefix, key):
            spans = [span for span, _ in named(prefix)]
            return len({span.attrs[key] for span in spans}) / len(spans) if spans else 0.0

        def counter(name):
            return sum(
                value
                for key, value in counters.items()
                if key == name or key.startswith(name + "{")
            )

        kernel_accesses = counter("kernel_accesses_total")
        return {
            "corpus.verify_calls": calls("corpus.verify"),
            "corpus.verify_s": seconds("corpus.verify"),
            "corpus.verify_mb": sum(
                span.attrs["bytes"] for span, _ in named("corpus.verify")
            ) / 1e6,
            "corpus.verify_unique_ratio": unique_ratio("corpus.verify", "digest"),
            "corpus.ensure_calls": calls("corpus.ensure"),
            "corpus.ensure_s": seconds("corpus.ensure"),
            "corpus.hits": sum(store.hits for store in self.stores),
            "corpus.built": sum(store.built for store in self.stores),
            "corpus.healed": sum(store.healed for store in self.stores),
            "corpus.manifest_s": seconds("corpus.manifest"),
            "corpus.manifest_saves": calls("corpus.manifest.save"),
            "traces.replay_calls": calls("traces.replay"),
            "traces.replay_s": seconds("traces.replay"),
            "traces.replay_unique_ratio": unique_ratio("traces.replay", "object"),
            "traces.decode_s": seconds("traces.decode"),
            "traces.decode_records": counter("decode_records_total"),
            "traces.decode_scalar_fallback": counter("decode_scalar_fallback_total"),
            "traces.record_calls": calls("traces.record"),
            "traces.record_s": seconds("traces.record"),
            "traces.record_records": sum(
                span.attrs.get("records", 0) for span, _ in named("corpus.ensure")
            ),
            "memory.kernel_s": seconds("memory.kernel"),
            "memory.kernel_accesses": kernel_accesses,
            "memory.kernel_tail_share": (
                counter("kernel_tail_accesses_total") / kernel_accesses
                if kernel_accesses
                else 0.0
            ),
            "workloads.run_trace_calls": calls("workloads.run_trace"),
            "workloads.run_trace_s": seconds("workloads.run_trace"),
            "workloads.run_trace_unique_ratio": unique_ratio(
                "workloads.run_trace", "inputs"
            ),
            "analysis.timing_model_s": seconds("analysis.timing_model"),
            "bench.unattributed_s": seconds("bench.op"),
        }

    def table(self, workload: str) -> str:
        """Self time per layer, largest first, with the unattributed row."""
        totals = self.layer_seconds()
        op_time = sum(span.duration for span in self.spans if span.name == "bench.op")
        lines = [
            f"layer self times, {workload} (traced pass, {self._ops} ops, "
            f"{op_time:.3f} s in ops)",
            f"  {'layer':24s} {'self_s':>9s} {'share':>7s}",
        ]
        for layer, seconds in sorted(totals.items(), key=lambda item: -item[1]):
            share = seconds / op_time if op_time else 0.0
            lines.append(f"  {layer:24s} {seconds:9.3f} {share:7.1%}")
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                }
                record.update(span.attrs)
                handle.write(json.dumps(record, default=str) + "\n")


def _on_digest(span, args, kwargs, result) -> None:
    digest, length, _footer = result
    span.attrs["digest"] = digest
    span.attrs["bytes"] = length


def _on_replay(span, args, kwargs, result) -> None:
    span.attrs["object"] = os.path.basename(str(args[0]))


_RUN_TRACE_SIGNATURE = inspect.signature(generator.run_trace)


def _on_run_trace(span, args, kwargs, result) -> None:
    bound = _RUN_TRACE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    bound.arguments.pop("sink")
    span.attrs["inputs"] = repr(sorted(bound.arguments.items()))


@contextmanager
def program_counters(directory: str):
    """Switch on the program's telemetry counters into ``directory``;
    yields the dict that receives their final values."""
    counters: dict[str, float] = {}
    telemetry.configure(directory, fresh=True)
    try:
        yield counters
    finally:
        handle = telemetry.active()
        if handle is not None:
            counters.update(handle.registry.snapshot()["counters"])
        telemetry.shutdown()


def trace(workload, spans_path: Path) -> tuple[dict, list]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    workload.setup()
    untraced = workload.timed_pass()
    telemetry_dir = os.path.join(workload.work_dir, "telemetry")
    with program_counters(telemetry_dir) as counters, Tracer() as tracer:
        traced = workload.timed_pass()
    metrics = tracer.metrics(counters)
    metrics["bench.tracing_overhead_s"] = traced.wall_s - untraced.wall_s
    tracer.dump(spans_path)
    print(tracer.table(workload.name))
    return metrics, [untraced, traced]
