"""Perf scenarios: the simulator's hot paths, packaged for the harness.

Each scenario builds a deterministic workload (fixed RNG seeds) and
returns a zero-argument callable plus the number of logical operations
one call performs, so the harness can report ops/sec.  The codec
scenarios deliberately mirror ``benchmarks/test_microbench_codec.py`` —
the trajectory produced here is the regression record for those
microbenchmarks.

Scenario families:

``codec_*``
    The sentinel spill/fill paths (Algorithms 1 and 2) — the conversion
    work Table 2 prices in hardware.
``normalize``
    Security-byte zeroing, the L1-side canonicalisation step.
``hierarchy_*`` / ``trace_replay``
    The functional memory stack: hit path, califormed eviction pressure,
    and a mixed load/store trace replayed through the batched API when
    the hierarchy provides one.
``trace_record`` / ``trace_multicore_replay``
    The trace engine (``repro.traces``): recording one quick-profile
    figure cell to an in-memory CALTRC02 trace (live generation, the
    tag ladder and frame encode included), and the
    2-core shared-L3 interleaved replay of an antagonist pair.
``trace_compress`` / ``trace_decompress_replay``
    The CALTRC02 codec hot paths: re-encoding a recorded trace into
    fresh compressed frames (column decode, then delta/run-length
    tokenisation + zlib), and the streaming bit-identical replay that
    inflates and de-tokenises frame groups — the corpus store's write
    and read sides.
``loadgen_generate``
    The open-loop traffic engine (``repro.loadgen``): composing a
    2-tenant scenario's merged arrival stream and recording it as one
    compressed CALTRC02 trace.
``kernel_ladder``
    The LRU tag kernel alone: a fixed touch column, captured once from
    a seeded generator run, through a fresh Table 3 ``LadderKernel`` in
    live-stream-sized blocks — the layer every cache statistic comes
    from, without generation or decode around it.
``experiment_e2e``
    A small end-to-end slice of the Figure 10 experiment pipeline.
``codec_reference``
    The retained pure-reference codec, measured with the same workload
    as ``codec_encode``/``codec_decode`` so every report carries its own
    optimized-vs-reference speedup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core import bitvector as bv
from repro.core import line_formats, sentinel
from repro.core.cform import CformRequest
from repro.core.line_formats import BitvectorLine
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

#: (callable, ops_per_iteration) returned by each scenario factory.
Workload = tuple[Callable[[], object], int]


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    build: Callable[[bool], Workload]
    default_iterations: int = 30
    default_warmup: int = 3


def _random_lines(count: int, security_bytes: int, seed: int = 0) -> list[BitvectorLine]:
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        data = bytearray(rng.randrange(256) for _ in range(64))
        indices = rng.sample(range(64), security_bytes)
        lines.append(BitvectorLine(data, bv.mask_from_indices(indices)))
    return lines


def _codec_encode(quick: bool) -> Workload:
    count = 64 if quick else 256
    lines = _random_lines(count, security_bytes=6)
    encode = sentinel.encode

    def spill_all() -> None:
        for line in lines:
            encode(line)

    return spill_all, count


def _codec_decode(quick: bool) -> Workload:
    count = 64 if quick else 256
    encoded = [sentinel.encode(line) for line in _random_lines(count, security_bytes=6)]
    decode = sentinel.decode

    def fill_all() -> None:
        for line in encoded:
            decode(line)

    return fill_all, count


def _codec_roundtrip_dense(quick: bool) -> Workload:
    count = 32 if quick else 128
    lines = _random_lines(count, security_bytes=24, seed=1)
    encode, decode = sentinel.encode, sentinel.decode

    def roundtrip_all() -> None:
        for line in lines:
            decode(encode(line))

    return roundtrip_all, count


def _codec_reference(quick: bool) -> Workload:
    # Before the fast-path rewrite the reference IS the production codec;
    # afterwards the retained *_reference functions keep this comparable.
    encode = getattr(sentinel, "encode_reference", sentinel.encode)
    decode = getattr(sentinel, "decode_reference", sentinel.decode)
    count = 64 if quick else 256
    lines = _random_lines(count, security_bytes=6)
    encoded = [encode(line) for line in lines]

    def reference_both() -> None:
        for line in lines:
            encode(line)
        for enc in encoded:
            decode(enc)

    return reference_both, 2 * count


def _normalize(quick: bool) -> Workload:
    count = 64 if quick else 256
    rng = random.Random(3)
    pairs = []
    for _ in range(count):
        data = bytes(rng.randrange(256) for _ in range(64))
        pairs.append((data, rng.getrandbits(64) & bv.FULL_MASK))
    normalize = line_formats.normalize_security_bytes

    def normalize_all() -> None:
        for data, mask in pairs:
            normalize(data, mask)

    return normalize_all, count


def _hierarchy_l1_hits(quick: bool) -> Workload:
    count = 64 if quick else 256
    hierarchy = MemoryHierarchy()
    hierarchy.store_or_raise(0x1000, b"warm")
    load = hierarchy.load

    def hit_loop() -> None:
        for _ in range(count):
            load(0x1000, 8)

    return hit_loop, count


def _hierarchy_califormed_evictions(quick: bool) -> Workload:
    lines = 32 if quick else 64
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(8 * 64, 2),
        l2_geometry=CacheGeometry(32 * 64, 4),
        l3_geometry=CacheGeometry(128 * 64, 8),
    )
    hierarchy = MemoryHierarchy(config)
    for index in range(lines):
        hierarchy.cform(CformRequest.set_bytes(index * 64, [1, 2, 3]))
    load = hierarchy.load

    def thrash() -> None:
        for index in range(lines):
            load(index * 64 + 8, 4)

    return thrash, lines


def _make_trace(ops: int, seed: int = 7) -> list[tuple]:
    """Mixed load/store trace over 512 lines, ~10% of them califormed."""
    rng = random.Random(seed)
    trace: list[tuple] = []
    for _ in range(ops):
        line = rng.randrange(512)
        offset = rng.randrange(56)
        address = line * 64 + offset
        if rng.random() < 0.5:
            trace.append(("L", address, rng.choice((1, 2, 4, 8))))
        else:
            trace.append(("S", address, bytes([rng.randrange(256)] * 4)))
    return trace


def _trace_replay(quick: bool) -> Workload:
    ops = 512 if quick else 4096
    trace = _make_trace(ops)
    hierarchy = MemoryHierarchy()
    for line in range(0, 512, 10):
        hierarchy.cform(CformRequest.set_bytes(line * 64, [62, 63]))
    replay = getattr(hierarchy, "replay_trace", None)
    if replay is not None:
        def run_trace() -> None:
            replay(trace)
    else:
        # Pre-batched-API fallback: the per-op public interface.
        def run_trace() -> None:
            for op in trace:
                if op[0] == "L":
                    hierarchy.load(op[1], op[2])
                else:
                    hierarchy.store(op[1], op[2])

    return run_trace, ops


def _trace_record(quick: bool) -> Workload:
    from io import BytesIO

    from repro.corpus.store import figure_spec
    from repro.experiments.context import PROFILES
    from repro.traces.recorder import record_spec
    from repro.workloads.generator import Scenario
    from repro.workloads.specs import profile

    # One size for both modes: one quick-profile figure cell (the gcc
    # baseline of Figures 4, 10 and 11), the unit a cold corpus records,
    # sized to stay over 100 ms per iteration.
    instructions = PROFILES["quick"][0]
    spec = figure_spec(profile("gcc"), Scenario.baseline(), instructions)

    def record_once() -> None:
        record_spec(spec, BytesIO())

    return record_once, 1


def _trace_multicore_replay(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec
    from repro.traces.replayer import replay_multicore

    length = 2_000 if quick else 8_000
    raws: list[bytes] = []
    records = 0
    for name in ("server-churn", "pointer-chase"):
        buffer = BytesIO()
        record_spec(corpus_spec(name).scaled(length), buffer)
        raws.append(buffer.getvalue())
        records += TraceReader(BytesIO(raws[-1])).read_footer()["records"]

    def replay_once() -> None:
        replay_multicore([BytesIO(raw) for raw in raws], jobs=1)

    return replay_once, records


def _trace_compress(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.compress import transcode
    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec

    spec = corpus_spec("server-churn").scaled(2_000 if quick else 10_000)
    buffer = BytesIO()
    record_spec(spec, buffer)
    raw = buffer.getvalue()
    records = TraceReader(BytesIO(raw)).read_footer()["records"]

    def compress_once() -> None:
        transcode(BytesIO(raw), BytesIO())

    return compress_once, records


def _trace_decompress_replay(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec
    from repro.traces.replayer import replay_timing

    spec = corpus_spec("server-churn").scaled(2_000 if quick else 10_000)
    buffer = BytesIO()
    record_spec(spec, buffer)
    raw = buffer.getvalue()
    records = TraceReader(BytesIO(raw)).read_footer()["records"]

    def replay_once() -> None:
        replay_timing(BytesIO(raw))

    return replay_once, records


def _loadgen_generate(quick: bool) -> Workload:
    from io import BytesIO

    from repro.loadgen.compose import compose_spec
    from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
    from repro.traces.recorder import record_spec

    load = LoadScenario(
        name="perf-loadgen",
        description="perf harness: 2-tenant allocator-stress composition",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=300.0),
        mix=(MixEntry(profile="allocator-stress", weight=1.0),),
        tenants=2,
        duration_s=0.25 if quick else 0.5,
        seed=5,
    )
    spec = compose_spec(load)

    def generate_once() -> None:
        record_spec(spec, BytesIO())

    return generate_once, 1


def _kernel_ladder(quick: bool) -> Workload:
    from types import SimpleNamespace

    import numpy as np

    from repro.memory.hierarchy import WESTMERE
    from repro.memory.kernel import LadderKernel, expand_touches
    from repro.workloads.generator import Scenario, run_trace
    from repro.workloads.specs import profile

    # One size for both modes: the scenario exists to time the kernel,
    # and a smaller column would fall under 100 ms per iteration.
    batches: list[tuple] = []
    sink = SimpleNamespace(
        extend=lambda *batch: batches.append(batch[:3])
    )
    run_trace(profile("xalancbmk"), Scenario.baseline(), 300_000, sink=sink)
    kinds, addresses, args = (
        np.concatenate(column) for column in zip(*batches)
    )
    touches = expand_touches(kinds, addresses, args)[0]
    blocks = np.array_split(touches, max(1, len(touches) >> 14))

    def run_ladder() -> None:
        ladder = LadderKernel(WESTMERE)
        for block in blocks:
            ladder.touch_block(block)

    return run_ladder, len(touches)


def _experiment_e2e(quick: bool) -> Workload:
    from repro.experiments import fig10_extra_latency

    instructions = 4000 if quick else 8000
    benchmarks = fig10_extra_latency.FIG10_BENCHMARKS[:2]

    def run_slice() -> None:
        fig10_extra_latency.run(instructions=instructions, benchmarks=benchmarks)

    return run_slice, 1


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "codec_encode",
            "sentinel spill path (Algorithm 1), 6 security bytes/line",
            _codec_encode,
        ),
        Scenario(
            "codec_decode",
            "sentinel fill path (Algorithm 2), 6 security bytes/line",
            _codec_decode,
        ),
        Scenario(
            "codec_roundtrip_dense",
            "encode+decode with 24 security bytes/line (sentinel scan stress)",
            _codec_roundtrip_dense,
        ),
        Scenario(
            "codec_reference",
            "pure-reference encode+decode on the codec_encode workload",
            _codec_reference,
        ),
        Scenario(
            "normalize",
            "security-byte zeroing over random 64-bit masks",
            _normalize,
        ),
        Scenario(
            "hierarchy_l1_hits",
            "repeated L1 hit-path loads of one warm line",
            _hierarchy_l1_hits,
        ),
        Scenario(
            "hierarchy_califormed_evictions",
            "califormed spill/fill under eviction pressure (tiny geometry)",
            _hierarchy_califormed_evictions,
        ),
        Scenario(
            "trace_replay",
            "mixed load/store trace through the hierarchy's batched fast loop",
            _trace_replay,
        ),
        Scenario(
            "trace_record",
            "trace engine: record one allocator-stress run to a memory buffer",
            _trace_record,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_multicore_replay",
            "2-core shared-L3 replay of a server-churn + pointer-chase pair",
            _trace_multicore_replay,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_compress",
            "CALTRC02 encode: re-encode a recorded trace into fresh frames",
            _trace_compress,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_decompress_replay",
            "CALTRC02 decode: streaming frame-inflating bit-identical replay",
            _trace_decompress_replay,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "loadgen_generate",
            "traffic engine: compose + record a 2-tenant open-loop scenario",
            _loadgen_generate,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "kernel_ladder",
            "LRU tag kernel: a captured touch column through the L1-L3 ladder",
            _kernel_ladder,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "experiment_e2e",
            "end-to-end Figure 10 slice (2 benchmarks, short trace)",
            _experiment_e2e,
            default_iterations=5,
            default_warmup=1,
        ),
    )
}


def get_scenarios(names: list[str] | None) -> list[Scenario]:
    """Resolve scenario names (``None`` → all), preserving registry order."""
    if not names:
        return list(SCENARIOS.values())
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario(s) {unknown}; known: {known}")
    return [SCENARIOS[name] for name in names]
