"""Attack-replay trace driver: exploit-suite probes as a workload.

:mod:`repro.analysis.attacks` models nine concrete exploit access
patterns (intra-object overflows, adjacent over-reads, jump overflows,
use-after-free, heap scans, ...) against the schemes' functional models.
This driver turns the *memory behaviour* of that suite into a recordable
workload with the same contract as
:func:`repro.workloads.generator.run_trace`: a deterministic campaign of
heap grooming plus attack probe bursts, emitted as ``EV_*`` events into
the same columnar tag ladder (:class:`repro.memory.kernel.LadderStream`)
and passed on, a column batch at a time, to a trace-engine sink when
one is given.  A recorded
``attack-replay`` trace therefore replays bit-identically through the
standard replayers — the corpus can persist
adversarial traffic next to the benign mixes, and cache-side studies
(e.g. how probing sweeps pollute a co-runner's shared L3) run from the
same artifacts.

The campaign structure per burst:

1. pick a victim object (zipf-style, like the generator's locality);
2. run one attack pattern from the suite — the probe addresses reuse
   the geometry constants of :mod:`repro.analysis.attacks` (victim
   size, array end, jump distance), placed at the victim's address;
3. apply allocation churn at the profile's rate — the *grooming* side
   of a real exploit: frees and reallocations that recycle addresses
   (use-after-free probes deliberately target recently freed victims).

Instruction accounting mirrors the generator (``burst_length /
mem_ratio`` application instructions per burst, warmup discarded at the
``EV_WARM`` boundary), so pipeline-model cycles are comparable across
benign and adversarial traces.
"""

from __future__ import annotations

import random
from collections import deque

from repro.analysis.attacks import (
    _ARRAY_END,
    _VICTIM_SIZE,
    ATTACK_NAMES,
)
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.workloads.generator import (
    EV_ALLOC,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    RunResult,
    Scenario,
    live_stream,
)
from repro.workloads.specs import BenchmarkProfile

#: Heap placement mirrors the generator's synthetic address space.
_ARENA_BASE = 0x0200_0000

#: Victims are carved at the suite's object size plus a gap, so adjacent
#: and jump overflow probes land on neighbour/unallocated addresses the
#: way the suite's placement does.
_VICTIM_STRIDE = _VICTIM_SIZE + 64

#: Jump overflow distance (clears victim redzone and neighbour, as in
#: the suite's ``jump_overflow`` probe).
_JUMP_DISTANCE = _VICTIM_SIZE + 240

#: heap_scan probes per burst (the suite sweeps 32 random offsets).
_SCAN_PROBES = 32


def run_attack_trace(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    config: HierarchyConfig = WESTMERE,
    warmup_fraction: float = 1.0,
    sink=None,
    quarantine_delay: int = 16,
) -> RunResult:
    """Simulate one attack campaign; same contract as ``run_trace``.

    The sink never consumes ``rng``, so a recorded campaign is
    bit-identical to an unrecorded one (the round-trip invariant).
    ``scenario`` participates only through the result (attack traffic
    probes raw memory; no layout inflation or CFORM work is modelled).
    """
    with live_stream(config, sink, "attacks") as stream:
        total = _campaign(stream, profile, instructions, seed,
                          warmup_fraction, quarantine_delay)
    return RunResult.live(profile.name, scenario, total, stream)


def _campaign(stream, profile, instructions, seed, warmup_fraction,
              quarantine_delay) -> int:
    """Emit one campaign's event stream into ``stream``; return the
    measured application instruction count."""
    rng = random.Random(f"{profile.name}:{seed}")
    emit = stream.append

    # -- victim population --------------------------------------------------
    # A fixed-stride arena of victim slots; grooming recycles them
    # through a quarantine so UAF probes hit genuinely stale addresses.
    victim_count = max(8, (profile.heap_kb * 1024) // _VICTIM_STRIDE)
    victims = [
        _ARENA_BASE + index * _VICTIM_STRIDE for index in range(victim_count)
    ]
    next_slot = _ARENA_BASE + victim_count * _VICTIM_STRIDE
    quarantine: deque[int] = deque()
    recently_freed: deque[int] = deque(maxlen=16)

    # Pre-warm every victim line once, like the generator's first-touch
    # sweep, so measured misses reflect probe behaviour, not cold starts.
    for base in victims:
        for line_offset in range(0, _VICTIM_SIZE, 64):
            emit(EV_LOAD, base + line_offset, 8)

    skew_exponent = 1.0 / profile.locality_skew
    burst_instructions = profile.burst_length / profile.mem_ratio
    app_instructions = 0.0
    alloc_accumulator = 0.0

    attack_kinds = ATTACK_NAMES

    warmup_budget = instructions * warmup_fraction
    total_budget = warmup_budget + instructions
    warm = warmup_fraction == 0.0

    while app_instructions < total_budget:
        if not warm and app_instructions >= warmup_budget:
            warm = True
            app_instructions -= warmup_budget
            total_budget -= warmup_budget
            emit(EV_WARM, 0, 0)
        app_instructions += burst_instructions

        index = int(victim_count * rng.random() ** skew_exponent)
        base = victims[min(index, victim_count - 1)]
        attack = attack_kinds[rng.randrange(len(attack_kinds))]

        if attack == "intra_overflow":
            for probe in range(profile.burst_length):
                emit(EV_STORE, base + _ARRAY_END - 4 + probe, 8)
        elif attack == "intra_overread":
            for probe in range(profile.burst_length):
                emit(EV_LOAD, base + _ARRAY_END - 4 + probe, 8)
        elif attack == "adjacent_overflow":
            for probe in range(profile.burst_length):
                emit(EV_STORE, base + _VICTIM_SIZE + probe, 8)
        elif attack == "adjacent_overread":
            for probe in range(profile.burst_length):
                emit(EV_LOAD, base + _VICTIM_SIZE + probe, 8)
        elif attack == "off_by_one":
            emit(EV_STORE, base + _VICTIM_SIZE, 8)
        elif attack == "jump_overflow":
            emit(EV_STORE, base + _JUMP_DISTANCE, 8)
        elif attack == "underflow":
            emit(EV_STORE, base - 4, 8)
        elif attack == "use_after_free":
            # Dereference a recently recycled victim when grooming has
            # produced one; otherwise fall back to the chosen victim.
            stale = recently_freed[-1] if recently_freed else base
            for probe in range(profile.burst_length):
                emit(EV_LOAD, stale + 16 + probe * 8, 8)
        else:  # heap_scan
            for _ in range(_SCAN_PROBES):
                emit(EV_LOAD, base + rng.randrange(_VICTIM_SIZE), 8)

        # Grooming churn at the profile's allocation rate.
        alloc_accumulator += profile.allocs_per_kinst * burst_instructions / 1000.0
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            victim_index = rng.randrange(victim_count)
            old = victims[victim_index]
            emit(EV_FREE, old, _VICTIM_SIZE)
            quarantine.append(old)
            recently_freed.append(old)
            if len(quarantine) > quarantine_delay:
                new_base = quarantine.popleft()
            else:
                new_base = next_slot
                next_slot += _VICTIM_STRIDE
            victims[victim_index] = new_base
            emit(EV_ALLOC, new_base, _VICTIM_SIZE)

        stream.burst()

    return int(app_instructions)
