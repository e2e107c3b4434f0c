"""The three workloads: set-up, timed pass and exact output check.

Closed loop, one op at a time, one process, ``jobs=1``: every op is one
figure cell resolved through the program's public functions --
:meth:`repro.corpus.store.CorpusStore.slowdown` or
:func:`repro.workloads.generator.slowdown` -- and compared exactly with
``results/reference/``.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import draw
from repro.corpus.store import CorpusStore, figure_spec
from repro.workloads import generator
from repro.workloads.generator import RunResult, Scenario
from repro.workloads.specs import SPEC_PROFILES

#: workload -> the grid of :mod:`draw` it resolves.
WORKLOADS = {
    "figures-warm": "corpus",
    "figures-live": "live",
    "corpus-cold": "corpus",
}

#: Set-up runs at least twice and at most five times per measured run,
#: and stops repeating once the set-ups have taken this many host
#: seconds; ``setup_s`` is their median.  Recording the figures-warm
#: corpus takes about 18 s, so it is recorded twice, which keeps one
#: figures-warm run under a minute on a 2-core host.
SETUP_REPEATS = (2, 5)
SETUP_BUDGET_S = 20.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
}

#: Seconds :func:`calibration_kernel` takes at the reference speed: its
#: median on a 2-core Intel Xeon host (Python 3.11) with a busy
#: neighbour, the usual state of that host.
REFERENCE_KERNEL_S = 0.020


#: Geometry of the calibration kernel's LRU: 16384 sets of 16 ways over
#: a 128 MB address span, a footprint of a few MB like the program's
#: L3 model, so that it feels cache pressure from neighbours as the
#: program does.
KERNEL_SETS = 1 << 14
KERNEL_WAYS = 16
KERNEL_SPAN_BITS = 27
KERNEL_BURSTS = 6000


def calibration_kernel() -> float:
    """Host seconds of a fixed pure-Python LRU simulation.

    The kernel does the same kind of work as the program's hot loops
    (dict-backed set-associative LRU over a skewed random address
    stream) but runs none of its code, so a faster program leaves it
    unchanged while a busier host slows both alike.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(12345)
        sets = [OrderedDict() for _ in range(KERNEL_SETS)]
        index_bits = KERNEL_SETS.bit_length() - 1

        def access(address):
            line = address >> 6
            entries = sets[line & (KERNEL_SETS - 1)]
            tag = line >> index_bits
            if tag in entries:
                entries.move_to_end(tag)
                return True
            entries[tag] = None
            if len(entries) > KERNEL_WAYS:
                entries.popitem(last=False)
            return False

        for _ in range(KERNEL_BURSTS):
            base = int(rng.random() ** 3 * (1 << KERNEL_SPAN_BITS))
            for offset in range(0, 32, 8):
                access(base + offset)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Host time rescaled to the reference speed of the host.

    Neighbours on a shared host change how fast it runs from second to
    second, by up to twice.  The clock runs :func:`calibration_kernel`
    between timed intervals and scales each interval by the reference
    kernel time over the mean of the kernel times just before and just
    after it.
    """

    def __init__(self):
        self._before = calibration_kernel()
        self.raw_s = 0.0

    def scaled(self, raw_s: float) -> float:
        after = calibration_kernel()
        speed = (self._before + after) / 2
        self._before = after
        self.raw_s += raw_s
        return raw_s * REFERENCE_KERNEL_S / speed


@dataclass
class PassResult:
    """One timed pass over a draw; times at the reference speed."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    instructions: int = 0
    failures: list[str] = field(default_factory=list)


class Workload:
    """Set-up and timed pass of one workload over one draw.

    ``figures-warm`` records the draw's corpus at set-up and resolves
    every cell through a fresh verifying store handle, like a new
    ``repro run`` process; ``corpus-cold`` resolves the same grid
    through a store that starts empty on every pass; ``figures-live``
    generates Figure 12 cells live.
    """

    def __init__(self, name: str, seed: int, reference_dir: str, work_dir: str):
        self.name = name
        self.seed = seed
        self.reference_dir = reference_dir
        self.work_dir = work_dir
        self.corpus_root: str | None = None
        self.cells: list[draw.Cell] = []
        self.reference: dict = {}

    def setup(self) -> float:
        """Draw the cells, load their reference values and, for
        ``figures-warm``, record the draw's corpus into a fresh root.
        Returns the set-up time at the reference speed."""
        clock = ReferenceClock()
        start = time.perf_counter()
        self.reference = draw.load_reference(self.reference_dir)
        self.cells = draw.draw(WORKLOADS[self.name], self.seed)
        seconds = clock.scaled(time.perf_counter() - start)
        if self.name != "figures-warm":
            return seconds
        self.corpus_root = tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir)
        store = CorpusStore(self.corpus_root)
        for cell in self.cells:
            start = time.perf_counter()
            profile = SPEC_PROFILES[cell.benchmark]
            for scenario in (Scenario.baseline(), cell.scenario):
                store.ensure(figure_spec(profile, scenario, draw.INSTRUCTIONS))
            seconds += clock.scaled(time.perf_counter() - start)
        return seconds

    def timed_pass(self) -> PassResult:
        root = self.corpus_root
        if self.name == "corpus-cold":
            root = tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir)
        store = None if root is None else CorpusStore(root, verify_reads=True)
        compute = generator.slowdown if store is None else store.slowdown

        # sim_kips needs the simulated instructions behind every op; both
        # slowdown paths price the baseline and the variant through
        # RunResult.cycles, so counting there sees exactly those two runs.
        instructions = 0
        cycles = RunResult.cycles

        def counting_cycles(run, config, profile):
            nonlocal instructions
            instructions += run.instructions
            return cycles(run, config, profile)

        result = PassResult()
        clock = ReferenceClock()
        RunResult.cycles = counting_cycles
        try:
            for cell in self.cells:
                before = (store.built, store.healed) if store else None
                start = time.perf_counter()
                try:
                    value = compute(
                        SPEC_PROFILES[cell.benchmark],
                        cell.scenario,
                        instructions=draw.INSTRUCTIONS,
                        variant_config=cell.variant_config,
                    )
                except Exception as error:  # a failed op, not a failed run
                    value = error
                result.op_ms.append(clock.scaled(time.perf_counter() - start) * 1e3)
                problem = self._check(cell, value, store, before)
                if problem is not None:
                    result.failures.append(problem)
        finally:
            RunResult.cycles = cycles
            if self.name == "corpus-cold":
                shutil.rmtree(root)
        result.wall_s = sum(result.op_ms) / 1e3
        result.raw_wall_s = clock.raw_s
        result.instructions = instructions
        return result

    def _check(self, cell, value, store, before) -> str | None:
        label = f"{cell.figure} [{cell.config}] {cell.benchmark}"
        if isinstance(value, Exception):
            return f"{label}: raised {type(value).__name__}: {value}"
        expected = self.reference[(cell.figure, cell.config, cell.benchmark)]
        if value != expected:
            return f"{label}: slowdown {value!r} != reference {expected!r}"
        if store is not None:
            built, healed = before
            if store.healed != healed:
                return f"{label}: corpus healed {store.healed - healed} object(s)"
            if self.name == "figures-warm" and store.built != built:
                return f"{label}: warm pass recorded {store.built - built} trace(s)"
        return None

    def close(self) -> None:
        if self.corpus_root is not None:
            shutil.rmtree(self.corpus_root)
            self.corpus_root = None


def measure(workload: Workload, seconds: float) -> tuple[dict, list[PassResult]]:
    """End-to-end metrics, tracing off.

    Set-up repeats as :data:`SETUP_REPEATS` and :data:`SETUP_BUDGET_S`
    allow (``setup_s`` is the median); the timed pass repeats until
    ``seconds`` of host time have been measured, at least once
    (``wall_s`` is the median pass).
    """
    least, most = SETUP_REPEATS
    setups = []
    start = time.perf_counter()
    while len(setups) < least or (
        len(setups) < most and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        workload.close()
        setups.append(workload.setup())
    passes: list[PassResult] = []
    while not passes or sum(p.raw_wall_s for p in passes) < seconds:
        passes.append(workload.timed_pass())
    op_ms = [ms for p in passes for ms in p.op_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p75": statistics.quantiles(op_ms, n=4)[2],
        "sim_kips": sum(p.instructions for p in passes)
        / sum(p.wall_s for p in passes)
        / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, passes
