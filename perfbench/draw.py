"""Seeded draws of figure cells, and the reference values they must match.

An op is one figure cell: the slowdown of one (benchmark profile,
scenario) pair at the quick profile (80,000 instructions plus an equal
warm-up, binary seed 0) -- the input size ``results/reference/`` holds.
A draw is a pure function of ``(grid, seed)``.  It picks benchmark rows
per cache-ladder stratum and, for Figures 11 and 12, which
configurations each row carries, then orders the cells the way
:func:`repro.analysis.suite.sweep` runs them: figure by figure,
configuration-major, benchmark-minor.

Rows are drawn per stratum, by where the benchmark's heap sits on the
cache ladder: resident in L2, resident in L3, or overflowing L3 to DRAM.
The L3 and DRAM strata are covered whole, with drawn configurations:
their per-op costs differ by up to five times between benchmarks, so
drawing a few of them would make the cost of a run swing with the seed.
The L2 benchmarks cost about the same, and their rows are drawn.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace

from repro.experiments.context import PROFILES
from repro.experiments.fig04_padding_sweep import PADDING_SIZES
from repro.experiments.fig11_policies import _configurations as fig11_configurations
from repro.experiments.fig12_intelligent import SPAN_RANGES as FIG12_SPAN_RANGES
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.softstack.insertion import Policy
from repro.workloads.generator import Scenario
from repro.workloads.specs import FIG10_BENCHMARKS, FIG11_BENCHMARKS, SPEC_PROFILES

#: The quick profile: the input size of ``results/reference/``.
INSTRUCTIONS = PROFILES["quick"][0]
BINARY_SEED = PROFILES["quick"][1][0]

FIG10_CONFIG = "+1 cycle L2/L3"
FIG10_VARIANT = WESTMERE.with_extra_latency(1)


def _fig12_configurations() -> dict[str, Scenario]:
    configs = {}
    for with_cform in (False, True):
        for low, high in FIG12_SPAN_RANGES:
            suffix = " +CFORM" if with_cform else ""
            configs[f"intelligent {low}-{high}B{suffix}"] = Scenario(
                policy=Policy.INTELLIGENT,
                min_bytes=low,
                max_bytes=high,
                with_cform=with_cform,
            )
    return configs


#: figure -> (benchmark list, {configuration: scenario}), in sweep order.
FIGURES: dict[str, tuple[list[str], dict[str, Scenario]]] = {
    "fig04": (
        FIG10_BENCHMARKS,
        {str(size): Scenario(policy=("fixed", size)) for size in PADDING_SIZES},
    ),
    "fig10": (FIG10_BENCHMARKS, {FIG10_CONFIG: Scenario.baseline()}),
    "fig11": (FIG11_BENCHMARKS, fig11_configurations()),
    "fig12": (FIG11_BENCHMARKS, _fig12_configurations()),
}


def stratum(benchmark: str, config: HierarchyConfig = WESTMERE) -> str:
    """Where the benchmark's unprotected heap sits on the cache ladder."""
    heap = SPEC_PROFILES[benchmark].heap_kb * 1024
    if heap <= config.l2_geometry.size_bytes:
        return "l2"
    if heap <= config.l3_geometry.size_bytes:
        return "l3"
    return "dram"


@dataclass(frozen=True)
class Row:
    """One row of a grid: a benchmark drawn from ``stratum`` for
    ``figure`` (``every``: one row for each benchmark of the stratum),
    carrying ``configs`` drawn configurations (``None``: every
    configuration of the figure)."""

    figure: str
    stratum: str
    configs: int | None = None
    every: bool = False


#: Figures 4, 10 and 11, resolved through the corpus (figures-warm and
#: corpus-cold).  Figure 4 rows share one baseline across seven
#: variants; Figure 10 and 11 rows share less.
CORPUS_GRID = (
    Row("fig04", "l2"),
    Row("fig04", "l2"),
    Row("fig10", "l3", every=True),
    Row("fig10", "dram", every=True),
    Row("fig11", "l3", 2, every=True),
)

#: Figure 12, generated live (figures-live).
LIVE_GRID = (
    Row("fig12", "l2", 4),
    Row("fig12", "l2", 4),
    Row("fig12", "l2", 4),
    Row("fig12", "l2", 4),
    Row("fig12", "l3", 4, every=True),
    Row("fig12", "dram", 1, every=True),
)

GRIDS = {"corpus": CORPUS_GRID, "live": LIVE_GRID}


@dataclass(frozen=True)
class Cell:
    """One figure cell: the unit of work ("op") of the benchmark."""

    figure: str
    config: str
    benchmark: str

    @property
    def scenario(self) -> Scenario:
        return replace(FIGURES[self.figure][1][self.config], binary_seed=BINARY_SEED)

    @property
    def variant_config(self) -> HierarchyConfig | None:
        return FIG10_VARIANT if self.figure == "fig10" else None

    def sort_key(self) -> tuple[int, int, int]:
        benchmarks, configs = FIGURES[self.figure]
        return (
            list(FIGURES).index(self.figure),
            list(configs).index(self.config),
            benchmarks.index(self.benchmark),
        )


def draw(grid: str, seed: int) -> list[Cell]:
    """The cells of one run: a pure function of ``(grid, seed)``."""
    rng = random.Random(f"perfbench:{grid}:{seed}")
    used: dict[str, set[str]] = {}
    cells = []
    for row in GRIDS[grid]:
        benchmarks, configs = FIGURES[row.figure]
        taken = used.setdefault(row.figure, set())
        candidates = [
            name
            for name in benchmarks
            if stratum(name) == row.stratum and name not in taken
        ]
        for benchmark in candidates if row.every else [rng.choice(candidates)]:
            taken.add(benchmark)
            names = list(configs)
            if row.configs is not None:
                names = rng.sample(names, row.configs)
            cells.extend(Cell(row.figure, name, benchmark) for name in names)
    return sorted(cells, key=Cell.sort_key)


def load_reference(results_dir: str) -> dict[tuple[str, str, str], float]:
    """``(figure, config, benchmark) -> per_benchmark[].mean`` from the
    committed reference results of Figures 4, 10, 11 and 12."""
    reference = {}
    for figure in FIGURES:
        with open(os.path.join(results_dir, f"{figure}.json")) as handle:
            data = json.load(handle)["data"]
        if figure == "fig04":
            suites = data["per_size"]
        elif figure == "fig10":
            suites = {FIG10_CONFIG: data["suite"]}
        else:
            suites = data["configurations"]
        for config, suite in suites.items():
            for entry in suite["per_benchmark"]:
                reference[(figure, config, entry["benchmark"])] = entry["mean"]
    return reference
