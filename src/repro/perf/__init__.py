"""Performance harness for the Califorms simulator.

The paper's design argument is that the *common case stays fast*:
califormed lines are converted exactly once per L1 fill or spill, and
every other access runs at natural speed.  This package applies the same
discipline to the simulator itself — it measures the software hot paths
(the sentinel codec, the L1 hit path, the full experiment pipeline) and
records a machine-readable trajectory so regressions are visible PR over
PR.

Entry point::

    python -m repro perf [--iterations N] [--warmup N] [--profile]
                         [--scenario NAME ...] [--label LABEL]

Each run writes ``BENCH_<label>.json`` (default label: a UTC timestamp)
under ``benchmarks/trajectory/``; see BENCHMARKS.md for the schema and
how to read the trajectory.
"""

from repro.perf.harness import BenchResult, run_timed
from repro.perf.report import SCHEMA_VERSION, build_report, write_report
from repro.perf.scenarios import SCENARIOS, get_scenarios

__all__ = [
    "BenchResult",
    "run_timed",
    "SCHEMA_VERSION",
    "build_report",
    "write_report",
    "SCENARIOS",
    "get_scenarios",
]
