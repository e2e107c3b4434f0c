"""Benchmark of record: figure cells from a warm corpus, a cold corpus and
live generation.

    python3 perfbench/run.py --workload figures-warm --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run reports the
end-to-end metrics (host time rescaled to a reference speed, tracing
off; see ``workloads.ReferenceClock``); with ``--trace 1`` it runs
the timed pass once untraced and once with layer spans recorded, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Every
op's slowdown must equal ``results/reference/`` exactly; any failure
makes the command exit 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = ROOT / "results" / "reference"
#: Scratch space of every run (temporary corpora, span dumps, reports).
WORK_DIR = ROOT / ".perfbench"

#: Inherited settings that would heal, re-record, trace or relocate the
#: corpus inside a timed pass.
SCRUBBED_ENV = (
    "REPRO_TELEMETRY",
    "REPRO_FAULTS",
    "REPRO_CORPUS_DIR",
    "REPRO_LOCK_TIMEOUT",
    "REPRO_SCENARIO_DIR",
)


def stamp(workload: str, seed: int, trace: int) -> dict:
    """Where and on what a report was measured."""
    import numpy

    sha = "unknown"  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro").is_dir() or not REFERENCE_DIR.is_dir():
        print(
            f"perfbench: no program to measure ({SRC / 'repro'} and "
            f"{REFERENCE_DIR} are required)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.Workload(
        args.workload, args.seed, str(REFERENCE_DIR), work_dir
    )
    try:
        if args.trace:
            metrics, passes = layers.trace(
                workload, WORK_DIR / "traces" / f"{run_id}.jsonl"
            )
            units = layers.PER_LAYER_UNITS
        else:
            metrics, passes = workloads.measure(workload, args.seconds)
            units = workloads.END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(p.op_ms) for p in passes)
    failures = [failure for p in passes for failure in p.failures]
    report = {
        "stamp": stamp(args.workload, args.seed, args.trace),
        "ops_per_pass": len(workload.cells),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "passes": [
            {"wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s, "ops": len(p.op_ms)}
            for p in passes
        ],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    reports = WORK_DIR / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{run_id}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("stamp " + json.dumps(report["stamp"], sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{'failed_share':32s} {report['failed_share']:14.6g} share")
    for name, entry in report["metrics"].items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
