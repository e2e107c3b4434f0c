"""The benchmark's own tests: the seeded draw, the exact output check,
hermetic runs and the traced run.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import draw
import layers
import run
import workloads
from repro.memory.hierarchy import WESTMERE
from repro.workloads.specs import SPEC_PROFILES

SEEDS = range(50)
L3_BYTES = WESTMERE.l3_geometry.size_bytes


@pytest.fixture(scope="module")
def reference():
    return draw.load_reference(str(run.REFERENCE_DIR))


@pytest.mark.parametrize("grid", sorted(draw.GRIDS))
def test_same_seed_same_draw_and_different_seeds_differ(grid):
    assert draw.draw(grid, 7) == draw.draw(grid, 7)
    draws = {tuple(draw.draw(grid, seed)) for seed in SEEDS}
    assert len(draws) == len(SEEDS)


@pytest.mark.parametrize("grid", sorted(draw.GRIDS))
def test_every_drawn_cell_is_in_the_reference(grid, reference):
    for seed in SEEDS:
        for cell in draw.draw(grid, seed):
            assert (cell.figure, cell.config, cell.benchmark) in reference


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_draws_at_least_40_ops(workload):
    grid = workloads.WORKLOADS[workload]
    for seed in SEEDS:
        cells = draw.draw(grid, seed)
        assert len(cells) >= 40
        assert len(set(cells)) == len(cells)


@pytest.mark.parametrize("grid", sorted(draw.GRIDS))
def test_draws_mix_heaps_on_both_sides_of_l3(grid):
    for seed in SEEDS:
        heaps = {
            SPEC_PROFILES[cell.benchmark].heap_kb * 1024 <= L3_BYTES
            for cell in draw.draw(grid, seed)
        }
        assert heaps == {True, False}


def test_corpus_draws_mix_fig04_rows_with_fig10_and_fig11_rows():
    for seed in SEEDS:
        cells = draw.draw("corpus", seed)
        figures = {cell.figure for cell in cells}
        assert figures == {"fig04", "fig10", "fig11"}
        fig04_rows = {c.benchmark for c in cells if c.figure == "fig04"}
        for benchmark in fig04_rows:
            sizes = [c for c in cells if c.figure == "fig04" and c.benchmark == benchmark]
            assert len(sizes) == 7  # seven variants share one baseline


def test_cells_run_in_sweep_order():
    cells = draw.draw("corpus", 3)
    assert cells == sorted(cells, key=draw.Cell.sort_key)
    assert [c.figure for c in cells] == sorted(c.figure for c in cells)


# -- runs -------------------------------------------------------------------

#: Small grids so a whole run takes seconds.
TINY_GRIDS = {
    "corpus": (draw.Row("fig04", "l2", None), draw.Row("fig10", "l2")),
    "live": (draw.Row("fig12", "l2", 2),),
}


@pytest.fixture
def tiny_grids(monkeypatch):
    for grid, rows in TINY_GRIDS.items():
        monkeypatch.setitem(draw.GRIDS, grid, rows)


def _snapshot(path):
    """Every file under ``path`` with its modification time."""
    if not os.path.exists(path):
        return None
    files = [
        os.path.join(dirpath, name)
        for dirpath, _dirnames, filenames in os.walk(path)
        for name in filenames
    ]
    return sorted((os.path.relpath(f, path), os.stat(f).st_mtime_ns) for f in files)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_is_hermetic_and_correct(
    workload, trace, tiny_grids, monkeypatch, tmp_path, capsys
):
    watched = [run.ROOT / ".repro-corpus", run.ROOT / "results"]
    before = [_snapshot(path) for path in watched]
    inherited = {name: str(tmp_path / name) for name in run.SCRUBBED_ENV}
    inherited["REPRO_FAULTS"] = '{"faults": [{"kind": "corrupt-object"}]}'
    for name, value in inherited.items():
        monkeypatch.setenv(name, value)
    leftovers = set(os.listdir(run.WORK_DIR)) if run.WORK_DIR.exists() else set()

    status = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    )

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = layers.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
    assert [_snapshot(path) for path in watched] == before
    assert not any(name in os.environ for name in run.SCRUBBED_ENV)
    assert not any(os.path.exists(path) for path in inherited.values())
    temporary = set(os.listdir(run.WORK_DIR)) - leftovers - {"reports", "traces"}
    assert temporary == set()  # the run's working directory is gone


def test_traced_run_attributes_layers(tiny_grids, tmp_path):
    workload = workloads.Workload("corpus-cold", 1, str(run.REFERENCE_DIR), str(tmp_path))
    metrics, passes = layers.trace(workload, tmp_path / "spans.jsonl")
    assert all(not p.failures for p in passes)
    cells = len(workload.cells)
    assert metrics["corpus.built"] == metrics["traces.record_calls"] > 0
    assert metrics["corpus.healed"] == 0
    assert metrics["traces.replay_calls"] == 2 * cells
    assert metrics["workloads.run_trace_calls"] == metrics["traces.record_calls"]
    assert metrics["traces.decode_records"] > 0
    assert metrics["memory.kernel_accesses"] > 0
    assert metrics["bench.unattributed_s"] >= 0
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    ops = [span for span in spans if span["name"] == "bench.op"]
    assert len(ops) == cells and all(span["parent"] is None for span in ops)
    assert all(span["op"] is not None for span in spans)


def test_warm_pass_records_nothing_and_verifies(tiny_grids, tmp_path):
    workload = workloads.Workload("figures-warm", 2, str(run.REFERENCE_DIR), str(tmp_path))
    try:
        metrics, passes = layers.trace(workload, tmp_path / "spans.jsonl")
    finally:
        workload.close()
    assert all(not p.failures for p in passes)
    assert metrics["corpus.built"] == 0 and metrics["traces.record_calls"] == 0
    assert metrics["corpus.verify_calls"] > 0
    assert metrics["corpus.hits"] == metrics["corpus.ensure_calls"]


def test_a_wrong_result_fails_the_op(tiny_grids, monkeypatch, tmp_path):
    real = draw.load_reference

    def skewed(results_dir):
        values = real(results_dir)
        return {key: value + 1e-12 for key, value in values.items()}

    monkeypatch.setattr(draw, "load_reference", skewed)
    workload = workloads.Workload("figures-live", 0, str(run.REFERENCE_DIR), str(tmp_path))
    workload.setup()
    result = workload.timed_pass()
    assert len(result.failures) == len(workload.cells)
    assert "!= reference" in result.failures[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-live",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
