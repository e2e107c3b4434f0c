"""Multi-core shared-L3 replay invariants (ISSUE 3 acceptance tests).

The three pinned invariants:

* merged (and per-core) accounting identical for any ``jobs`` value;
* a 1-core ``replay-mc`` reproduces the single-ladder ``replay``
  statistics exactly;
* shared-L3 contention never makes a core's L3 miss count better than
  its solo run, and is strictly worse for at least one antagonist
  pairing.
"""

import io

import pytest

from repro.traces import (
    CORPUS,
    record_spec,
    replay_multicore,
    replay_shards,
    replay_timing,
    shard_trace,
)
from repro.traces.format import TraceFormatError


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    """Recorded traces for the multicore tests.

    ``scan-heavy`` is the antagonist: its ~4 MB streaming footprint
    overflows the 2 MB shared L3, so co-runners genuinely contend
    (server-churn and pointer-chase alone both fit).
    """
    workdir = tmp_path_factory.mktemp("mc")
    paths = {}
    for name, length in (
        ("server-churn", 4_000),
        ("pointer-chase", 4_000),
        ("scan-heavy", 3_000),
    ):
        path = str(workdir / f"{name}.trace")
        record_spec(CORPUS[name].scaled(length), path)
        paths[name] = path
    return paths


class TestJobsInvariance:
    def test_merged_and_per_core_identical_across_jobs(self, trace_pair):
        sources = list(trace_pair.values())
        serial = replay_multicore(sources, jobs=1)
        parallel = replay_multicore(sources, jobs=4)
        assert serial == parallel  # per-core, merged, everything

    def test_merged_is_sum_of_per_core(self, trace_pair):
        replay = replay_multicore(list(trace_pair.values()))
        merged = replay.per_core[0]
        for stats in replay.per_core[1:]:
            merged = merged.merged_with(stats)
        assert replay.merged == merged

    def test_pool_never_exceeds_the_core_count(
        self, trace_pair, record_pool_sizes
    ):
        from repro.traces import replayer

        sizes = record_pool_sizes(replayer)
        sources = list(trace_pair.values())
        assert replay_multicore(sources, jobs=8) == replay_multicore(sources)
        assert sizes == [len(sources)]


class TestSingleCoreEquivalence:
    def test_one_core_matches_single_ladder_replay(self, trace_pair):
        path = trace_pair["server-churn"]
        single = replay_timing(path)
        multi = replay_multicore([path])
        assert multi.cores == 1
        stats = multi.per_core[0]
        assert stats.events == single.events
        assert stats.cform_lines == single.cform_instructions
        assert stats.alloc_events == single.alloc_events
        assert multi.merged == stats

    def test_one_core_shard_stream_matches_replay_shards(
        self, trace_pair, tmp_path
    ):
        """A core fed a shard sequence equals the merged sharded replay's
        touch accounting; cache events differ only through the cold
        ladder per shard, which the concatenated stream does not reset."""
        path = trace_pair["pointer-chase"]
        shards = shard_trace(path, str(tmp_path / "s"), shards=3)
        merged = replay_shards(shards, jobs=1).stats
        multi = replay_multicore([shards]).per_core[0]
        assert multi.touches == merged.touches
        assert multi.cform_lines == merged.cform_lines
        assert multi.alloc_events == merged.alloc_events


class TestContention:
    def test_l3_misses_never_better_than_solo_and_strictly_worse_somewhere(
        self, trace_pair
    ):
        sources = [trace_pair["server-churn"], trace_pair["scan-heavy"]]
        solo = [
            replay_multicore([source]).per_core[0].events.l3_misses
            for source in sources
        ]
        contended = replay_multicore(sources)
        deltas = [
            contended.per_core[core].events.l3_misses - solo[core]
            for core in range(len(sources))
        ]
        assert all(delta >= 0 for delta in deltas)
        assert any(delta > 0 for delta in deltas)

    def test_private_ladders_are_unaffected_by_co_runners(self, trace_pair):
        """L1/L2 are per-core private: their counts match the solo run."""
        sources = list(trace_pair.values())
        contended = replay_multicore(sources)
        for core, source in enumerate(sources):
            solo = replay_multicore([source]).per_core[0]
            cont = contended.per_core[core]
            assert cont.events.l1_accesses == solo.events.l1_accesses
            assert cont.events.l1_misses == solo.events.l1_misses
            assert cont.events.l2_misses == solo.events.l2_misses


class TestApiEdges:
    def test_in_memory_sources(self):
        raws = []
        for name in ("server-churn", "scan-heavy"):
            buffer = io.BytesIO()
            record_spec(CORPUS[name].scaled(2_000), buffer)
            raws.append(buffer.getvalue())
        first = replay_multicore([io.BytesIO(raw) for raw in raws])
        second = replay_multicore([io.BytesIO(raw) for raw in raws])
        assert first == second

    def test_file_objects_rejected_in_parallel_mode(self):
        buffer = io.BytesIO()
        record_spec(CORPUS["scan-heavy"].scaled(1_000), buffer)
        buffer.seek(0)
        with pytest.raises(ValueError, match="jobs > 1"):
            replay_multicore([buffer, buffer], jobs=2)

    def test_no_cores_rejected(self):
        with pytest.raises(ValueError):
            replay_multicore([])

    def test_mismatched_configs_rejected_without_override(
        self, trace_pair, tmp_path
    ):
        from repro.memory.hierarchy import WESTMERE

        slow_path = str(tmp_path / "slow.trace")
        record_spec(
            CORPUS["server-churn"].scaled(2_000),
            slow_path,
            config=WESTMERE.with_extra_latency(1),
        )
        with pytest.raises(TraceFormatError, match="different hierarchy"):
            replay_multicore([trace_pair["server-churn"], slow_path])
        # An explicit override reconciles them.
        replay = replay_multicore(
            [trace_pair["server-churn"], slow_path],
            config=WESTMERE.with_extra_latency(1),
        )
        assert replay.cores == 2

    def test_config_override_prices_extra_latency(self, trace_pair):
        from repro.memory.hierarchy import WESTMERE

        sources = list(trace_pair.values())
        base = replay_multicore(sources)
        slow = replay_multicore(sources, config=WESTMERE.with_extra_latency(1))
        # Same events (geometry unchanged), strictly more cycles.
        assert slow.merged.events == base.merged.events
        assert slow.merged.amat_cycles > base.merged.amat_cycles


class TestCli:
    def test_replay_mc_output_identical_across_jobs(self, trace_pair, capsys):
        from repro.cli import main

        path = trace_pair["server-churn"]
        argv = ["replay-mc", path, "--cores", "2"]
        assert main(["trace", *argv, "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["trace", *argv, "--jobs", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "core 0" in serial_out
        assert "core 1" in serial_out
        assert "merged over 2 cores" in serial_out

    def test_replay_mc_mix_mode(self, capsys):
        from repro.cli import main

        assert main(
            ["trace", "replay-mc", "--mix", "server-vs-scan",
             "--instructions", "2000", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "core 0 (server-churn)" in out
        assert "core 1 (scan-heavy)" in out

    def test_replay_mc_requires_traces_xor_mix(self, trace_pair):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "replay-mc"])
        with pytest.raises(SystemExit):
            main(
                ["trace", "replay-mc", trace_pair["server-churn"],
                 "--mix", "server-vs-scan"]
            )

    def test_replay_mc_unknown_mix_is_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "replay-mc", "--mix", "nope"])


class TestRegistryMixes:
    def test_named_mixes_resolve(self):
        from repro.traces import MULTICORE_MIXES, multicore_mix

        for name, mix in MULTICORE_MIXES.items():
            assert multicore_mix(name) is mix
            specs = mix.specs(instructions=1_000)
            assert len(specs) == len(mix.cores)
            assert all(spec.instructions == 1_000 for spec in specs)

    def test_counted_expansion(self):
        from repro.traces import expand_core_names

        assert expand_core_names(
            ["server-churn", "2x pointer-chase"]
        ) == ("server-churn", "pointer-chase", "pointer-chase")
        assert expand_core_names(["3*scan-heavy"]) == ("scan-heavy",) * 3

    def test_expansion_validates_names_and_counts(self):
        from repro.traces import expand_core_names

        with pytest.raises(KeyError):
            expand_core_names(["2x not-a-scenario"])
        with pytest.raises(ValueError):
            expand_core_names(["0x server-churn"])
        with pytest.raises(ValueError):
            expand_core_names([])

    def test_inline_mix_parsing(self):
        from repro.traces import multicore_mix

        mix = multicore_mix("scan-heavy,2x pointer-chase")
        assert mix.cores == ("scan-heavy", "pointer-chase", "pointer-chase")
        # Single-entry inline forms work too: counted, and bare names.
        assert multicore_mix("2x pointer-chase").cores == ("pointer-chase",) * 2
        assert multicore_mix("scan-heavy").cores == ("scan-heavy",)
        with pytest.raises(KeyError):
            multicore_mix("not-a-mix")
