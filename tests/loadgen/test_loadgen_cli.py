"""``python -m repro loadgen``: subcommand smoke and determinism."""

import pytest

from repro.cli import main


class TestListing:
    def test_list_names_every_committed_scenario(self, capsys):
        assert main(["loadgen", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("poisson-baseline", "uniform-churn", "tenant-attack"):
            assert name in out

    def test_sets_lists_members(self, capsys):
        assert main(["loadgen", "sets"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out and "uniform-churn" in out


class TestShow:
    def test_show_prints_document_and_plan(self, capsys):
        assert main(["loadgen", "show", "uniform-churn"]) == 0
        out = capsys.readouterr().out
        assert '"scenario_version": 1' in out
        assert "composition plan" in out
        assert "tenant 0" in out and "tenant 1" in out

    def test_show_counted_alias(self, capsys):
        assert main(["loadgen", "show", "3x server-churn"]) == 0
        assert "tenant 2" in capsys.readouterr().out


class TestGenerate:
    def test_generate_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        for out in (first, second):
            assert main([
                "loadgen",
                "generate", "uniform-churn",
                "--duration-scale", "0.2", "--out", str(out),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()
        outputs = capsys.readouterr().out
        digests = [
            line.split()[-1]
            for line in outputs.splitlines()
            if "canonical digest" in line
        ]
        assert len(digests) == 2 and digests[0] == digests[1]

    def test_generated_trace_replays_with_verification(self, tmp_path):
        from repro.traces.replayer import replay_timing

        out = tmp_path / "uc.trace"
        assert main([
            "loadgen",
            "generate", "uniform-churn",
            "--duration-scale", "0.2", "--out", str(out),
        ]) == 0
        result = replay_timing(str(out))
        assert result.events.l1_accesses > 0

    def test_spec_file_overrides_the_name(self, tmp_path, capsys):
        from repro.loadgen.sets import load_scenarios

        document = tmp_path / "custom.json"
        document.write_text(
            load_scenarios()["uniform-churn"].scaled(0.2).to_json()
        )
        out = tmp_path / "custom.trace"
        assert main([
            "loadgen",
            "generate", "--spec", str(document), "--out", str(out),
        ]) == 0
        assert out.exists()


class TestErrors:
    def test_set_token_refuses_to_generate_many(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "generate", "synthetic"])

    def test_unknown_scenario_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "generate", "no-such-scenario"])

    def test_name_and_spec_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["loadgen", "show", "uniform-churn", "--spec", str(tmp_path / "x")])
