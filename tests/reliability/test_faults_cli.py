"""The ``python -m repro faults`` command surface."""

import json

from repro import cli
from repro.corpus.store import CorpusStore
from repro.reliability.faults import FAULT_KINDS, FaultPlan
from repro.reliability.matrix import _matrix_spec


class TestKindsAndPlan:
    def test_kinds_lists_every_kind(self, capsys):
        assert cli.main(["faults", "kinds"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == list(FAULT_KINDS)

    def test_plan_prints_a_loadable_plan(self, capsys):
        assert (
            cli.main(
                ["faults", "plan", "--kind", "bitflip", "--target", "fig/*",
                 "--seed", "9"]
            )
            == 0
        )
        plan = FaultPlan.from_json(capsys.readouterr().out)
        (spec,) = plan.specs
        assert (spec.kind, spec.target, spec.seed) == ("bitflip", "fig/*", 9)


class TestInject:
    def test_inject_then_repair_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        digest = CorpusStore(root).ensure(_matrix_spec()).entry.digest
        assert (
            cli.main(["faults", "inject", "--kind", "bitflip", "--root", root])
            == 0
        )
        assert "flipped bit" in capsys.readouterr().out
        assert CorpusStore(root).verify() != []
        healed = CorpusStore(root)
        healed.repair()
        assert healed.ensure(_matrix_spec()).entry.digest == digest

    def test_inject_on_empty_store_reports_no_match(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        assert (
            cli.main(["faults", "inject", "--kind", "delete", "--root", root])
            == 1
        )
        assert "nothing matched" in capsys.readouterr().err

    def test_inject_rejects_runner_kinds(self, tmp_path, capsys):
        assert (
            cli.main(
                ["faults", "inject", "--kind", "fail-section",
                 "--root", str(tmp_path)]
            )
            == 2
        )
        assert "not a corpus fault" in capsys.readouterr().err


class TestDispatch:
    def test_repro_front_door_delegates(self, capsys):
        assert cli.main(["faults", "kinds"]) == 0
        assert "bitflip" in capsys.readouterr().out

    def test_matrix_writes_json_results(self, tmp_path, capsys):
        # Corpus + lock cells only: the runner cells spin process pools
        # and belong to test_runner_faults/CI, not this unit sweep.
        out = tmp_path / "cases.json"
        code = cli.main(
            [
                "faults",
                "matrix",
                "--root",
                str(tmp_path / "scratch"),
                "--no-runner",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        cases = json.load(open(out))
        assert all(case["ok"] for case in cases)
        assert any(case["case"] == "lock/timeout" for case in cases)
