"""Smoke tests for the ``python -m repro corpus`` CLI."""

import os

import pytest

from repro.cli import main
from repro.corpus.store import CorpusStore
from repro.traces.registry import CORPUS


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "corpus")


ARGS = ["--instructions", "2000"]


def test_build_records_then_hits(root, capsys):
    assert main(["corpus", "--root", root, "build", *ARGS]) == 0
    out = capsys.readouterr().out
    assert f"{len(CORPUS)} recorded, 0 reused" in out
    assert main(["corpus", "--root", root, "build", *ARGS]) == 0
    out = capsys.readouterr().out
    assert f"0 recorded, {len(CORPUS)} reused" in out


def test_build_subset_and_unknown_scenario(root, capsys):
    assert main(
        ["corpus", "--root", root, "build", "--scenario", "scan-heavy", *ARGS]
    ) == 0
    assert "scan-heavy" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["corpus", "--root", root, "build", "--scenario", "nope"])


def test_ls_shows_entries(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "attack-replay", *ARGS])
    capsys.readouterr()
    assert main(["corpus", "--root", root, "ls"]) == 0
    out = capsys.readouterr().out
    assert "attack-replay" in out
    assert "attacks" in out  # driver column


def test_ls_empty_store(root, capsys):
    assert main(["corpus", "--root", root, "ls"]) == 0
    assert "empty corpus" in capsys.readouterr().out


def test_verify_ok_then_fails_on_corruption(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "server-churn", *ARGS])
    capsys.readouterr()
    assert main(["corpus", "--root", root, "verify"]) == 0
    assert "every object hash verified" in capsys.readouterr().out

    store = CorpusStore(root)
    (entry,) = store.manifest().entries.values()
    with open(store.object_path(entry.digest), "r+b") as handle:
        handle.seek(40)
        handle.write(b"\x00\x00\x00\x00")
    assert main(["corpus", "--root", root, "verify"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_verify_surfaces_the_heal_ledger(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "server-churn", *ARGS])
    store = CorpusStore(root)
    (entry,) = store.manifest().entries.values()
    with open(store.object_path(entry.digest), "r+b") as handle:
        handle.seek(40)
        handle.write(b"\x00\x00\x00\x00")
    capsys.readouterr()

    assert main(["corpus", "--root", root, "verify", "--repair"]) == 0
    out = capsys.readouterr().out
    assert "heal ledger: 1 event(s), 1 quarantined file(s)" in out
    assert "server-churn: 1 event(s)" in out

    # The summary persists: a later clean verify still reports it.
    assert main(["corpus", "--root", root, "verify"]) == 0
    assert "heal ledger: 1 event(s)" in capsys.readouterr().out


def test_clean_verify_prints_no_ledger_line(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "server-churn", *ARGS])
    capsys.readouterr()
    assert main(["corpus", "--root", root, "verify"]) == 0
    assert "heal ledger" not in capsys.readouterr().out


def test_gc_reports_removals(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "server-churn", *ARGS])
    store = CorpusStore(root)
    (entry,) = store.manifest().entries.values()
    os.remove(store.object_path(entry.digest))
    capsys.readouterr()
    assert main(["corpus", "--root", root, "gc"]) == 0
    assert "1 item(s) removed" in capsys.readouterr().out


def test_gc_keep_days_sweeps_quarantine(root, capsys):
    main(["corpus", "--root", root, "build", "--scenario", "server-churn", *ARGS])
    store = CorpusStore(root)
    os.makedirs(store.quarantine_dir, exist_ok=True)
    blob = os.path.join(store.quarantine_dir, "damaged.trace")
    with open(blob, "w") as handle:
        handle.write("x" * 64)
    capsys.readouterr()
    assert main(["corpus", "--root", root, "gc"]) == 0
    assert "0 B reclaimed" in capsys.readouterr().out
    assert os.path.exists(blob)  # inside the default keep window
    assert main(["corpus", "--root", root, "gc", "--keep-days", "0"]) == 0
    assert "64 B reclaimed" in capsys.readouterr().out
    assert not os.path.exists(blob)


def test_key_is_stable(root, capsys):
    assert main(["corpus", "--root", root, "key"]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["corpus", "--root", root, "key"]) == 0
    assert capsys.readouterr().out.strip() == first
    assert len(first) == 64
