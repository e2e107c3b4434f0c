"""Self-healing corpus store: every fault kind, every consumer."""

import json
import multiprocessing
import os
import shutil
import zlib

import pytest

from repro import cli
from repro.corpus.manifest import (
    ManifestEntry,
    ManifestLockTimeout,
    manifest_lock,
    save_manifest,
)
from repro.corpus.store import CorpusStore
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    inject_store_faults,
)
from repro.reliability.matrix import (
    CORPUS_CASES,
    _corpus_case,
    _matrix_spec,
)
from repro.traces.compress import (
    _FRAME_RECORDS_HEAD,
    FRAME_RECORDS,
    CompressedTraceWriter,
)
from repro.traces.format import EV_LOAD, read_header


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A pristine single-object store every test copies, never mutates."""
    root = str(tmp_path_factory.mktemp("pristine") / "corpus")
    digest = CorpusStore(root).ensure(_spec()).entry.digest
    return root, digest


# The tests damage and re-heal the same tiny workload the CI matrix uses.
_spec = _matrix_spec


def _damaged_copy(template, tmp_path, kind, seed=1):
    root, digest = template
    copy = str(tmp_path / "corpus")
    shutil.copytree(root, copy)
    actions = inject_store_faults(
        CorpusStore(copy), FaultPlan((FaultSpec(kind=kind, seed=seed),))
    )
    assert actions, f"{kind} fault did not apply"
    return copy, digest


class TestMatrix:
    """The same cells ``python -m repro faults matrix`` runs in CI."""

    @pytest.mark.parametrize(
        "kind,consumer", CORPUS_CASES, ids=[f"{k}-{c}" for k, c in CORPUS_CASES]
    )
    def test_cell_heals(self, template, tmp_path, kind, consumer):
        root, digest = template
        pristine = str(tmp_path / "pristine")
        shutil.copytree(root, pristine)
        # The matrix spec is the full-length one; rebuilds must use it.
        case = _corpus_case(
            pristine, str(tmp_path / "case"), kind, consumer, digest
        )
        assert case.ok, case.detail


class TestEnsureHeals:
    @pytest.mark.parametrize("kind", ["bitflip", "truncate", "delete"])
    def test_converges_to_pristine_digest(self, template, tmp_path, kind):
        copy, digest = _damaged_copy(template, tmp_path, kind)
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built  # the heal re-recorded
        assert resolved.entry.digest == digest
        assert store.healed == 1
        assert CorpusStore(copy).verify() == []

    def test_damaged_bytes_are_quarantined_not_destroyed(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        store.ensure(_spec())
        quarantined = [
            name
            for name in os.listdir(store.quarantine_dir)
            if name.endswith(".trace")
        ]
        assert quarantined == [f"{digest}.trace"]

    def test_heal_ledger_records_scenario_reason_action(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        cursor = store.heal_log_size()
        store.ensure(_spec())
        events = store.heal_events(since=cursor)
        assert len(events) == 1
        assert events[0]["scenario"] == _spec().name
        assert events[0]["digest"] == digest
        assert "quarantined" in events[0]["action"]

    def test_verified_cache_skips_rehash_but_not_first_read(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        store.ensure(_spec())  # heals, marks digest verified
        healed_before = store.healed
        store.ensure(_spec())  # cached digest: a pure hit, no re-hash
        assert store.healed == healed_before
        assert store.hits == 1

    def test_verify_reads_off_still_catches_missing_objects(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "delete")
        store = CorpusStore(copy, verify_reads=False)
        resolved = store.ensure(_spec())
        assert resolved.built
        assert store.healed == 1


class TestReplayHeals:
    def test_run_result_survives_damage(self, template, tmp_path):
        copy, _digest = _damaged_copy(template, tmp_path, "truncate")
        result = CorpusStore(copy).run_result(_spec())
        assert result.instructions > 0
        assert CorpusStore(copy).verify() == []

    def test_object_deleted_after_verification(self, template, tmp_path):
        """Damage landing *between* ensure's verification and replay —
        the deleted-mid-walk shape — heals on the replay path."""
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())  # verifies and caches the digest
        os.remove(resolved.path)
        result = store.run_result(_spec())
        assert result.instructions > 0
        assert store.healed == 1
        assert os.path.exists(resolved.path)  # re-recorded in place


class TestOutOfRangeRecords:
    """A CALTRC02 frame can decode to a record the canonical CALTRC01
    layout cannot hold.  Such an object is damage like any other: it is
    reported and healed, never a crash out of the digest."""

    CASES = {"arg-beyond-u32": (0x1000, 1 << 33), "negative-address": (-0x1000, 8)}

    @pytest.fixture(params=sorted(CASES))
    def damaged(self, request, template, tmp_path):
        root, digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        path = CorpusStore(copy).object_path(digest)
        address, arg = self.CASES[request.param]
        with CompressedTraceWriter(path, read_header(path)) as writer:
            writer.append(EV_LOAD, address, arg)
            writer.set_footer({"records": 1})
        return copy, digest

    def test_ensure_quarantines_and_restores(self, damaged):
        copy, digest = damaged
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built
        assert resolved.entry.digest == digest
        assert store.healed == 1
        assert f"{digest}.trace" in os.listdir(store.quarantine_dir)
        assert CorpusStore(copy).verify() == []

    def test_verify_reports_without_raising(self, damaged):
        copy, _digest = damaged
        (problem,) = CorpusStore(copy).verify()
        assert "canonical CALTRC01 range" in problem

    def test_repair_restores_byte_identically(self, damaged):
        copy, _digest = damaged
        problems, actions = CorpusStore(copy).repair()
        assert len(problems) == 1
        assert "restored byte-identically" in actions[0]


class TestZeroLengthRun:
    """A frame whose run token has count 0 (the encoder never writes
    one) is corrupt: the digest reports it, and the store quarantines
    the object and re-records it instead of crashing."""

    # Two plain records, then a run token ``08 00 0a 06 08`` of count 0.
    TOKENS = bytes.fromhex("006408" "000208" "08000a0608")

    @pytest.fixture()
    def damaged(self, template, tmp_path):
        root, digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        path = CorpusStore(copy).object_path(digest)
        payload = zlib.compress(self.TOKENS)
        with CompressedTraceWriter(path, read_header(path)) as writer:
            writer._file.write(
                _FRAME_RECORDS_HEAD.pack(FRAME_RECORDS, 2, len(payload))
            )
            writer._file.write(payload)
            writer.set_footer({"records": 2})
        return copy, digest

    def test_ensure_quarantines_and_re_records(self, damaged):
        copy, digest = damaged
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built
        assert resolved.entry.digest == digest
        assert store.healed == 1
        assert f"{digest}.trace" in os.listdir(store.quarantine_dir)
        assert CorpusStore(copy).verify() == []

    def test_verify_reports_without_raising(self, damaged):
        copy, _digest = damaged
        (problem,) = CorpusStore(copy).verify()
        assert "zero-length run" in problem


class TestManifestHeals:
    def test_corrupt_manifest_file_quarantines_and_starts_empty(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        with open(os.path.join(copy, "manifest.json"), "w") as handle:
            handle.write("{not json")
        store = CorpusStore(copy)
        assert store.manifest().entries == {}
        assert os.path.exists(
            os.path.join(store.quarantine_dir, "manifest.corrupt.json")
        )
        events = store.heal_events()
        assert events[-1]["scenario"] == "<manifest>"
        # Re-ensure rebuilds the binding, converging on the same object.
        assert store.ensure(_spec()).entry.digest == digest

    def test_corrupt_entry_heals_through_ensure(self, template, tmp_path):
        copy, digest = _damaged_copy(template, tmp_path, "corrupt-entry")
        resolved = CorpusStore(copy).ensure(_spec())
        assert resolved.entry.digest == digest
        assert CorpusStore(copy).verify() == []


class TestRepair:
    def test_repair_restores_byte_identically(self, template, tmp_path):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        problems, actions = store.repair()
        assert len(problems) == len(actions) == 1
        assert "restored byte-identically" in actions[0]
        assert digest[:12] in actions[0]
        assert store.verify() == []

    def test_orphan_entry_is_dropped_as_unrecoverable(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "orphan-entry")
        store = CorpusStore(copy)
        problems, actions = store.repair()
        assert len(problems) == 1
        assert "no recorded spec" in actions[0]
        assert store.verify() == []

    def test_spec_less_legacy_entry_is_dropped_with_diagnostic(
        self, template, tmp_path
    ):
        # Pre-reliability manifests carry no spec document; a damaged
        # object under one cannot be re-recorded, only dropped.
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        with manifest_lock(copy):
            manifest = store.manifest()
            (fingerprint,) = manifest.entries
            entry = manifest.entries[fingerprint]
            manifest.put(
                ManifestEntry(**{**entry.to_dict(), "spec": None})
            )
            save_manifest(manifest, store.manifest_path)
        problems, actions = store.repair()
        assert len(problems) == 1
        assert "no recorded spec" in actions[0]
        assert store.manifest().entries == {}


class TestVerifyCli:
    def test_verify_exits_nonzero_on_damage(self, template, tmp_path, capsys):
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        assert cli.main(["corpus", "--root", copy, "verify"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "--repair" in captured.err

    def test_verify_repair_heals_and_exits_zero(
        self, template, tmp_path, capsys
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "truncate")
        assert cli.main(["corpus", "--root", copy, "verify", "--repair"]) == 0
        captured = capsys.readouterr()
        assert "HEAL" in captured.err
        assert "healed" in captured.out
        assert cli.main(["corpus", "--root", copy, "verify"]) == 0

    def test_verify_repair_on_clean_store_is_a_no_op(
        self, template, tmp_path, capsys
    ):
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        assert cli.main(["corpus", "--root", copy, "verify", "--repair"]) == 0
        assert "0 problem(s) healed" in capsys.readouterr().out


class TestLockTimeout:
    def test_times_out_with_diagnostics_under_contention(self, tmp_path):
        root = str(tmp_path / "corpus")
        os.makedirs(root)
        ready = multiprocessing.Event()
        holder = multiprocessing.Process(
            target=_hold_and_signal, args=(root, 1.5, ready)
        )
        holder.start()
        try:
            assert ready.wait(timeout=10.0), "holder never took the lock"
            with pytest.raises(
                ManifestLockTimeout, match="manifest lock"
            ) as caught:
                with manifest_lock(root, timeout=0.1):
                    pass
            message = str(caught.value)
            assert "manifest.lock" in message
            assert "pid" in message  # the holder breadcrumb
        finally:
            holder.join()

    def test_env_var_overrides_default_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "0.05")
        root = str(tmp_path / "corpus")
        with manifest_lock(root):  # uncontended: env timeout is inert
            pass

    def test_leftover_lock_file_never_blocks(self, template, tmp_path):
        # flock evaporates with its holder: a lock file left by a dead
        # process is inert and acquisition is immediate.
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        with open(os.path.join(copy, "manifest.lock"), "w") as handle:
            handle.write("pid 999999")
        with manifest_lock(copy, timeout=0.5):
            pass


def _hold_and_signal(root, seconds, ready):
    from repro.corpus.manifest import manifest_lock as lock
    import time

    with lock(root, timeout=5.0):
        ready.set()
        time.sleep(seconds)
