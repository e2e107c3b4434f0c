"""The corpus manifest: spec fingerprints bound to trace objects.

The manifest is one JSON document at the store root.  Its ``entries``
map a **spec fingerprint** (sha256 over the scenario-spec document plus
the recording geometry — everything that determines the logical event
stream) to the metadata of the recorded object: the content digest that
names the object file, record/byte counts and the scenario name.  The
fingerprint answers "have we recorded this workload?"; the digest
answers "are the bytes on disk the ones we recorded?" — together they
make the store reproducible (same spec → same fingerprint → same object)
and verifiable (``python -m repro corpus verify``).

Writes are atomic (temp file + ``os.replace``) and serialised through an
advisory file lock, so parallel experiment sections building overlapping
corpora converge instead of clobbering each other; a lost race costs at
worst one redundant re-recording, never a corrupt manifest.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

#: Bump when entry keys change shape.
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"
LOCK_NAME = "manifest.lock"

#: Default seconds a writer waits for the manifest lock before raising
#: :class:`ManifestLockTimeout`; ``$REPRO_LOCK_TIMEOUT`` overrides it.
ENV_LOCK_TIMEOUT = "REPRO_LOCK_TIMEOUT"
DEFAULT_LOCK_TIMEOUT = 30.0

#: Exponential-backoff schedule for lock acquisition: the first retry
#: sleeps this long, every later retry doubles it up to the cap.
LOCK_BACKOFF_INITIAL = 0.01
LOCK_BACKOFF_MAX = 0.25


class ManifestLockTimeout(TimeoutError):
    """The manifest lock could not be acquired within the timeout.

    Carries enough diagnostics to tell a *busy* lock (another builder is
    mid-update; rerun later) from a *stuck* one (the holder recorded in
    the lock file is hung or unkillable).  A dead holder never blocks:
    ``flock`` locks evaporate with their process, so a leftover
    ``manifest.lock`` file on disk is inert.
    """


@dataclass(frozen=True)
class ManifestEntry:
    """One recorded workload: spec fingerprint → stored trace object."""

    fingerprint: str
    scenario: str
    driver: str
    instructions: int
    digest: str  # sha256 of the canonical (CALTRC01) byte stream
    records: int
    raw_bytes: int  # canonical v1 stream length
    stored_bytes: int  # on-disk (compressed) object size
    #: The full spec document that recorded the object.  Optional so
    #: pre-reliability manifests still load; with it, a damaged object
    #: can be re-recorded from the manifest alone (``verify --repair``)
    #: — the spec, not the bytes, is the corpus's source of truth.
    spec: dict | None = None

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.stored_bytes if self.stored_bytes else 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: dict) -> "ManifestEntry":
        return cls(**document)


@dataclass
class Manifest:
    """All recorded workloads of one store."""

    entries: dict[str, ManifestEntry] = field(default_factory=dict)

    def get(self, fingerprint: str) -> ManifestEntry | None:
        return self.entries.get(fingerprint)

    def put(self, entry: ManifestEntry) -> None:
        self.entries[entry.fingerprint] = entry

    def digests(self) -> set[str]:
        return {entry.digest for entry in self.entries.values()}


def load_manifest(path: str) -> Manifest:
    """Load the manifest, tolerating a missing file (empty store)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return Manifest()
    except json.JSONDecodeError as error:
        raise ValueError(f"corrupt corpus manifest {path}: {error}") from None
    version = document.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"corpus manifest {path} has version {version!r} "
            f"(expected {MANIFEST_VERSION})"
        )
    entries = {
        fingerprint: ManifestEntry.from_dict(entry)
        for fingerprint, entry in document.get("entries", {}).items()
    }
    return Manifest(entries=entries)


def save_manifest(manifest: Manifest, path: str) -> None:
    """Atomically write the manifest (temp file + rename)."""
    document = {
        "manifest_version": MANIFEST_VERSION,
        "entries": {
            fingerprint: entry.to_dict()
            for fingerprint, entry in sorted(manifest.entries.items())
        },
    }
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)


def _lock_diagnostics(lock_path: str) -> str:
    """Describe who last held a lock file and how stale it looks."""
    holder = "unknown holder"
    age = "unknown age"
    try:
        with open(lock_path) as handle:
            content = handle.read().strip()
        if content:
            holder = f"last acquired by {content}"
    except OSError:
        pass
    try:
        age = f"{time.time() - os.path.getmtime(lock_path):.0f}s old"
    except OSError:
        pass
    return (
        f"{lock_path} ({holder}; {age}); flock releases when its holder "
        f"dies, so a blocked acquire means a live process is holding it — "
        f"the on-disk lock file itself is never stale and is safe to keep"
    )


@contextlib.contextmanager
def manifest_lock(root: str, timeout: float | None = None):
    """Advisory lock serialising read-modify-write manifest updates.

    Uses ``fcntl.flock`` where available (POSIX); elsewhere degrades to
    no locking — the atomic replace still prevents corruption, a lost
    race merely re-records one workload later.

    Acquisition is non-blocking with exponential backoff: a holder that
    never releases (hung builder, debugger-stopped worker) surfaces as a
    :class:`ManifestLockTimeout` naming the lock file, its last holder
    and its age after ``timeout`` seconds (``$REPRO_LOCK_TIMEOUT`` or
    30 s by default) instead of blocking the run forever.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: atomic replace is the only guard
        yield
        return
    if timeout is None:
        timeout = float(
            os.environ.get(ENV_LOCK_TIMEOUT, DEFAULT_LOCK_TIMEOUT)
        )
    os.makedirs(root, exist_ok=True)  # gc/verify on a never-built store
    lock_path = os.path.join(root, LOCK_NAME)
    with open(lock_path, "a+") as lock_file:
        deadline = time.monotonic() + timeout
        backoff = LOCK_BACKOFF_INITIAL
        while True:
            try:
                fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ManifestLockTimeout(
                        f"timed out after {timeout:.1f}s waiting for the "
                        f"corpus manifest lock {_lock_diagnostics(lock_path)}"
                    ) from None
                time.sleep(min(backoff, max(0.0, deadline - time.monotonic())))
                backoff = min(backoff * 2, LOCK_BACKOFF_MAX)
        try:
            # Best-effort holder breadcrumb for timeout diagnostics.
            try:
                lock_file.seek(0)
                lock_file.truncate()
                lock_file.write(f"pid {os.getpid()}")
                lock_file.flush()
            except OSError:
                pass
            yield
        finally:
            fcntl.flock(lock_file, fcntl.LOCK_UN)
