"""Content-addressed corpus of recorded traces (the figures' pantry).

``repro.traces`` made workloads first-class artifacts; this package
makes them *shared* artifacts: a content-addressed on-disk store
(sha256 of the canonical CALTRC01 stream names each compressed CALTRC02
object) with a JSON manifest binding scenario-spec fingerprints to
objects.  Experiment sections — the trace cross-checks, the multi-core
contention study, and the Figure 4/10/11 sweeps — resolve their
workloads through :class:`CorpusStore` (recording on first use,
replaying thereafter), so repeated runner invocations and CI reuse one
recorded corpus instead of regenerating per figure.

``python -m repro corpus build|verify|gc|ls|key`` is the CLI.
"""

from repro.corpus.manifest import (
    Manifest,
    ManifestEntry,
    load_manifest,
    save_manifest,
)
from repro.corpus.store import (
    DEFAULT_ROOT,
    ENV_ROOT,
    CorpusObject,
    CorpusStore,
    canonical_digest,
    default_store,
    figure_spec,
    registry_fingerprint,
    spec_fingerprint,
)

__all__ = [
    "CorpusObject",
    "CorpusStore",
    "DEFAULT_ROOT",
    "ENV_ROOT",
    "Manifest",
    "ManifestEntry",
    "canonical_digest",
    "default_store",
    "figure_spec",
    "load_manifest",
    "registry_fingerprint",
    "save_manifest",
    "spec_fingerprint",
]
