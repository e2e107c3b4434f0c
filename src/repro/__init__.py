"""Califorms — practical byte-granular memory blacklisting (MICRO 2019).

A full-system, laptop-scale reproduction of

    Sasaki, Arroyo, Tarek Ibn Ziad, Bhat, Sinha, Sethumadhavan.
    "Practical Byte-Granular Memory Blacklisting using Califorms."
    MICRO 2019 (arXiv:1906.01838).

Subpackages
-----------
``repro.core``
    Line formats, the sentinel codec (Algorithms 1–2), ``CFORM`` semantics
    and the Appendix A variants — the paper's primary contribution.
``repro.memory``
    The cache hierarchy and DRAM substrate the design lives in.
``repro.cpu``
    ISA, load/store queue and a simple timing core.
``repro.softstack``
    The software half: C-like type system, layout engine, the three
    security-byte insertion policies, the califorms allocator and runtime.
``repro.workloads``
    Synthetic SPEC CPU2006-like benchmarks and struct corpora.
``repro.baselines``
    REST / SafeMem / ADI / MPX / canary comparison points (Section 9).
``repro.analysis``
    Timing, VLSI and security analytics.
``repro.experiments``
    The declarative experiment registry (one driver per paper
    table/figure), RunContext, structured results and the generic
    runner behind ``python -m repro run``.
"""

__version__ = "0.9.0"


def package_version() -> str:
    """The installed distribution's version, else :data:`__version__`.

    Preferring package metadata means an installed build reports exactly
    what pip resolved; the source-tree fallback (``PYTHONPATH=src``
    development runs, where nothing is installed) reports the in-tree
    version.  ``python -m repro --version`` reports it.
    """
    try:
        from importlib.metadata import version

        return version("califorms-repro")
    except Exception:
        return __version__


from repro.core import (  # noqa: F401,E402  (re-exported convenience API)
    BitvectorLine,
    CaliformsException,
    CformRequest,
    SecurityByteAccess,
    SentinelLine,
    decode,
    encode,
)
