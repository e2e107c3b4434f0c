"""Telemetry: spans, metrics and profiling for the replay stack.

The subsystem is three small layers:

* :mod:`repro.telemetry.metrics` — the in-process metrics registry
  (counters, gauges, histograms with labels);
* :mod:`repro.telemetry.spans` — the span tracer writing one shared
  JSONL log (``spans.jsonl``) per run, safe across pool workers;
* :mod:`repro.telemetry.runtime` — the activation switch: telemetry is
  **off unless** ``$REPRO_TELEMETRY`` names a sink directory, and the
  disabled path costs one dict lookup per instrumented batch.

On top sit the exporters (:mod:`repro.telemetry.export` —
``metrics.json``, Prometheus text format, the ``TELEMETRY.md`` run
summary), the opt-in per-section cProfile hooks
(:mod:`repro.telemetry.profiler`) and the ``python -m repro telemetry``
CLI (:mod:`repro.telemetry.__main__`).

Instrumented code uses the module-level helpers::

    from repro import telemetry

    tel = telemetry.active()
    if tel is not None:
        tel.inc("decode_records_total", len(batch))

    with telemetry.span("replay/shards", shards=len(paths)) as sp:
        ...
        sp.set("touches", touches)

Telemetry never touches deterministic artifacts: ``results/*.json`` and
``EXPERIMENTS.md`` are byte-identical with telemetry on or off (pinned
by ``tests/telemetry/test_pipeline_determinism.py``).  See
``docs/OBSERVABILITY.md`` for the metric catalogue and span schema.
"""

from repro.telemetry.runtime import (
    ENV_DIR,
    SPAN_LOG_NAME,
    Telemetry,
    active,
    configure,
    flush,
    shutdown,
    span,
    traced,
)

__all__ = [
    "ENV_DIR",
    "SPAN_LOG_NAME",
    "Telemetry",
    "active",
    "configure",
    "flush",
    "shutdown",
    "span",
    "traced",
]
