"""Quick-mode perf smoke: the harness works and the codec stays fast.

Two guards run inside the tier-1 test session:

* the ``python -m repro perf`` CLI executes end-to-end in quick mode
  and emits a schema-valid ``BENCH_*.json`` report;
* the optimized codec is still decisively faster than the retained
  reference implementation.  The gate is *relative* (same machine, same
  process, same workload), so it does not flake with host speed — but if
  someone reverts or pessimises the fast paths, the ratio collapses to
  ~1× and this fails loudly.
"""

import json
import random
from time import perf_counter

from repro.core import bitvector as bv
from repro.core.line_formats import BitvectorLine
from repro.core.sentinel import (
    decode,
    decode_reference,
    encode,
    encode_reference,
)
from repro.cli import main
from repro.perf.report import SCHEMA_VERSION

#: The optimized codec must keep at least this edge over the reference.
#: Measured headroom is ~6-9x; 2x trips only on a genuine regression.
MIN_SPEEDUP = 2.0


def _workload(count=96, security_bytes=6, seed=5):
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        data = bytearray(rng.randrange(256) for _ in range(64))
        indices = rng.sample(range(64), security_bytes)
        lines.append(BitvectorLine(data, bv.mask_from_indices(indices)))
    return lines


def _best_of(func, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        func()
        best = min(best, perf_counter() - started)
    return best


def test_codec_fast_path_keeps_its_speedup():
    lines = _workload()
    encoded = [encode(line) for line in lines]

    def optimized():
        for line in lines:
            encode(line)
        for enc in encoded:
            decode(enc)

    def reference():
        for line in lines:
            encode_reference(line)
        for enc in encoded:
            decode_reference(enc)

    optimized()  # warm the codec-plan cache before timing
    fast = _best_of(optimized)
    slow = _best_of(reference)
    speedup = slow / fast
    assert speedup >= MIN_SPEEDUP, (
        f"codec fast path only {speedup:.2f}x the reference "
        f"(needs >= {MIN_SPEEDUP}x); a hot-path regression slipped in"
    )


def test_perf_cli_quick_run_writes_valid_report(tmp_path):
    exit_code = main(
        [
            "perf",
            "--quick",
            "--scenario", "codec_encode",
            "--scenario", "codec_decode",
            "--scenario", "normalize",
            "--iterations", "2",
            "--warmup", "1",
            "--label", "smoke",
            "--output-dir", str(tmp_path),
        ]
    )
    assert exit_code == 0
    report_path = tmp_path / "BENCH_smoke.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["label"] == "smoke"
    assert set(report["scenarios"]) == {"codec_encode", "codec_decode", "normalize"}
    for summary in report["scenarios"].values():
        assert summary["iterations"] == 2
        assert summary["ops_per_sec"] > 0
        assert summary["p50_s"] <= summary["p95_s"] * 1.0000001


def test_perf_cli_rejects_unknown_scenario(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["perf", "--scenario", "no_such_scenario", "--no-write"])
