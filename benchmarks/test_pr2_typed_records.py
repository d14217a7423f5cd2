"""PR 2 perf trajectory: typed shuffle records vs the string codec path.

Two microbenchmarks, both landing in ``BENCH_pr2.json`` (the CI benchmark job
runs this file with ``--benchmark-json=BENCH_pr2.json``):

* **Codec microbenchmark** — the per-record tax the typed path removes:
  a full decode+encode round-trip per rectangle versus the O(1)
  :class:`~repro.mapreduce.job.ShuffleCodec` sizer that replaced it on
  the shuffle hot path.
* **Kernel microbenchmark** — the plane-sweep pair kernel
  (:func:`~repro.joins.sweep.sweep_pairs`), whose inner loop PR 2
  rewrote to precomputed bound tuples with in-place pruning.

The timing floor is asserted only where the outcome is structural (the
sizer does strictly less work than a round-trip).  The end-to-end
typed-vs-seed leg is gone with the seed codec path; its recorded
numbers stay in ``BENCH_pr2.json``.
"""

from __future__ import annotations

import random
import time

from repro.data.io import decode_rect, encode_rect
from repro.geometry.rectangle import Rect
from repro.joins.reducers import RECT_SHUFFLE_CODEC
from repro.joins.sweep import sweep_pairs
from repro.mapreduce.job import estimate_size

#: Table 2, row 1 space side (nI = 4000 stands for the paper's 1m rectangles).
TABLE2_SIDE = 6_300.0

MICRO_RECORDS = 50_000
SWEEP_N = 3_000


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Codec microbenchmark
# ----------------------------------------------------------------------
def _random_rects(n: int, seed: int = 11) -> list[tuple[int, Rect]]:
    rng = random.Random(seed)
    return [
        (
            rid,
            Rect(
                rng.uniform(0, TABLE2_SIDE),
                rng.uniform(1, TABLE2_SIDE),
                rng.uniform(0.1, 40.0),
                rng.uniform(0.1, 40.0),
            ),
        )
        for rid in range(n)
    ]


def test_codec_roundtrip_vs_typed_sizer(benchmark):
    """String-era cost per shuffled record vs the typed-path cost."""
    rects = _random_rects(MICRO_RECORDS)
    lines = [encode_rect(rid, rect) for rid, rect in rects]
    values = [("R1", rid, rect) for rid, rect in rects]
    value_size = RECT_SHUFFLE_CODEC.value_size

    def roundtrip():
        # Seed path: every shuffled record was re-parsed from its line
        # by the reducer and re-encoded by the mapper.
        total = 0
        for line in lines:
            rid, rect = decode_rect(line)
            total += len(encode_rect(rid, rect))
        return total

    def typed_sizer():
        # Typed path: the object is passed through; only the O(1)
        # sizer runs to charge the same simulated bytes.
        total = 0
        for value in values:
            total += value_size(value)
        return total

    roundtrip_s = min(_timed(roundtrip) for __ in range(3))
    typed_s = min(_timed(typed_sizer) for __ in range(3))
    typed_total = benchmark.pedantic(typed_sizer, rounds=1, iterations=1)

    benchmark.extra_info["records"] = MICRO_RECORDS
    benchmark.extra_info["roundtrip_seconds"] = round(roundtrip_s, 4)
    benchmark.extra_info["typed_sizer_seconds"] = round(typed_s, 4)
    benchmark.extra_info["speedup"] = round(roundtrip_s / typed_s, 2)

    # The sizer must charge exactly what estimate_size charged for the
    # seed-era flat value layout (dataset, rid, x, y, l, b).
    assert typed_total == sum(
        estimate_size((ds, rid, r.x, r.y, r.l, r.b)) for ds, rid, r in values
    )
    # Structural: an O(1) size lookup beats a parse+format round-trip.
    assert typed_s < roundtrip_s


# ----------------------------------------------------------------------
# Kernel microbenchmark
# ----------------------------------------------------------------------
def test_sweep_pair_kernel(benchmark):
    """Plane-sweep kernel throughput after the bound-tuple rewrite."""
    left = _random_rects(SWEEP_N, seed=3)
    right = _random_rects(SWEEP_N, seed=5)

    pairs = benchmark(lambda: sum(1 for __ in sweep_pairs(left, right)))

    benchmark.extra_info["n_per_side"] = SWEEP_N
    benchmark.extra_info["pairs"] = pairs
    assert pairs > 0

