"""A fixed reference workload that measures the host's current speed.

Shared virtual machines change speed by tens of percent from one
minute to the next (other tenants' load on the same cores), so bare
wall clocks from two runs are not comparable.  The benchmark runs this
workload right before and after every timed iteration, in the same
process, and reports iteration times at a fixed reference speed (unit
``ref_s``: host seconds x ``run.REF_CAL_S`` / the mean of the two
measurements).  The workload shares no code with the program: it
mixes the operations the program spends its time in — interpreter
loops over tuples and dicts, small allocations, sorting, and numpy
array passes — on fixed inputs.
"""

from __future__ import annotations

import time

import numpy as np

_N = 8000
_ROUNDS = 5


def _unit(rows: list, arr: np.ndarray) -> int:
    index: dict[int, list] = {}
    for k, x, y in rows:
        index.setdefault(k % 97, []).append((x, y))
    hits = 0
    for bucket in index.values():
        bucket.sort()
        for x, y in bucket:
            if x < y:
                hits += 1
    order = np.argsort(arr, kind="stable")
    mask = (arr[order] > 0.5) & (arr < 0.75)
    return hits + int(mask.sum()) + int(np.cumsum(arr).argmax())


def measure() -> float:
    """Median seconds of a few repetitions of the reference workload."""
    rng = np.random.default_rng(12345)
    arr = rng.random(20 * _N)
    rows = [(i, float(v), float(w)) for i, (v, w) in enumerate(rng.random((_N, 2)))]
    times = []
    for __ in range(_ROUNDS):
        t0 = time.perf_counter()
        _unit(rows, arr)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
