"""Golden equivalence of spilling crossed with the kernel plane.

Record batches are the unit of data movement (columnar shuffle, batched
codecs) on the numpy kernel, and spill-to-disk bounds map-side memory.
Each axis is individually golden-tested — this suite pins the
*interaction*: Controlled-Replicate under a memory budget small enough
to force spills must stay byte-identical to the unbounded scalar
reference on both kernels, whether the spill runs live in the
in-memory DFS or on a local-disk ``LocalFSDFS``, and the budgeted legs
must agree on the spill telemetry itself (spill points depend only on
estimated record bytes, which neither the columnar numpy path nor the
storage back-end may perturb).
"""

from __future__ import annotations

import pytest

from .golden import (
    SPILL_TELEMETRY,
    assert_same_output,
    chain_workload,
    run_join,
    spill_counters,
)
from repro.mapreduce.localfs import LocalFSDFS

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
#: forces several spill runs per map task at this workload size
BUDGET = 2_048

#: (kernel, on_disk) budgeted legs that must reproduce the reference;
#: ``on_disk`` puts the DFS, spill runs included, on a LocalFSDFS
LEGS = [
    ("python", True),
    ("python", False),
    ("numpy", True),
    ("numpy", False),
]


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


@pytest.fixture(scope="module")
def golden(workload):
    """The unbounded scalar reference: python kernel, no memory budget."""
    return run_join(workload, "c-rep", kernel="python")


@pytest.fixture(scope="module")
def budgeted(workload, tmp_path_factory):
    runs = {}
    for kernel, on_disk in LEGS:
        extra = {}
        if on_disk:
            extra["dfs"] = LocalFSDFS(tmp_path_factory.mktemp(f"dfs-{kernel}"))
        runs[(kernel, on_disk)] = run_join(
            workload, "c-rep", kernel=kernel, memory_budget=BUDGET, **extra
        )
    return runs


@pytest.mark.parametrize(("kernel", "on_disk"), LEGS)
def test_spilled_leg_matches_unspilled_reference(
    golden, budgeted, kernel, on_disk
):
    run = budgeted[(kernel, on_disk)]
    spills = spill_counters(run)
    assert spills.get("spilled_records", 0) > 0
    assert spills.get("spill_files", 0) > 0
    assert spills.get("spill_bytes", 0) > 0
    assert_same_output(run, golden, SPILL_TELEMETRY)


def test_spill_telemetry_is_plane_independent(budgeted):
    """Every budgeted leg spills at exactly the same points: the spill
    counters are a function of record bytes, not of which kernel
    produced them or which file system holds the runs."""
    reference = spill_counters(budgeted[LEGS[0]])
    assert reference  # non-empty: the budget really forced spills
    for leg in LEGS[1:]:
        assert spill_counters(budgeted[leg]) == reference


def test_reference_never_spills(golden):
    assert golden.result.tuples
    assert not spill_counters(golden)
