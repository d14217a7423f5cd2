"""Golden equivalence of the typed record path.

Records cross job boundaries as Python objects: a codec-written DFS
file keeps its records resident, and a line file is decoded at most
once per version and cached.  A mapper reading such a file therefore
never parses its lines — so the contract is that the resident records
are exactly what decoding the file's lines yields.  This suite checks
that for every typed-cached file a full join leaves behind (inputs,
intermediates and outputs), for every algorithm and executor.
``tests/data/test_codec_fuzz.py`` adds the per-codec round-trip
property; together they make the typed path indistinguishable from
re-parsing every file on every read.
"""

from __future__ import annotations

import pytest

from repro.data.io import CODECS, TupleRecord
from repro.joins.registry import ALGORITHMS

from .golden import EXECUTORS, assert_nonempty, chain_workload, run_join

N_PER_RELATION = 700
SPACE_SIDE = 6_300.0

#: Codecs whose files each algorithm must leave typed-cached.
EXPECTED_CODECS = {
    "cascade": {"rect", "tuple"},
    "all-rep": {"rect"},
    "c-rep": {"rect", "tagged"},
    "c-rep-l": {"rect", "tagged"},
}


@pytest.fixture(scope="module")
def workload():
    return chain_workload(N_PER_RELATION, SPACE_SIDE)


@pytest.fixture(scope="module")
def golden(workload):
    return {name: run_join(workload, name) for name in ALGORITHMS}


def _comparable(records):
    # TupleRecord equality compares the carried line only; the parsed
    # bindings must match too.
    return [
        (r.line, r.bindings) if isinstance(r, TupleRecord) else r for r in records
    ]


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_typed_path_matches_seed_codec_path(workload, algorithm_name, executor, workers):
    run = run_join(workload, algorithm_name, executor=executor, num_workers=workers)
    dfs = run.dfs
    files = list(dfs.resolve("input"))
    for job in run.result.workflow.job_results:
        files.extend(dfs.resolve(job.output_path))
    seen = set()
    for f in files:
        for codec in CODECS.values():
            records = dfs.typed_records(f, codec)
            if records is None:
                continue
            seen.add(codec.name)
            decoded = codec.decode_lines(dfs.read_file(f))
            assert _comparable(decoded) == _comparable(records), f
    assert seen == EXPECTED_CODECS[algorithm_name]


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_golden_output_is_nonempty(golden, algorithm_name):
    assert_nonempty(golden[algorithm_name])
