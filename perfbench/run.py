"""The repository's benchmark: one workload, one seed, one timed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-q2 --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed``, sets up (five
times; the median is ``setup_s``), then runs the workload's queries in
a closed loop until ``--seconds`` have passed.  Every query's output is
checked: its tuples against an independent whole-space evaluation
(:mod:`oracle`), its part files, canonical counters and simulated
seconds against the reference run.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (queries)
and ``metrics``.

``--trace 0`` reports the end-to-end metrics with no probes installed.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (medians), ``tracing.overhead``
(traced over untraced ``join_s``), and writes every span to
``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import probes
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
#: seconds the calibration workload takes at the reference host speed;
#: iteration times are reported at this speed (unit ``ref_s``)
REF_CAL_S = 0.025


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC} (expected src/repro)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def tail_percentile(n: int) -> float:
    """The highest percentile an ``n``-sample run supports: one sample beyond."""
    return 100.0 * (1.0 - 1.0 / n) if n > 1 else 100.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Run:
    """One benchmark run of one workload; ``measure`` does the work."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 slow: dict[str, float] | None = None, work: Path = WORK) -> None:
        import workloads

        if workload not in workloads.WORKLOADS:
            raise SystemExit(
                f"error: unknown workload {workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
        self.wl = workloads
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work / f"{os.getpid()}"
        self.tracer = probes.Tracer()
        self.probes = probes.Probes(self.tracer, slow)
        #: algorithm -> first outcome (the reference for later iterations)
        self.reference: dict[str, object] = {}
        #: algorithm -> outcomes equal to its reference (the first included)
        self.matches: dict[str, int] = {}
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    # ------------------------------------------------------------------
    def measure(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.work)
        try:
            return self._measure()
        finally:
            self.probes.uninstall()
            tempfile.tempdir = None
            shutil.rmtree(self.work, ignore_errors=True)

    def _measure(self) -> dict:
        wl = self.wl
        setups = []
        for rep in range(SETUP_REPEATS):
            started = time.perf_counter()
            plan = wl.build(self.workload, self.seed)
            wl.warm_up(plan, self.work / f"setup{rep}")
            setups.append(time.perf_counter() - started)
        self.plan = plan
        if self.probes.slow:
            self.probes.install(record=False)

        walls, ref_walls, ref_cpus, shuffled, simulated = [], [], [], [], []
        traced: list[dict] = []
        traced_ref_walls: list[float] = []
        cals = [calibrate.measure()]

        def speed_scale() -> float:
            """Reference speed over the host's speed around the last iteration."""
            cals.append(calibrate.measure())
            return REF_CAL_S / ((cals[-2] + cals[-1]) / 2)

        iteration = 0
        if self.trace:
            # The first full-size iteration runs slower than the rest; keep
            # it out of tracing.overhead's untraced-vs-traced comparison.
            self._iteration(iteration, record=False)
            iteration += 1
            speed_scale()
        started = time.perf_counter()
        while True:
            wall, cpu, outcomes = self._iteration(iteration, record=False)
            scale = speed_scale()
            walls.append(wall)
            ref_walls.append(wall * scale)
            ref_cpus.append(cpu * scale)
            shuffled.append(sum(o.shuffled_records for o in outcomes.values()))
            simulated.append(sum(o.simulated_s for o in outcomes.values()))
            iteration += 1
            if self.trace:
                traced.append(self._traced_iteration(iteration))
                traced_ref_walls.append(traced[-1]["trace.iteration_s"] * speed_scale())
                iteration += 1
            if time.perf_counter() - started >= self.seconds:
                break
        peak_rss = _peak_rss_mb()

        speedup = None
        if self.trace and self.workload.executor != "serial":
            serial_wall, __, __ = self._iteration(iteration, record=False,
                                                  executor="serial")
            serial_ref = serial_wall * speed_scale()
            speedup = serial_ref / statistics.median(ref_walls)
        self._check_oracle()
        if self.workload.durable:
            self._check_plain()

        failed = sum(self.failures.values())
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
        }
        tail_pct = tail_percentile(len(walls))
        self.notes = {
            "iterations": len(walls),
            "raw_join_s": statistics.median(walls),
            "calibration_s": statistics.median(cals),
            "join_s_tail_percentile": tail_pct,
            "error_rate": failed / self.attempted,
            "errors": self.errors,
            "missing_probes": sorted(self.probes.missing),
        }
        if not self.trace:
            result["metrics"] = {
                "setup_s": statistics.median(setups),
                "join_s": statistics.median(ref_walls),
                "join_s_tail": percentile(ref_walls, tail_pct),
                "cpu_s": statistics.median(ref_cpus),
                "peak_rss_mb": peak_rss,
                "shuffled_records": statistics.median(shuffled),
                "simulated_s": statistics.median(simulated),
                "success_rate": (self.attempted - failed) / self.attempted,
            }
            return result
        layer = {
            name: statistics.median(t[name] for t in traced) for name in traced[0]
        }
        layer["tracing.overhead"] = (
            statistics.median(traced_ref_walls) / statistics.median(ref_walls))
        layer["calib.s"] = statistics.median(cals)
        if speedup is not None:
            layer["executor.speedup_vs_serial"] = speedup
        result["metrics"] = layer
        return result

    # ------------------------------------------------------------------
    def _iteration(self, iteration: int, *, record: bool, executor: str | None = None):
        """Run every query once; returns (wall s, CPU s, outcomes by algorithm)."""
        wl, plan = self.wl, self.plan
        clusters = {
            name: wl.new_cluster(plan, self.work / f"it{iteration}" / name,
                                 executor=executor)
            for name in plan.algorithms
        }
        results = {}
        gc.collect()
        if record:
            self.tracer.begin(iteration)
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        for name, algorithm in plan.algorithms.items():
            self.tracer.query = name
            try:
                results[name] = algorithm.run(plan.query, plan.datasets, plan.grid,
                                              clusters[name])
            except Exception as exc:  # noqa: BLE001 - a failed query is counted
                results[name] = exc
        wall = time.perf_counter() - t0
        cpu = _cpu_now() - cpu0
        if record:
            wall = self.tracer.end()
        outcomes = {}
        for name, result in results.items():
            self.attempted += 1
            if isinstance(result, Exception):
                self._fail(name, f"{name} raised {type(result).__name__}: {result}")
                continue
            outcomes[name] = got = wl.outcome(result, clusters[name])
            ref = self.reference.setdefault(name, got)
            if ref is not got:
                if got.fingerprint != ref.fingerprint or got.tuples != ref.tuples:
                    self._fail(name, f"{name} iteration {iteration}: output, canonical "
                                     "counters or simulated seconds differ from the "
                                     "first run")
                    continue
                got.tuples = None  # the reference keeps the only copy
            self.matches[name] = self.matches.get(name, 0) + 1
        shutil.rmtree(self.work / f"it{iteration}", ignore_errors=True)
        return wall, cpu, outcomes

    def _traced_iteration(self, iteration: int) -> dict:
        import layers

        self.probes.uninstall()
        self.probes.install(record=True)
        try:
            wall, __, outcomes = self._iteration(iteration, record=True)
        finally:
            self.probes.uninstall()
            if self.probes.slow:
                self.probes.install(record=False)
        return layers.iteration_metrics(
            wall,
            self.tracer.self_s,
            self.tracer.counts,
            {name: o.job_results for name, o in outcomes.items()},
            self.plan.workers,
        )

    def _fail(self, name: str, message: str, count: int = 1) -> None:
        """Count ``count`` failed queries of ``name``; a reference that fails a
        check fails every iteration that matched it."""
        self.failures[name] = self.failures.get(name, 0) + count
        self.errors.append(message)

    def _check_oracle(self) -> None:
        """Compare each algorithm's (reference) tuples with the oracle."""
        import oracle

        plan = self.plan
        expected = oracle.chain_join(
            [plan.datasets[s] for s in self.wl.SLOTS], list(self.workload.distances))
        for name, ref in self.reference.items():
            if ref.tuples != expected:
                self._fail(name, f"{name}: {len(ref.tuples)} tuples, oracle has "
                                 f"{len(expected)}", self.matches[name])

    def _check_plain(self) -> None:
        """Durable runs must match a plain in-memory run byte for byte."""
        plan = self.plan
        for name, algorithm in plan.algorithms.items():
            ref = self.reference.get(name)
            if ref is None:
                continue
            cluster = self.wl.new_cluster(plan, self.work / "plain", durable=False)
            try:
                plain = self.wl.outcome(
                    algorithm.run(plan.query, plan.datasets, plan.grid, cluster), cluster)
            except Exception as exc:  # noqa: BLE001 - no reference: the check fails
                self._fail(name, f"{name}: plain in-memory run raised {exc!r}",
                           self.matches[name])
                continue
            if plain.fingerprint != ref.fingerprint:
                self._fail(name, f"{name}: durable run differs from the plain "
                                 "in-memory run", self.matches[name])

    def write_spans(self) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.workload.name}-seed{self.seed}.spans.jsonl"
        self.tracer.write(str(path))
        return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repo_sources()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.measure()
    if args.trace:
        print(f"spans: {run.write_spans()}")
    for message in run.notes["errors"]:
        print(f"FAILED: {message}")
    if run.notes["missing_probes"]:
        print(f"probes without a target: {run.notes['missing_probes']}")
    notes = run.notes
    print(f"workload {args.workload} seed {args.seed}: {notes['iterations']} iterations, "
          f"error_rate {notes['error_rate']:.4f}, join_s_tail = "
          f"p{notes['join_s_tail_percentile']:.1f}, host join_s {notes['raw_join_s']:.4f} s, "
          f"calibration {notes['calibration_s']:.5f} s (reference {REF_CAL_S} s)")
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:.6g} {spec.UNITS[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": spec.UNITS[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
