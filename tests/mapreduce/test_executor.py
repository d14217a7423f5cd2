"""Unit tests for the pluggable task executors."""

import gc
import os
import signal
import threading
import time

import pytest

import repro.mapreduce.executor as executor_mod
from repro.errors import JobError
from repro.geometry.rectangle import Rect
from repro.mapreduce.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    TaskExecutor,
    ThreadExecutor,
    build_ref_table,
    default_workers,
    make_executor,
    pack_task_result,
    unpack_task_result,
)

ALL_EXECUTORS = sorted(EXECUTORS)


def square_worker(payload, index):
    return payload["base"] + index * index


def pid_worker(payload, index):
    return os.getpid()


def failing_worker(payload, index):
    if index == payload:
        raise JobError(f"task {index} failed")
    return index


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)
        assert isinstance(make_executor("process", 2), ProcessExecutor)

    def test_unknown_name_raises(self):
        with pytest.raises(JobError, match="unknown executor"):
            make_executor("gpu")

    def test_registry_covers_all_backends(self):
        assert set(EXECUTORS) == {"serial", "thread", "process"}
        for cls in EXECUTORS.values():
            assert issubclass(cls, TaskExecutor)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_none_workers_defaults_to_cpus(self):
        assert make_executor("thread", None).num_workers == default_workers()
        assert make_executor("process", 0).num_workers == default_workers()


class TestRunPhase:
    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_ordered_by_task_id(self, name, workers):
        ex = make_executor(name, workers)
        results = ex.run_phase(square_worker, 7, {"base": 100})
        assert results == [100 + i * i for i in range(7)]

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    def test_zero_tasks(self, name):
        assert make_executor(name, 2).run_phase(square_worker, 0, {"base": 0}) == []

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    def test_single_task(self, name):
        assert make_executor(name, 4).run_phase(square_worker, 1, {"base": 5}) == [5]

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_error_propagates(self, name, workers):
        ex = make_executor(name, workers)
        with pytest.raises(JobError, match="task 2 failed"):
            ex.run_phase(failing_worker, 5, 2)

    def test_more_workers_than_tasks(self):
        ex = make_executor("process", 64)
        assert ex.run_phase(square_worker, 3, {"base": 0}) == [0, 1, 4]

    def test_process_executor_forks(self):
        """With >1 worker and >1 task, work really leaves this process."""
        pids = set(make_executor("process", 2).run_phase(pid_worker, 4, None))
        assert os.getpid() not in pids

    def test_thread_executor_shares_process(self):
        pids = set(make_executor("thread", 2).run_phase(pid_worker, 4, None))
        assert pids == {os.getpid()}

    def test_process_single_worker_stays_inline(self):
        pids = set(make_executor("process", 1).run_phase(pid_worker, 4, None))
        assert pids == {os.getpid()}

    def test_payload_shared_not_copied_in_threads(self):
        payload = {"base": 1}
        results = make_executor("thread", 4).run_phase(
            lambda p, i: p is payload, 4, payload
        )
        assert all(results)

    def test_closure_worker_survives_fork(self):
        """Fork inherits closures: no pickling of the worker or payload."""
        grid = {"cells": [1, 2, 3]}

        def worker(payload, index):
            return payload["cells"][index] * 10

        assert make_executor("process", 2).run_phase(worker, 3, grid) == [10, 20, 30]


class TestThreadCancelOnFailure:
    def test_failure_cancels_queued_tail(self):
        """A failing task must stop the phase without first running every
        still-queued task to completion (regression: the seed executor
        awaited ALL_COMPLETED, so a long tail ran pointlessly after an
        early failure)."""
        started: list[int] = []
        gate = threading.Event()

        def worker(payload, index):
            started.append(index)
            if index == 0:
                gate.wait(5.0)  # hold a worker slot until task 1 fails
                raise JobError("task 0 failed")
            if index == 1:
                time.sleep(0.05)
                gate.set()
                raise JobError("task 1 failed")
            time.sleep(0.01)
            return index

        with pytest.raises(JobError, match="task 0 failed"):
            # 2 workers, 24 tasks: 0 and 1 occupy the pool; once they
            # fail, the remaining 22 must be cancelled, not drained.
            ThreadExecutor(num_workers=2).run_phase(worker, 24, None)
        assert len(started) < 24

    def test_lowest_failing_task_still_raises(self):
        """Cancellation must not change *which* error surfaces."""
        with pytest.raises(JobError, match="task 2 failed"):
            ThreadExecutor(num_workers=4).run_phase(failing_worker, 16, 2)


class TestForkStateIsolation:
    """_FORK_STATE is published only inside the locked fork window and
    restored afterwards, so nested or concurrent run_phase calls can
    never fork a pool against another call's payload."""

    def test_state_restored_after_phase(self):
        sentinel = ("outer-worker", {"outer": True})
        executor_mod._FORK_STATE = sentinel
        try:
            result = ProcessExecutor(num_workers=2).run_phase(
                square_worker, 4, {"base": 7}
            )
            assert result == [7, 8, 11, 16]
            assert executor_mod._FORK_STATE is sentinel
        finally:
            executor_mod._FORK_STATE = None

    def test_nested_run_phase_keeps_outer_payload(self):
        """Process phases forked from inside an outer thread phase's
        workers (two forks racing in one process) must each see their
        own payload.  Pool workers are daemonic, so process-in-process
        nesting is structurally impossible — thread-outer is the real
        nested shape."""

        def inner(payload, index):
            return payload + index

        def outer(payload, index):
            base = ProcessExecutor(num_workers=2).run_phase(inner, 2, index * 100)
            return sum(base)

        results = ThreadExecutor(num_workers=3).run_phase(outer, 3, None)
        assert results == [1, 201, 401]

    def test_concurrent_clusters_do_not_cross_payloads(self):
        """Two threads forking process pools at once: each phase must see
        its own payload (the lock serializes the set-fork-restore
        window)."""
        errors: list[str] = []
        barrier = threading.Barrier(2, timeout=10.0)

        def drive(tag: int) -> None:
            def worker(payload, index):
                return (payload, index)

            for round_no in range(4):
                barrier.wait()
                got = ProcessExecutor(num_workers=2).run_phase(worker, 3, tag)
                want = [(tag, i) for i in range(3)]
                if got != want:
                    errors.append(f"thread {tag} round {round_no}: {got}")

        threads = [threading.Thread(target=drive, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert errors == []


class TestPhaseSessions:
    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_streaming_results_tagged(self, name):
        ex = make_executor(name, 2)
        session = ex.open_session(square_worker, {"base": 100})
        assert session is not None
        with session:
            for tag in range(4):
                session.submit(tag)
            seen = {}
            while len(seen) < 4:
                item = session.next_done(timeout=5.0)
                assert item is not None
                tag, result = item
                seen[tag] = result
        assert seen == {i: 100 + i * i for i in range(4)}

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    def test_single_worker_has_no_session(self, name):
        assert make_executor(name, 1).open_session(square_worker, None) is None

    def test_serial_never_opens_a_session(self):
        assert SerialExecutor().open_session(square_worker, None) is None

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_next_done_with_nothing_outstanding_raises(self, name):
        session = make_executor(name, 2).open_session(square_worker, None)
        with session:
            with pytest.raises(JobError, match="no outstanding"):
                session.next_done()

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_close_abandons_stragglers(self, name):
        """Leaving the with-block discards unfinished invocations — the
        speculative-loser semantics — without hanging."""

        def slow(payload, tag):
            time.sleep(30.0)
            return tag

        ex = make_executor(name, 2)
        started = time.monotonic()
        with ex.open_session(slow, None) as session:
            session.submit(0)
            session.submit(1)
            assert session.next_done(timeout=0.05) is None
        assert time.monotonic() - started < 10.0


# Module-level twins of Rect/TaggedRect *without* the compact
# ``__getstate__`` forms: the baseline the packing regression test
# compares against (module level so worker pickling can import them).
import dataclasses as _dataclasses


@_dataclasses.dataclass(frozen=True, slots=True)
class _PlainRect:
    x: float
    y: float
    l: float
    b: float


@_dataclasses.dataclass(frozen=True, slots=True)
class _PlainTagged:
    dataset: str
    rid: int
    rect: _PlainRect
    marked: bool


class TestTaskResultPacking:
    """Protocol-5 IPC packing: smaller payloads, identical results."""

    @staticmethod
    def _segments(rect_cls, tagged_cls):
        """A result shaped like a real map task's: segments of tagged rects."""
        np = pytest.importorskip("numpy")
        from repro.mapreduce.job import BucketSegment

        segments = []
        for seg in range(4):
            keys = np.arange(seg * 100, seg * 100 + 100, dtype=np.int64)
            values = [
                tagged_cls(
                    dataset=f"R{seg % 3 + 1}",
                    rid=seg * 100 + i,
                    rect=rect_cls(float(i), float(i + 1), 0.5, 0.25),
                    marked=bool(i % 2),
                )
                for i in range(100)
            ]
            segments.append(BucketSegment(keys, values))
        return {"segments": segments, "counters": {"MAP_OUTPUT_RECORDS": 400}}

    def test_roundtrip_preserves_result(self):
        from repro.data.io import TaggedRect
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result, unpack_task_result

        result = self._segments(Rect, TaggedRect)
        restored = unpack_task_result(pack_task_result(result))
        assert restored["counters"] == result["counters"]
        for orig, back in zip(result["segments"], restored["segments"]):
            assert back.keys.tolist() == orig.keys.tolist()
            assert back.values == orig.values

    def test_compact_state_shrinks_task_payload(self):
        """The compact ``__getstate__`` forms must keep the task payload
        no bigger than the pre-PR wire format.  Two guards: (1) the
        memoised ``_csv`` codec cache never ships — packing a result whose
        rectangles have all been encoded yields byte-for-byte the same
        payload size as packing fresh ones; (2) the 4-tuple state still
        undercuts the default dataclass state (``_PlainRect``/
        ``_PlainTagged`` reconstruct it for the same logical payload)."""
        from repro.data.io import TaggedRect, encode_tagged
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result

        def total(packed):
            data, buffers = packed
            return len(data) + sum(len(b) for b in buffers)

        result = self._segments(Rect, TaggedRect)
        fresh = total(pack_task_result(result))
        for segment in result["segments"]:
            for tagged in segment.values:
                encode_tagged(tagged)  # populates tagged.rect._csv
        cached = total(pack_task_result(result))
        assert cached == fresh
        plain = total(pack_task_result(self._segments(_PlainRect, _PlainTagged)))
        assert fresh < plain

    def test_packed_no_larger_than_pool_default(self):
        """data + out-of-band buffers never exceed what the pool's
        default ForkingPickler protocol would have shipped in one blob."""
        from multiprocessing.reduction import ForkingPickler

        from repro.data.io import TaggedRect
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result

        result = self._segments(Rect, TaggedRect)
        data, buffers = pack_task_result(result)
        packed_bytes = len(data) + sum(len(b) for b in buffers)
        default_bytes = len(bytes(ForkingPickler.dumps(result)))
        assert packed_bytes <= default_bytes

    def test_process_executor_ships_packed_results(self):
        ex = ProcessExecutor(num_workers=2)
        results = ex.run_phase(square_worker, 4, {"base": 3})
        assert results == [3, 4, 7, 12]

    def test_payload_resident_rect_packs_smaller(self):
        """A rect the reference table holds ships as a short reference,
        a by-value rect as its state; both unpack to equal results."""
        from repro.data.io import TaggedRect

        result = self._segments(Rect, TaggedRect)
        rects = [t.rect for seg in result["segments"] for t in seg.values]
        refs = build_ref_table(rects)
        by_value = pack_task_result(result)
        by_ref = pack_task_result(result, refs)
        assert len(by_ref[0]) < len(by_value[0])
        back = unpack_task_result(by_ref, refs)
        for orig, seg in zip(result["segments"], back["segments"]):
            assert all(a.rect is b.rect for a, b in zip(orig.values, seg.values))


def _rects(n: int, y: float = 0.0) -> list[Rect]:
    return [Rect(float(i), y, 1.0, 2.0) for i in range(n)]


def _return_payload_rect(payload, index):
    """The payload's rect, an equal rect the worker made, and a new one."""
    rect = payload[index]
    return rect, Rect(rect.x, rect.y, rect.l, rect.b), Rect(rect.x, 9.0, 1.0, 1.0)


class _Forged:
    """Pickles as a payload reference no table holds."""

    def __reduce__(self):
        return executor_mod._payload_ref, (0xDEAD,)


class TestReferenceTransport:
    """Forked tasks return payload rects as references to the parent's
    own objects; everything else crosses by value."""

    def test_payload_rects_come_back_as_parent_objects(self):
        rects = _rects(6)
        with ProcessExecutor(num_workers=2) as ex:
            ex.share(lambda: rects)
            got = ex.run_phase(_return_payload_rect, 6, rects)
        for rect, (inherited, equal, fresh) in zip(rects, got):
            assert inherited is rect
            # worker-made rects are copies, even when equal to a payload one
            assert equal == rect and equal is not rect
            assert fresh == Rect(rect.x, 9.0, 1.0, 1.0)

    def test_session_results_resolve_too(self):
        rects = _rects(4)
        with ProcessExecutor(num_workers=2) as ex:
            ex.share(lambda: rects)
            with ex.open_session(_return_payload_rect, rects) as session:
                for tag in range(4):
                    session.submit(tag)
                seen = dict(session.next_done(timeout=10.0) for __ in range(4))
        assert all(seen[i][0] is rects[i] for i in range(4))

    def test_unshared_phase_returns_copies(self):
        rects = _rects(3)
        got = ProcessExecutor(num_workers=2).run_phase(_return_payload_rect, 3, rects)
        assert [g[0] for g in got] == rects
        assert all(g[0] is not r for g, r in zip(got, rects))

    def test_table_built_once_per_job_and_dropped_at_exit(self, monkeypatch):
        built = []
        real = executor_mod.build_ref_table
        monkeypatch.setattr(
            executor_mod, "build_ref_table", lambda objs: built.append(1) or real(objs)
        )
        rects = _rects(4)
        with ProcessExecutor(num_workers=2) as ex:
            ex.share(lambda: rects)
            first = ex.run_phase(_return_payload_rect, 4, rects)
            # the next phase's payload holds the resolved (same) objects
            second = ex.run_phase(_return_payload_rect, 4, [g[0] for g in first])
            assert ex._refs is not None
        assert built == [1]
        assert all(g[0] is r for g, r in zip(second, rects))
        assert ex._refs is None

    def test_nested_phases_resolve_against_their_own_tables(self):
        """Thread-outer, process-inner: each inner phase shares its own
        rects and must get exactly those objects back."""

        def outer(payload, index):
            rects = _rects(3, y=float(index))
            with ProcessExecutor(num_workers=2) as ex:
                ex.share(lambda: rects)
                got = ex.run_phase(_return_payload_rect, 3, rects)
            return all(g[0] is r for g, r in zip(got, rects))

        assert ThreadExecutor(num_workers=3).run_phase(outer, 3, None) == [True] * 3

    def test_concurrent_phases_resolve_against_their_own_tables(self):
        errors: list[str] = []
        barrier = threading.Barrier(2, timeout=10.0)

        def drive(tag: int) -> None:
            rects = _rects(3, y=float(tag))
            with ProcessExecutor(num_workers=2) as ex:
                ex.share(lambda: rects)
                for round_no in range(3):
                    barrier.wait()
                    got = ex.run_phase(_return_payload_rect, 3, rects)
                    if not all(g[0] is r for g, r in zip(got, rects)):
                        errors.append(f"thread {tag} round {round_no}")

        threads = [threading.Thread(target=drive, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
        assert errors == []

    def test_forged_reference_is_a_one_line_job_error(self):
        packed = pack_task_result([_Forged()])
        with pytest.raises(JobError, match="unknown payload object 0xdead") as exc:
            unpack_task_result(packed, build_ref_table(_rects(2)))
        assert "\n" not in str(exc.value)
        with pytest.raises(JobError, match="outside its phase"):
            unpack_task_result(packed)

    def test_only_rects_register(self):
        with pytest.raises(JobError, match="only frozen rectangles.*list"):
            build_ref_table([Rect(0.0, 0.0, 1.0, 1.0), [1, 2]])


class TestGarbageCollectorState:
    """Freezing around the fork and pausing around the decode must leave
    the collector exactly as the phase found it."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_after_a_phase(self, gc_state):
        assert ProcessExecutor(num_workers=2).run_phase(square_worker, 4, {"base": 0})
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == 0

    def test_after_a_phase_whose_task_raised(self, gc_state):
        with pytest.raises(JobError, match="task 1 failed"):
            ProcessExecutor(num_workers=2).run_phase(failing_worker, 4, 1)
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == 0

    def test_after_a_failed_decode(self, gc_state):
        with pytest.raises(JobError):
            unpack_task_result(pack_task_result(_Forged()), build_ref_table(_rects(1)))
        assert gc.isenabled() is gc_state

    def test_after_a_session(self, gc_state):
        with ProcessExecutor(num_workers=2).open_session(square_worker, {"base": 1}) as s:
            s.submit(3)
            assert s.next_done(timeout=10.0) == (3, 10)
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == 0


def _dies(payload, index):
    if index == payload:
        os._exit(3)
    time.sleep(0.05)
    return index


def _killed(payload, tag):
    if tag == payload:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.05)
    return tag


def _bounded(fn, timeout_s: float = 20.0):
    """Run ``fn`` on a daemon thread; fail (not hang) past ``timeout_s``."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"phase still running after {timeout_s}s"
    return outcome


class TestDyingWorker:
    """A forked worker that dies mid-task fails the phase in bounded time
    with a one-line error naming the phase and the exit code, instead
    of waiting forever for a result that will never arrive."""

    def test_run_phase(self):
        outcome = _bounded(lambda: ProcessExecutor(num_workers=2).run_phase(_dies, 4, 2))
        error = outcome.get("error")
        assert isinstance(error, JobError), outcome
        assert "process phase _dies" in str(error)
        assert "exit code 3" in str(error)
        assert "\n" not in str(error)

    def test_session(self):
        def drive():
            with ProcessExecutor(num_workers=2).open_session(_killed, 1) as session:
                for tag in range(3):
                    session.submit(tag)
                while True:
                    session.next_done(timeout=1.0)

        error = _bounded(drive).get("error")
        assert isinstance(error, JobError), error
        assert "process phase _killed" in str(error)
        assert "exit code -9 (SIGKILL)" in str(error)
