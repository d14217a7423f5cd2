"""Pluggable task executors: how the simulated cluster runs its tasks.

The engine models a k-reducer Hadoop cluster; this module decides how
much *actual* hardware parallelism backs that model.  A phase (all map
tasks, or all reduce tasks, of one job) is a list of independent task
invocations ``worker(payload, index)`` where

* ``payload`` is the phase-wide immutable state (the job plus the task
  inputs), shared by reference in-process and inherited by forked
  workers, and
* ``index`` is the task id (split index or reducer id).

Three back-ends are provided:

``serial``
    Run tasks one after another in the calling thread (the seed
    behaviour, and the default).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Python threads
    only overlap during C-level work, but the back-end exercises the
    same task isolation as processes and is cheap to spin up.
``process``
    A ``fork``-based :class:`multiprocessing.pool.Pool`.  Workers
    inherit the payload through copy-on-write memory, so job closures
    (mappers capturing grids, marking engines, joiners) need not be
    picklable; only task *results* cross the process boundary, and
    they cross by value except for references to frozen payload
    objects the parent published (see "Result contract").  A worker
    that dies mid-phase fails the phase with a one-line
    :class:`~repro.errors.JobError`.  On platforms without ``fork``
    the back-end degrades to threads.

Determinism contract: ``run_phase`` returns results indexed by task id
regardless of completion order, and workers must be pure functions of
``(payload, index)``.  The engine merges results in task-id order, so a
job produces byte-identical output at every worker count.

Timing contract (observability): executors do not time tasks — the task
functions stamp ``time.perf_counter()`` at entry and exit *inside the
worker* and ship the stamps back in their result objects.  That way the
per-task durations the dashboard and trace report are true worker-side
durations on every back-end: thread-pool queueing shows up as a gap
between dispatch and ``t_start``, not as inflated task time, and forked
workers' stamps are directly comparable with the parent's because
``perf_counter`` is the system-wide CLOCK_MONOTONIC on Linux.  Back-ends
that fall back (``process`` without ``fork`` support degrades to
threads) therefore keep honest timelines with no executor cooperation.

Result contract: everything a task hands back must be **picklable** —
the process back-end ships results through a pipe.  That includes the
observability payloads riding in result objects: worker-side time
stamps, counter shards, and (under ``--profile``) the raw cProfile
stats dict ``{(file, line, func): (cc, nc, tt, ct, callers)}``, which
is plain tuples/dicts/strings by construction.  One exception keeps
the heaviest results small: an executor may be handed the job's
*frozen payload objects* (:meth:`TaskExecutor.share`; the engine
publishes the rectangles of the map splits).  Right before its first
fork the process back-end indexes them by ``id`` in a reference table
the workers inherit, and a worker pickles any of them it returns as a
reference the parent resolves to its own object — so a rectangle
keeps its identity (and its memoized CSV form) across every phase of
the job instead of being copied out and back.  Frozen objects cannot
have been mutated by the worker, so the parent's object is exactly
the one the worker held.

Worker identity: executors know nothing about the *named* virtual
workers of :mod:`repro.mapreduce.workers` — pool slots here are
anonymous interchangeable capacity.  The recovery dispatcher assigns
each attempt a worker name parent-side and threads it through the
opaque session tag (the 5-tuple ``(index, attempt, speculative, skips,
worker_name)``), so failure domains are identical on every back-end
without the back-ends cooperating: killing virtual worker ``w2`` loses
the same attempts and the same committed map outputs whether the tasks
physically ran on one thread or sixteen forks.
"""

from __future__ import annotations

import abc
import copyreg
import gc
import io
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Any

from repro.errors import JobError
from repro.geometry.rectangle import Rect

__all__ = [
    "EXECUTORS",
    "TaskExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PhaseSession",
    "build_ref_table",
    "make_executor",
    "default_workers",
]

#: worker(payload, task_index) -> task result
TaskWorker = Callable[[Any, int], Any]


def default_workers() -> int:
    """Worker count when the caller does not pick one: usable CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class PhaseSession(abc.ABC):
    """Streaming task dispatch: submit tagged invocations, await completions.

    The recovery layer (:mod:`repro.mapreduce.faults`) uses sessions for
    speculative execution, where the task population grows *while* the
    phase runs — a straggler gets a backup attempt submitted mid-flight
    and the first finisher wins — and for the hung-task watchdog, which
    sweeps between completions and re-dispatches any attempt past its
    wall-clock bound (an abandoned attempt keeps occupying its pool slot
    until it returns or the session closes; its late result is dropped
    by the caller).  ``run_phase`` cannot express either (its task list
    is fixed up front), so parallel back-ends expose this lower-level
    API as well:

    * :meth:`submit` enqueues ``worker(payload, tag)`` where ``tag`` is
      an arbitrary (picklable) value identifying the invocation — the
      recovery layer uses ``(task index, attempt id, speculative)``
      tuples;
    * :meth:`next_done` blocks until any submitted invocation finishes
      and returns ``(tag, result)``, or ``None`` on timeout so the
      caller can run its straggler monitor and watchdog sweep between
      completions.

    Sessions are context managers; leaving the ``with`` block releases
    the pool, abandoning invocations that are still running (their
    results are discarded — exactly the semantics a speculative loser
    needs).
    """

    @abc.abstractmethod
    def submit(self, tag: Any) -> None:
        """Enqueue one ``worker(payload, tag)`` invocation."""

    @abc.abstractmethod
    def next_done(self, timeout: float | None = None):
        """``(tag, result)`` of the next finished invocation, or ``None``.

        Raises the invocation's exception if it raised.  ``None`` is
        returned only on timeout; with no timeout the call blocks until
        a completion arrives (calling with nothing outstanding is a
        caller bug and raises :class:`~repro.errors.JobError`).
        """

    def __enter__(self) -> "PhaseSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @abc.abstractmethod
    def close(self) -> None:
        """Release the pool, discarding unfinished invocations."""


class TaskExecutor(abc.ABC):
    """Runs one phase of independent tasks, preserving task-id order."""

    name: str = "abstract"

    @abc.abstractmethod
    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        """Run ``worker(payload, i)`` for ``i in range(num_tasks)``.

        Returns the results ordered by task id.  A task exception
        aborts the phase and propagates to the caller.
        """

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        """A streaming :class:`PhaseSession`, or ``None`` when the
        back-end has no useful concurrency to offer (serial execution,
        or a single worker).  Callers must fall back to :meth:`run_phase`
        on ``None``."""
        return None

    def share(self, source: Callable[[], list] | None) -> None:
        """Publish the job's frozen payload objects; ``None`` withdraws them.

        ``source`` is a thunk returning a list of the frozen
        rectangles (:class:`~repro.geometry.rectangle.Rect`) that the
        phase payloads carry.  Only a back-end that forks calls it,
        right before its first fork, to build the reference table its
        workers return those objects through; every other back-end
        shares the payload by reference already and ignores it, so
        serial and thread runs never pay for it.
        """

    # An executor is scoped to one job: leaving the ``with`` block
    # drops whatever the job published.
    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.share(None)


class SerialExecutor(TaskExecutor):
    """Tasks run inline, one after another — the seed engine behaviour."""

    name = "serial"

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        return [worker(payload, i) for i in range(num_tasks)]


class ThreadExecutor(TaskExecutor):
    """Tasks run on a thread pool sharing the payload by reference."""

    name = "thread"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = num_workers if num_workers else default_workers()

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        if num_tasks <= 1 or self.num_workers <= 1:
            return SerialExecutor().run_phase(worker, num_tasks, payload)
        with ThreadPoolExecutor(
            max_workers=min(self.num_workers, num_tasks)
        ) as pool:
            futures = [
                pool.submit(worker, payload, i) for i in range(num_tasks)
            ]
            # Wait until everything finished or something failed; a
            # failure cancels the still-queued tail instead of running
            # every remaining task to completion first (the pool starts
            # tasks in submission order, so cancelled futures are always
            # a suffix and never hide a lower failing task id).
            wait(futures, return_when=FIRST_EXCEPTION)
            if any(f.done() and not f.cancelled() and f.exception() for f in futures):
                for f in futures:
                    f.cancel()
            # Collect in submission order: results land at their task id
            # and the lowest failing task id is the one that raises.
            return [f.result() for f in futures if not f.cancelled()]

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        if self.num_workers <= 1:
            return None
        return _ThreadSession(worker, payload, self.num_workers)


class _ThreadSession(PhaseSession):
    """Thread-pool session: payload shared by reference, tags by value."""

    def __init__(self, worker: TaskWorker, payload: Any, num_workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=num_workers)
        self._worker = worker
        self._payload = payload
        self._pending: dict[Any, Any] = {}  # future -> tag

    def submit(self, tag: Any) -> None:
        self._pending[self._pool.submit(self._worker, self._payload, tag)] = tag

    def next_done(self, timeout: float | None = None):
        if not self._pending:
            raise JobError("next_done called with no outstanding invocations")
        done, __ = wait(self._pending, timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            return None
        future = next(iter(done))
        tag = self._pending.pop(future)
        return tag, future.result()

    def close(self) -> None:
        # Unstarted invocations are dropped; running ones finish in the
        # background with their results discarded (speculative losers).
        for future in self._pending:
            future.cancel()
        self._pool.shutdown(wait=False)
        self._pending.clear()


# Payload handoff for forked workers.  Set in the parent immediately
# before the pool forks; children inherit it through copy-on-write, so
# nothing here is ever pickled.  The lock serializes the set-fork-restore
# window so nested or concurrent ``run_phase`` calls (retry rounds
# re-dispatching a phase, two clusters on two threads) can never fork a
# pool against another call's payload; save-and-restore (instead of
# resetting to ``None``) keeps an outer call's state intact across an
# inner one.  The third member is the phase's reference table.
_FORK_STATE: tuple[TaskWorker, Any, dict[int, Any] | None] | None = None
_FORK_LOCK = threading.Lock()

#: how often a process phase waiting on results checks its workers live
_LIVENESS_POLL_S = 0.05


def build_ref_table(objs: list) -> dict[int, Any]:
    """``id -> object`` over a job's frozen payload objects.

    Built in C-level bulk.  The table keeps every registered object
    alive, so no object a worker creates can ever share an ``id`` with
    one — which is what lets the worker prove inheritance by identity.
    """
    stray = set(map(type, objs)) - {Rect}
    if stray:
        names = ", ".join(sorted(cls.__name__ for cls in stray))
        raise JobError(f"only frozen rectangles may be shared by reference, got {names}")
    return dict(zip(map(id, objs), objs))


def _payload_ref(key: int):
    """What a worker pickles in place of an inherited payload object.

    A phase's own unpickler resolves it against that phase's table;
    reached any other way the reference has nothing to resolve against.
    """
    raise JobError(f"task result references payload object {key:#x} outside its phase")


def _ref_dispatch(refs: dict[int, Any]) -> dict:
    """A pickler dispatch table emitting references to ``refs`` members."""
    get = refs.get

    def reduce(obj):
        if get(id(obj)) is obj:
            return _payload_ref, (id(obj),)
        return obj.__reduce_ex__(5)  # created by the worker: by value

    table = copyreg.dispatch_table.copy()
    table[Rect] = reduce
    return table


class _RefUnpickler(pickle.Unpickler):
    """Resolves payload references against one phase's table."""

    def __init__(self, data: bytes, buffers: list[bytes], refs: dict[int, Any]) -> None:
        super().__init__(io.BytesIO(data), buffers=buffers)
        self._get = refs.get

    def find_class(self, module: str, name: str):
        if name == "_payload_ref" and module == __name__:
            return self._resolve
        return super().find_class(module, name)

    def _resolve(self, key: int):
        obj = self._get(key)
        if obj is None:
            raise JobError(f"task result references unknown payload object {key:#x}")
        return obj


def pack_task_result(
    result, refs: dict[int, Any] | None = None
) -> tuple[bytes, list[bytes]]:
    """Serialize a task result for the pipe: protocol 5, out-of-band.

    The worker serializes once with pickle protocol 5, exporting large
    contiguous buffers (numpy key arrays of columnar bucket segments,
    spill-run frames) out-of-band via ``buffer_callback`` instead of
    re-framing them inside the stream.  The pool then ships
    ``(data, buffers)`` — two flat byte payloads — rather than
    re-pickling the whole object graph at the transport's default
    protocol 4.  Combined with the compact ``__getstate__`` forms of
    ``Rect``/``TaggedRect`` this measurably shrinks per-task IPC (see
    the regression test in ``tests/mapreduce/test_executor.py``).

    ``refs`` is the phase's reference table (:func:`build_ref_table`):
    a rectangle that *is* one of its members — inherited from the
    payload, not merely equal to one — packs as a short reference
    instead of its state.  Only rectangles pay the table lookup; every
    other object pickles exactly as without a table.
    """
    buffers: list[pickle.PickleBuffer] = []
    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5, buffer_callback=buffers.append)
    if refs:
        pickler.dispatch_table = _ref_dispatch(refs)
    pickler.dump(result)
    return out.getvalue(), [b.raw().tobytes() for b in buffers]


def unpack_task_result(
    packed: tuple[bytes, list[bytes]], refs: dict[int, Any] | None = None
):
    """Inverse of :func:`pack_task_result`, resolving against ``refs``.

    The collector is paused for the decode (and its prior state
    restored even if the decode raises): a result is a large graph of
    fresh container objects whose allocation would otherwise keep
    triggering collections, full ones over the parent's whole heap
    included, that find nothing to free.
    """
    data, buffers = packed
    enabled = gc.isenabled()
    gc.disable()
    try:
        if refs:
            return _RefUnpickler(data, buffers, refs).load()
        return pickle.loads(data, buffers=buffers)
    finally:
        if enabled:
            gc.enable()


def _run_forked_task(index: int):
    worker, payload, refs = _FORK_STATE  # type: ignore[misc] - set before fork
    return pack_task_result(worker(payload, index), refs)


class _ForkedPool:
    """One phase's forked pool, its workers and its reference table."""

    def __init__(
        self,
        worker: TaskWorker,
        payload: Any,
        processes: int,
        refs: dict[int, Any] | None,
    ) -> None:
        global _FORK_STATE
        ctx = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            saved = _FORK_STATE
            _FORK_STATE = (worker, payload, refs)
            # CPython's recipe for fork without exec: frozen, the
            # inherited heap is invisible to the children's collector,
            # which then never copy-on-write-touches it.
            gc.freeze()
            try:
                self.pool = ctx.Pool(processes=processes)
            finally:
                gc.unfreeze()
                _FORK_STATE = saved
        # Pool has no public handle on its workers.  Snapshot them: a
        # dead worker's task result never arrives, and Pool silently
        # forks a replacement (outside the lock, so against whatever
        # payload is published then) instead of failing anything.
        self._procs = list(self.pool._pool)
        self._refs = refs
        self._label = getattr(worker, "__qualname__", repr(worker))

    def check_alive(self) -> None:
        """Raise a one-line :class:`JobError` if any worker has died."""
        for proc in self._procs:
            code = proc.exitcode
            if code is not None:
                how = f" ({signal.Signals(-code).name})" if code < 0 else ""
                raise JobError(
                    f"process phase {self._label}: forked worker pid {proc.pid} "
                    f"died with exit code {code}{how}; its task result is lost"
                )

    def next_result(self, results):
        """The next in-order result of an ``imap`` over this pool."""
        while True:
            try:
                packed = results.next(timeout=_LIVENESS_POLL_S)
            except multiprocessing.TimeoutError:
                self.check_alive()
            else:
                return self.unpack(packed)

    def unpack(self, packed):
        return unpack_task_result(packed, self._refs)

    def close(self) -> None:
        # terminate (not close): running tasks are killed, not awaited.
        self.pool.terminate()
        self.pool.join()


class ProcessExecutor(TaskExecutor):
    """Tasks run on forked worker processes (true multi-core execution)."""

    name = "process"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = num_workers if num_workers else default_workers()
        self._shared: Callable[[], list] | None = None
        self._refs: dict[int, Any] | None = None

    def share(self, source: Callable[[], list] | None) -> None:
        self._shared = source
        self._refs = None

    def _fork(self, worker: TaskWorker, payload: Any, processes: int) -> _ForkedPool:
        """Fork a pool whose workers inherit ``(worker, payload)``.

        The job's reference table is built right before its first
        fork and serves every later phase of the job: results resolve
        to parent objects, so the next phase's payload holds the same
        (registered) objects again.
        """
        if self._refs is None and self._shared is not None:
            self._refs = build_ref_table(self._shared())
        return _ForkedPool(worker, payload, processes, self._refs)

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        if num_tasks <= 1 or self.num_workers <= 1:
            return SerialExecutor().run_phase(worker, num_tasks, payload)
        if "fork" not in multiprocessing.get_all_start_methods():
            # No copy-on-write payload inheritance without fork (e.g.
            # Windows); threads keep the same semantics and determinism.
            return ThreadExecutor(self.num_workers).run_phase(
                worker, num_tasks, payload
            )
        forked = self._fork(worker, payload, min(self.num_workers, num_tasks))
        try:
            # imap (not map) so the lowest failing task id raises
            # first, matching the serial error behaviour.
            results = forked.pool.imap(_run_forked_task, range(num_tasks), chunksize=1)
            return [forked.next_result(results) for __ in range(num_tasks)]
        finally:
            forked.close()

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        if self.num_workers <= 1:
            return None
        if "fork" not in multiprocessing.get_all_start_methods():
            return ThreadExecutor(self.num_workers).open_session(worker, payload)
        return _ProcessSession(self._fork(worker, payload, self.num_workers))


class _ProcessSession(PhaseSession):
    """Forked-pool session: workers inherited the payload at fork time;
    each submit ships only the (small, picklable) tag."""

    #: polling interval for completion checks (``AsyncResult`` has no
    #: select()-style multiplexed wait)
    _POLL_S = 0.002

    def __init__(self, forked: _ForkedPool) -> None:
        self._forked = forked
        self._pending: list[tuple[Any, Any]] = []  # (tag, AsyncResult)

    def submit(self, tag: Any) -> None:
        self._pending.append(
            (tag, self._forked.pool.apply_async(_run_forked_task, (tag,)))
        )

    def next_done(self, timeout: float | None = None):
        if not self._pending:
            raise JobError("next_done called with no outstanding invocations")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            done = next(
                (i for i, (__, ar) in enumerate(self._pending) if ar.ready()), None
            )
            # Checked after the scan: a replacement worker's result can
            # only be ready once the worker it replaced is dead.
            self._forked.check_alive()
            if done is not None:
                tag, ar = self._pending.pop(done)
                return tag, self._forked.unpack(ar.get())
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self._POLL_S)

    def close(self) -> None:
        self._forked.close()
        self._pending.clear()


EXECUTORS: dict[str, type[TaskExecutor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(name: str, num_workers: int | None = None) -> TaskExecutor:
    """Build the named executor (``serial`` ignores ``num_workers``)."""
    cls = EXECUTORS.get(name)
    if cls is None:
        raise JobError(
            f"unknown executor {name!r}; choose one of {sorted(EXECUTORS)}"
        )
    if cls is SerialExecutor:
        return cls()
    return cls(num_workers)
