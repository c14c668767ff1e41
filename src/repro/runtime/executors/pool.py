"""Spawn-pool executor: the single-host parallel backend.

The spawn pool behind the
:class:`~repro.runtime.executors.base.Executor` protocol, built on
``concurrent.futures.ProcessPoolExecutor`` (spawn context).  The shared
context ``(worker_fn, payload)`` travels through the pool initializer
exactly once per worker process; each task is submitted as a future whose
done-callback feeds a thread-safe queue, so ``as_completed`` yields in true
completion order without polling — and a worker process dying abruptly
surfaces as a loud ``BrokenProcessPool``-backed error instead of a hang.

With ``jobs=1`` (or a single task) the pool is skipped entirely and tasks run
inline — byte-for-byte the serial path, preserving the historical contract
that results are independent of the ``jobs`` knob.

Installing a *new* context keeps the spawned workers alive: every submitted
job carries the executor's context **generation**, and a worker that sees a
newer generation than the one it holds installs the context shipped with
the job and clears its per-process caches — an in-band ``reset_context``.
Re-spawning the pool (the historical behaviour) paid a full interpreter +
import start-up per worker per batch; warm reuse makes multi-study sessions
pay it once.  Worker PIDs surviving a context swap is pinned by a test.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Iterator, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.runtime.executors.base import (
    Executor,
    TaskError,
    Ticket,
    clear_worker_tables,
)

__all__ = ["PoolExecutor"]


# The worker context lives in a module-level slot populated once per worker
# process by the pool initializer (spawned workers inherit nothing, so the
# shared inputs travel through initargs exactly once instead of once per
# task), together with the context generation the slot currently holds.
_WORKER_CONTEXT: Optional[tuple] = None
_WORKER_GENERATION: int = -1


def _init_pool_worker(context: tuple, generation: int) -> None:
    global _WORKER_CONTEXT, _WORKER_GENERATION
    _WORKER_CONTEXT = context
    _WORKER_GENERATION = generation


def _reset_pool_context(context: tuple, generation: int) -> None:
    """Worker-side ``reset_context``: install the new shared inputs and drop
    per-process caches, without the process ever exiting."""
    global _WORKER_CONTEXT, _WORKER_GENERATION
    _WORKER_CONTEXT = context
    _WORKER_GENERATION = generation
    clear_worker_tables()


def _pool_entry(
    job: Tuple[Ticket, Any, int, Optional[tuple]]
) -> Tuple[Ticket, Any]:
    ticket, task, generation, context = job
    if generation != _WORKER_GENERATION:
        # This worker was spawned (or last reset) under an older context; the
        # job ships the current one precisely for this case.
        _reset_pool_context(context, generation)
    worker_fn, payload = _WORKER_CONTEXT
    try:
        return ticket, worker_fn(payload, task)
    except Exception as exc:  # ship the failure, don't kill the pool
        return ticket, TaskError.capture(ticket, task, exc)


def _inline_entry(worker_fn, payload, ticket: Ticket, task: Any):
    try:
        return ticket, worker_fn(payload, task)
    except Exception as exc:
        return ticket, TaskError.capture(ticket, task, exc)


class PoolExecutor(Executor):
    """Execute tasks across a ``spawn`` process pool on this host."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        """
        Parameters
        ----------
        jobs:
            Worker processes.  ``None`` uses all-but-one CPU; ``1`` runs
            inline with no pool at all.
        """
        super().__init__()
        if jobs is not None and jobs < 1:
            raise SimulationError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_flight: Set[Ticket] = set()
        self._results: "queue.Queue[Tuple[Ticket, Future]]" = queue.Queue()
        #: Bumped on every context install; jobs are tagged with it so live
        #: workers can detect (and absorb) a context swap in-band.
        self._generation = 0
        #: The generation the current pool's initializer delivered.
        self._pool_generation = 0

    # -- context -----------------------------------------------------------------

    def _context_changed(self) -> None:
        # Warm reuse: keep the spawned processes and let the next dispatched
        # job carry the new context (a worker-side reset_context).  The pool
        # is only created lazily, so with no pool there is nothing to do —
        # _ensure_pool ships the fresh context through its initializer.
        self._generation += 1

    def _resolved_jobs(self) -> int:
        if self.jobs is None:
            return max(mp.cpu_count() - 1, 1)
        return self.jobs

    def parallelism(self) -> int:
        return self._resolved_jobs()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Never spawn more workers than there is queued work: the pool
            # is created at first dispatch, when the batch is fully queued.
            processes = min(
                self._resolved_jobs(), max(len(self._queue) + len(self._in_flight), 1)
            )
            self._pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=mp.get_context("spawn"),
                initializer=_init_pool_worker,
                initargs=((self._worker_fn, self._payload), self._generation),
            )
            self._pool_generation = self._generation
        return self._pool

    def _stop_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- execution ---------------------------------------------------------------

    def outstanding(self) -> int:
        return len(self._queue) + len(self._in_flight)

    def _dispatch(self) -> None:
        pool = self._ensure_pool()
        # Ship the context with each job only after a swap left the pool's
        # initializer stale; in steady state the tag alone travels.
        context = (
            (self._worker_fn, self._payload)
            if self._generation != self._pool_generation
            else None
        )
        while self._queue:
            ticket, task = self._queue.popleft()
            self._in_flight.add(ticket)
            future = pool.submit(
                _pool_entry, (ticket, task, self._generation, context)
            )
            future.add_done_callback(
                lambda f, t=ticket: self._results.put((t, f))
            )

    def _run_inline(self) -> Iterator[Tuple[Ticket, Any]]:
        while self._queue:
            ticket, task = self._queue.popleft()
            yield _inline_entry(self._worker_fn, self._payload, ticket, task)

    def as_completed(
        self, *, raise_errors: bool = True
    ) -> Iterator[Tuple[Ticket, Any]]:
        if self._resolved_jobs() == 1 or (
            self._pool is None and len(self._queue) + len(self._in_flight) <= 1
        ):
            while self._queue:
                for ticket, payload in self._run_inline():
                    if isinstance(payload, TaskError) and raise_errors:
                        payload.raise_()
                    yield ticket, payload
            return
        self._dispatch()
        while self._in_flight or self._queue:
            # Tasks submitted mid-iteration (the study layer resubmitting a
            # failed run) are dispatched here, not only on entry.
            if self._queue:
                self._dispatch()
            ticket, future = self._results.get()
            self._in_flight.discard(ticket)
            try:
                # _pool_entry never raises, so an exception here means the
                # transport failed: a worker process died (BrokenProcessPool)
                # or the result could not be pickled.  Fail loudly.
                _ticket, payload = future.result()
            except Exception as exc:
                raise SimulationError(
                    f"pool worker failed while executing ticket {ticket}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if isinstance(payload, TaskError) and raise_errors:
                payload.raise_()
            yield ticket, payload

    def close(self) -> None:
        self._stop_pool()
        self._in_flight.clear()
        self._queue.clear()
        super().close()
