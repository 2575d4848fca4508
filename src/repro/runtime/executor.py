"""Executor layer: run job sets serially, on threads, or on processes.

One entry point — :func:`run_jobs` — drives any :class:`Executor`.  The
contract, identical for every backend:

* results come back in **job order**, never completion order;
* each job's outcome is captured in a :class:`JobResult` (value, error text,
  wall-clock duration, cache provenance) so one failing scenario doesn't tear
  down a thousand-job sweep unless the caller asks it to (``reraise=True``,
  the default, re-raises the first failure *after* all jobs finished);
* jobs with a content key consult the :class:`~repro.runtime.store.PackedStore`
  first and store their result on completion, so a characterized cell is never
  recomputed — not in this process, not in any future one.

``ThreadExecutor`` suits jobs dominated by BLAS/LAPACK calls (which release
the GIL); ``ProcessExecutor`` isolates pure-Python integration loops at the
price of pickling job inputs and results.
"""

from __future__ import annotations

import logging
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from .jobs import Job

__all__ = [
    "JobError",
    "JobResult",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "default_executor",
    "run_jobs",
]

logger = logging.getLogger("repro.runtime")


class JobError(RuntimeError):
    """A job failed inside an executor; carries the remote traceback text."""

    def __init__(self, job_name: str, error_text: str):
        super().__init__(f"job {job_name!r} failed:\n{error_text}")
        self.job_name = job_name
        self.error_text = error_text


@dataclass
class JobResult:
    """Outcome of one job.

    Attributes
    ----------
    job:
        The job that produced this result.
    value:
        Return value (``None`` when the job failed).
    error:
        Formatted traceback text when the job raised, else ``None``.
    duration:
        Wall-clock seconds spent executing (0.0 for cache hits).
    cache_hit:
        True when the value came from the disk cache instead of executing.
    """

    job: Job
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute(job: Job) -> JobResult:
    """Run one job, capturing errors and timing.  Runs inside workers."""
    start = time.perf_counter()
    try:
        value = job.run()
    except Exception:
        return JobResult(
            job=job,
            error=traceback.format_exc(),
            duration=time.perf_counter() - start,
        )
    return JobResult(job=job, value=value, duration=time.perf_counter() - start)


class Executor:
    """Interface: map a job sequence to results, preserving order."""

    def map_jobs(self, jobs: Sequence[Job]) -> List[JobResult]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class SerialExecutor(Executor):
    """Run jobs one after another in the calling process (the default)."""

    def map_jobs(self, jobs: Sequence[Job]) -> List[JobResult]:
        return [_execute(job) for job in jobs]


class _PoolExecutor(Executor):
    """Shared submit/gather logic for the concurrent.futures backends.

    The underlying pool is created lazily on first use and reused across
    ``map_jobs`` calls, so workers (and, for processes, their imported
    modules) are paid for once per executor, not once per job set.  Call
    :meth:`shutdown` to release the workers early; otherwise
    ``concurrent.futures`` reaps them at interpreter exit.
    """

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    def map_jobs(self, jobs: Sequence[Job]) -> List[JobResult]:
        if not jobs:
            return []
        if self._pool is None:
            self._pool = self._make_pool()
        futures = [self._pool.submit(_execute, job) for job in jobs]
        try:
            # Gather in submission order: deterministic result ordering.
            return [future.result() for future in futures]
        except BrokenExecutor:
            # A hard worker crash poisons the pool; drop it so the next
            # map_jobs call starts from a healthy one.
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Release the worker pool (a later map_jobs recreates it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def describe(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Thread pool; best when the work releases the GIL (BLAS/LAPACK)."""

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessExecutor(_PoolExecutor):
    """Process pool; jobs and results must be picklable."""

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.max_workers)


def default_executor(workers: int, kind: str = "process") -> Executor:
    """Pick an executor for ``workers`` parallel slots.

    ``workers <= 1`` always yields the serial executor; otherwise ``kind``
    selects ``"process"`` (default) or ``"thread"``.
    """
    if workers <= 1:
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(max_workers=workers)
    if kind == "process":
        return ProcessExecutor(max_workers=workers)
    raise ValueError(f"unknown executor kind {kind!r} (use 'process' or 'thread')")


def run_jobs(
    jobs: Sequence[Job],
    executor: Optional[Executor] = None,
    cache: Optional[Any] = None,
    reraise: bool = True,
) -> List[JobResult]:
    """Run a job set through an executor, short-circuiting via the cache.

    Parameters
    ----------
    jobs:
        Jobs to run.  Results are returned in the same order.
    executor:
        Backend to execute cache misses on; defaults to
        :class:`SerialExecutor`.
    cache:
        A :class:`~repro.runtime.store.PackedStore`.  Jobs whose ``key`` is
        set are looked up first (a hit skips execution entirely) and stored
        after successful execution.
    reraise:
        When true (default) the first failed job raises :class:`JobError`
        after all jobs have finished; when false, failures are only recorded
        on the returned :class:`JobResult` objects.
    """
    executor = executor or SerialExecutor()
    results: List[Optional[JobResult]] = [None] * len(jobs)

    pending: List[int] = []
    for index, item in enumerate(jobs):
        if cache is not None and item.key is not None:
            hit, value = cache.lookup(item.key)
            if hit:
                logger.info("cache hit %s (%s)", item.name, item.key[:12])
                results[index] = JobResult(job=item, value=value, cache_hit=True)
                continue
            logger.info("cache miss %s (%s)", item.name, item.key[:12])
        pending.append(index)

    if pending:
        executed = executor.map_jobs([jobs[i] for i in pending])
        for index, result in zip(pending, executed):
            results[index] = result
            if cache is not None and result.ok and jobs[index].key is not None:
                cache.store(jobs[index].key, result.value)

    final = [r for r in results if r is not None]
    assert len(final) == len(jobs)
    if reraise:
        for result in final:
            if not result.ok:
                raise JobError(result.job.name, result.error or "")
    return final
