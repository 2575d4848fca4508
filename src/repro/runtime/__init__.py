"""Parallel scenario execution and content-addressed result caching.

This package is the scheduling seam of the reproduction: independent
simulation / characterization units become :class:`~repro.runtime.jobs.Job`
objects with stable content hashes, an executor (serial, thread pool or
process pool) runs any number of them with deterministic result ordering and
per-job error capture, and a :class:`~repro.runtime.store.PackedStore` makes
sure no characterized cell is ever computed twice — across experiments,
processes or sessions.

Quick tour::

    from repro.runtime import Job, PackedStore, ProcessExecutor, run_jobs

    jobs = [Job(fn=simulate_bench, args=(bench,), key=content_hash(...))
            for bench in benches]
    results = run_jobs(jobs, executor=ProcessExecutor(max_workers=8),
                       cache=PackedStore("~/.repro-cache"))
    values = [r.value for r in results]    # in job order

``python -m repro.runtime.cli --figures fig5 fig9 --workers 4 --cache DIR``
runs whole paper-figure sets through the same machinery, and
``python -m repro.runtime.server start`` turns the stack into a long-lived
multi-session timing/ECO daemon (client API in :mod:`repro.runtime.client`).
"""

from .cache import CacheStats, decode_payload, encode_payload
from .store import PackedStore
from .executor import (
    Executor,
    JobError,
    JobResult,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_executor,
    run_jobs,
)
from .jobs import CODE_VERSION, Job, cell_fingerprint, content_hash

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "Executor",
    "Job",
    "JobError",
    "JobResult",
    "PackedStore",
    "ProcessExecutor",
    "SerialExecutor",
    "decode_payload",
    "encode_payload",
    "ThreadExecutor",
    "cell_fingerprint",
    "content_hash",
    "default_executor",
    "run_jobs",
]
