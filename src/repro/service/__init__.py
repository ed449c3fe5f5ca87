"""Solve-as-a-service: an asyncio HTTP/JSON job server over the solvers.

The service turns the repository's solving stack into network
throughput: jobs submitted as OPB text over HTTP are queued, solved
concurrently in a shard of worker *processes* (no shared GIL), streamed
back as Server-Sent Events synthesized from the solver's
``on_progress``/``on_incumbent`` hooks, and — for equivalent
resubmissions — answered straight from a canonicalized-instance result
cache (:mod:`repro.pb.canonical`).

Layers, bottom-up:

* :mod:`repro.service.protocol` — wire format: job states, SSE event
  names, error codes, request validation;
* :mod:`repro.service.jobs` — the :class:`Job` state machine and the
  bounded admission queue;
* :mod:`repro.service.workers` — per-job solver processes with
  cooperative cancellation (``should_stop``) and progress pumping;
* :mod:`repro.service.cache` — the canonical-form LRU result cache;
* :mod:`repro.service.metrics` — service metric families on a
  :class:`repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.service.server` — the :class:`SolveService` orchestrator
  and the stdlib-``asyncio`` HTTP front end (``python -m repro serve``);
* :mod:`repro.service.client` — a minimal blocking client used by the
  tests, the examples and the ``service-mix`` bench workload.

Protocol reference: ``docs/SERVICE.md``.
"""

from .cache import ResultCache, options_signature
from .client import ServiceClient, ServiceError
from .jobs import Job, JobQueue, QueueFullError
from .protocol import (
    ERROR_CODES,
    JOB_STATES,
    ProtocolError,
    SSE_EVENT_TYPES,
    SubmitRequest,
    TERMINAL_STATES,
)
from .server import BackgroundServer, ServiceConfig, SolveService, serve_main

__all__ = [
    "BackgroundServer",
    "ERROR_CODES",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "ProtocolError",
    "QueueFullError",
    "ResultCache",
    "SSE_EVENT_TYPES",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SolveService",
    "SubmitRequest",
    "TERMINAL_STATES",
    "options_signature",
    "serve_main",
]
