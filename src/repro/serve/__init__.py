"""Serving layer: budgeted, parallel, cached reasoning over trained Gamoras.

``ReasoningService`` runs a batch as forward steps under one memory
budget, ``max_window_bytes`` (planned by :func:`repro.learn.data.plan_batch`
from the analytic memory model, the same budget training uses): whole
circuits are packed into block-diagonal one-window steps, and a circuit
too large for the budget on its own streams level window by level window
— bit-identical labels, peak activation memory bounded by the budget.
Every step runs on the one ``FastInference.predict_streamed`` path.  The
service deduplicates structurally identical requests, caches encodings
and results in structural-hash keyed LRUs, and fans per-circuit
post-processing out to worker processes (``postprocess_workers``, via
:class:`repro.serve.workers.PostprocessPool`) overlapped with the next
step's forward pass.  See :mod:`repro.serve.service` for the pipeline and
caching semantics.

On top of the batch service sits the always-on daemon
(:mod:`repro.serve.daemon`): ``GamoraDaemon`` keeps the caches warm
across requests (and across restarts, via the persistent spill),
``MicroBatchScheduler`` (:mod:`repro.serve.scheduler`) coalesces
concurrent requests into shared ``reason_many`` micro-batches, and
``DaemonServer``/``SocketDaemonClient`` speak line-delimited JSON over a
Unix domain socket (``python -m repro serve``).

Resilience (:mod:`repro.serve.resilience`) makes the stack's failure
behavior first-class: requests carry deadlines that the scheduler honors
at dequeue, clients retry retriable errors under a jittered
``RetryPolicy``, a deterministic ``FaultPlan`` injects crashes / slow
stages / socket drops / cache corruption / OOMs at named fault points for
chaos testing, and degradation paths (streamed OOM fallback, cache
quarantine, scheduler watchdog) keep the daemon answering when parts of
it misbehave.
"""

from repro.serve.cache import StructuralHashCache, exact_fingerprint
from repro.serve.daemon import (
    DaemonClient,
    DaemonServer,
    GamoraDaemon,
    SocketDaemonClient,
)
from repro.serve.resilience import (
    DeadlineExceededError,
    FaultPlan,
    InjectedFaultError,
    RetryPolicy,
    SchedulerWedgedError,
    Watchdog,
)
from repro.serve.scheduler import (
    MicroBatchScheduler,
    QueueFullError,
    RequestStats,
    RequestTicket,
    SchedulerClosedError,
)
from repro.serve.service import BatchReasoningOutcome, BatchStats, ReasoningService
from repro.serve.workers import PostprocessPool, fork_available, resolve_workers

__all__ = [
    "StructuralHashCache",
    "exact_fingerprint",
    "BatchReasoningOutcome",
    "BatchStats",
    "ReasoningService",
    "PostprocessPool",
    "fork_available",
    "resolve_workers",
    "MicroBatchScheduler",
    "QueueFullError",
    "RequestStats",
    "RequestTicket",
    "SchedulerClosedError",
    "GamoraDaemon",
    "DaemonClient",
    "DaemonServer",
    "SocketDaemonClient",
    "DeadlineExceededError",
    "FaultPlan",
    "InjectedFaultError",
    "RetryPolicy",
    "SchedulerWedgedError",
    "Watchdog",
]
