"""The service core behind the HTTP gateway.

The batch harness answers "reproduce figure N"; this package answers
"serve simulation requests continuously": a prioritized bounded job
queue with in-flight coalescing (:mod:`~repro.service.queue`), per-job
progress with streaming snapshots (:mod:`~repro.service.progress`),
and the :class:`~repro.service.core.ServiceCore` that ties them to the
:class:`~repro.harness.executor.Executor`, the run cache and the
worker fabric. The gateway (:mod:`repro.gateway`, ``esp-nuca gateway
serve``) is its front door; see docs/gateway.md.
"""

from repro.service.core import ServiceCore
from repro.service.protocol import ProtocolError, parse_address
from repro.service.queue import QueueFullError, Scheduler

__all__ = [
    "ServiceCore",
    "Scheduler",
    "ProtocolError",
    "QueueFullError",
    "parse_address",
]
