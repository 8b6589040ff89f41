"""Production HTTP gateway: durable, authenticated simulation serving.

The one front door for serving simulations (the batch CLI runs them
directly): a REST API (``esp-nuca gateway serve``) over the
:class:`~repro.service.core.ServiceCore`, backed by a SQLite job store
with versioned migrations so jobs, results-by-content-hash and tenant
identities survive restarts — a SIGKILL'd gateway recovers its backlog
on the next boot and answers byte-identically. Multi-tenancy is
first-class: hashed API keys, per-tenant quotas, token-bucket rate
limiting, per-tenant stats scopes. For local use,
``--allow-anonymous`` serves keyless requests as the ``anon`` tenant.
See docs/gateway.md.
"""

from repro.gateway.app import (Gateway, GatewayConfig, GatewayThread,
                               TenantState)
from repro.gateway.auth import TokenBucket, generate_key, hash_key
from repro.gateway.client import (GatewayClient, GatewayError,
                                  payloads_to_results)
from repro.gateway.http import HttpError
from repro.gateway.store import JobStore, StoreError

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayThread",
    "GatewayClient",
    "GatewayError",
    "HttpError",
    "JobStore",
    "StoreError",
    "TenantState",
    "TokenBucket",
    "generate_key",
    "hash_key",
    "payloads_to_results",
]
