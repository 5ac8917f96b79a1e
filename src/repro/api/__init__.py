"""Declarative spec API and multi-tenant serving façade.

The paper's central object is the policy ``P = (T, G, I_Q)`` a data curator
*configures* per deployment; this package makes that configuration — and the
queries answered under it — first-class *data*:

* **specs** (:mod:`repro.api.specs`) — every domain, graph family, policy,
  constraint set and query serializes to a plain, versioned, JSON-ready
  dict via ``to_spec()`` and loads back via ``from_spec()``, with
  validation errors that name the offending field;
* **engine pool** (:mod:`repro.api.pool`) — :class:`EnginePool` shares
  :class:`~repro.engine.PolicyEngine` s across tenants under stable policy
  fingerprints, LRU-bounded, plus the cross-tenant :class:`PlanCache` of
  compiled workload plans;
* **sessions** (:mod:`repro.api.session`) — :class:`Session` owns one
  client's budget ledger and released synopses, so repeated queries are
  free post-processing;
* **service** (:mod:`repro.api.service`) — :class:`BlowfishService` is the
  pure-JSON boundary: ``handle(request_dict) -> response_dict``;
* **serving tier** — :mod:`repro.api.lru` (the one-lock, exact-LRU map
  behind every service-level cache), :mod:`repro.api.ledger` (pluggable
  budget-ledger stores: in-memory default, SQLite for cross-process
  truth), :mod:`repro.api.async_service` (asyncio façade with in-flight
  coalescing) and :mod:`repro.api.workers`
  (session-sharded multi-process runner).

End to end::

    from repro import Database, Domain, Policy
    from repro.api import BlowfishService

    domain = Domain.integers("salary", 100)
    service = BlowfishService()
    service.register_dataset("payroll", Database.from_indices(domain, data))

    request = {
        "policy": Policy.line(domain).to_spec(),   # JSON-ready
        "epsilon": 0.5,
        "dataset": {"name": "payroll"},
        "queries": [{"kind": "range", "lo": 40, "hi": 60}],
        "session": "analyst-1",
        "seed": 0,
    }
    response = service.handle(request)
    response["answers"], response["meta"]["epsilon_spent"]

``BlowfishService.handle`` is thread-safe: session ledgers are created
exactly once per key, spends on one session serialize on its lock, and the
engine/plan caches synchronize internally — see the README's "Thread
safety" section for the full guarantees.
"""

from .async_service import AsyncBlowfishService, ServiceDraining, serve_many
from .ledger import (
    InMemoryLedgerStore,
    LedgerStore,
    LedgerStoreError,
    SQLiteLedgerStore,
    parallel_aware_totals,
)
from .lru import LRUMap
from .pool import EnginePool, PlanCache
from .service import BlowfishService
from .session import Session
from .specs import SPEC_VERSION, SpecError, from_spec, spec_digest, to_spec
from .workers import ShardedRunResult, ShardedServiceRunner

__all__ = [
    "AsyncBlowfishService",
    "BlowfishService",
    "EnginePool",
    "InMemoryLedgerStore",
    "LedgerStore",
    "LedgerStoreError",
    "LRUMap",
    "PlanCache",
    "SQLiteLedgerStore",
    "ServiceDraining",
    "Session",
    "ShardedRunResult",
    "ShardedServiceRunner",
    "SpecError",
    "SPEC_VERSION",
    "parallel_aware_totals",
    "serve_many",
    "to_spec",
    "from_spec",
    "spec_digest",
]
