"""Fingerprint-keyed, LRU-bounded sharing of :class:`PolicyEngine` s.

A production deployment answers many tenants against a handful of distinct
policies.  Engines are where the expensive state lives — memoized mechanism
instances (tree structures, strategy matrices) and warm sensitivity-cache
fingerprints — so the pool keys them by *what they depend on*
(``policy_fingerprint``, ``epsilon``, canonical options) rather than object
identity: two tenants who configure structurally equal policies share one
engine.  Per-tenant state (budget ledgers, release reuse) deliberately does
NOT live here — that is :class:`repro.api.Session`; pooled engines are
created without an accountant and charge the session ledger passed per call.

The pool also owns the cross-tenant :class:`PlanCache`: compiled plans are
deterministic functions of ``(policy fingerprint, epsilon, options,
workload digest, existing-release state)``, so they are shared the same way
engines are — heavy repeated multi-tenant traffic skips candidate scoring
entirely.  Every engine the pool builds gets a reference to this cache.

Both caches sit on :class:`~repro.api.lru.LRUMap`: one lock held only for
the map access itself, builds outside it, exact global LRU eviction, and a
double-checked insert that prefers the incumbent so racing callers
converge on one shared object per key.
"""

from __future__ import annotations

from threading import Lock

from ..core.policy import Policy
from ..engine.cache import SensitivityCache
from ..engine.engine import PolicyEngine
from ..engine.fingerprint import options_key as _options_key
from ..engine.fingerprint import policy_fingerprint
from ..engine.registry import MechanismRegistry
from .lru import LRUMap

__all__ = ["EnginePool", "PlanCache"]


class PlanCache:
    """A thread-safe LRU map from plan-identity keys to ``Plan`` s.

    Keys are built by :meth:`repro.engine.PolicyEngine.plan_with_meta` from
    everything a compiled plan depends on: policy fingerprint, epsilon,
    canonical options, the registry's rule-table fingerprint, the
    workload's structural digest, the planner mode, the caller's
    existing-release token (row-aware for linear releases) and the plan
    budget directive (with the remaining-budget component quantized — see
    :meth:`repro.plan.PlanBudget.remaining_token`).  Values are immutable
    :class:`~repro.plan.Plan` objects, so one cached plan is executed
    concurrently by any number of tenants.

    The cache is bounded two ways: ``maxsize`` caps entries and
    ``max_bytes`` caps the *accumulated payload bytes* — a cached plan
    retains its workload's packed arrays (the executor reads them; a 1k
    count-mask stack over a 50k domain is ~50 MB), so entry counts alone
    would let a handful of wide workloads pin gigabytes.  Eviction is
    LRU, and a single plan larger than ``max_bytes`` is returned uncached
    (counted in ``oversize``) rather than evicting everything else.
    """

    def __init__(self, maxsize: int = 256, max_bytes: int = 256 * 1024 * 1024):
        self._lru = LRUMap(maxsize, max_bytes=max_bytes)
        self.maxsize = maxsize
        self.max_bytes = int(max_bytes)
        self._oversize_lock = Lock()
        self.oversize = 0
        self.payload_bytes_saved = 0

    def lookup(self, key: tuple):
        """The cached plan for ``key``, or None (counted as a miss)."""
        plan = self._lru.get(key)
        if plan is None:
            self._lru.record_miss(key)
        return plan

    def store(self, key: tuple, plan):
        """Insert ``plan`` under ``key``; returns the plan actually cached.

        Plans that can shed their workload payloads
        (:meth:`repro.plan.Plan.payload_free`) are cached in the light form
        — the heavy arrays stay with the compiling caller, and cache hits
        rebind the requester's live workload (``Plan.bind``).  The byte cap
        then meters the structure actually retained, and
        :attr:`payload_bytes_saved` accumulates what lightening avoided
        pinning.

        Racing compilers for one key produce interchangeable plans (the key
        captures every input), so the first insert wins and later callers
        adopt the incumbent — mirroring :meth:`EnginePool.get`.
        """
        lighten = getattr(plan, "payload_free", None)
        if callable(lighten):
            full_bytes = int(plan.nbytes())
            plan = lighten()
            saved = full_bytes - int(plan.nbytes())
            if saved > 0:
                with self._oversize_lock:
                    self.payload_bytes_saved += saved
        sizer = getattr(plan, "nbytes", None)
        nbytes = int(sizer()) if callable(sizer) else 0
        if nbytes > self.max_bytes:
            # caching it would evict the entire working set for one tenant's
            # monster workload; hand the plan back uncached instead
            with self._oversize_lock:
                self.oversize += 1
            return plan
        # the preceding lookup() already counted this call's hit or miss
        incumbent, _ = self._lru.adopt(key, plan, nbytes=nbytes, count=False)
        return incumbent

    def stats(self) -> dict[str, int]:
        """Occupancy and traffic counters, surfaced by ``"describe"``."""
        out = self._lru.stats()
        with self._oversize_lock:
            out["oversize"] = self.oversize
            out["payload_bytes_saved"] = self.payload_bytes_saved
        return out

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: tuple) -> bool:
        return key in self._lru

    def __repr__(self) -> str:
        i = self.stats()
        return (
            f"PlanCache(size={i['size']}/{i['maxsize']}, hits={i['hits']}, "
            f"misses={i['misses']})"
        )


class EnginePool:
    """An LRU map from ``(policy fingerprint, epsilon, options)`` to engines.

    Parameters
    ----------
    maxsize:
        Engine count bound; the least recently used engine is dropped
        when a new one would exceed it.  Dropped engines lose their memoized
        mechanisms but not their sensitivities (those live in the shared
        :class:`SensitivityCache`, keyed by the same fingerprints).
    registry, cache:
        Passed through to every engine the pool constructs, so one
        deployment can swap the dispatch table or isolate its cache.
    plan_cache:
        The shared :class:`PlanCache` handed to every constructed engine;
        defaults to a fresh one.  Pass your own to share plans across pools
        or to size it differently.
    """

    def __init__(
        self,
        maxsize: int = 64,
        *,
        registry: MechanismRegistry | None = None,
        cache: SensitivityCache | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self._engines = LRUMap(maxsize)
        self.maxsize = maxsize
        self._registry = registry
        self._cache = cache
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()

    def key(self, policy: Policy, epsilon: float, options: dict | None = None) -> tuple:
        """The pool key an engine for these parameters lives under."""
        return (policy_fingerprint(policy), float(epsilon), _options_key(options))

    def get(
        self, policy: Policy, epsilon: float, *, options: dict | None = None
    ) -> PolicyEngine:
        """A shared engine for ``(policy, epsilon, options)``, building on miss.

        The returned engine has no accountant of its own — callers pass
        their session's ledger to ``answer``/``release`` per call.
        """
        return self.get_with_meta(policy, epsilon, options=options)[0]

    def get_with_meta(
        self, policy: Policy, epsilon: float, *, options: dict | None = None
    ) -> tuple[PolicyEngine, str]:
        """:meth:`get`, plus ``"hit"``/``"miss"`` for *this call*.

        The flag is decided inside the map's critical section that
        served the call — never inferred from before/after deltas of the
        traffic counters, which a concurrent tenant's requests would
        corrupt.  Engine construction happens outside any lock; a racing
        builder may insert first, in which case this call adopts the
        incumbent and reports a hit.
        """
        key = self.key(policy, epsilon, options)
        engine = self._engines.get(key)
        if engine is not None:
            return engine, "hit"
        engine = PolicyEngine(
            policy,
            epsilon,
            registry=self._registry,
            cache=self._cache,
            options=options,
            plan_cache=self.plan_cache,
        )
        return self._engines.adopt(key, engine)

    def stats(self) -> dict[str, int]:
        """Occupancy and traffic counters (hits, misses, evictions).

        Exposed verbatim by ``BlowfishService`` ``"describe"`` responses so
        operators can watch engine churn without instrumenting the pool.
        """
        return self._engines.stats()

    def clear(self) -> None:
        self._engines.clear()

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, key: tuple) -> bool:
        return key in self._engines

    def __repr__(self) -> str:
        i = self.stats()
        return (
            f"EnginePool(size={i['size']}/{i['maxsize']}, hits={i['hits']}, "
            f"misses={i['misses']})"
        )
