"""Multi-event serving layer: N concurrent deployments, one shared crowd.

CrowdLearn (ICDCS'19) is a *system* serving damage-assessment
applications, yet the repro historically ran one in-process loop per
deployment.  Real disasters overlap: imagery arrives in bursts, and a
finite crowd is contended across events.  This package turns the loop
into a service:

- :class:`~repro.serve.registry.EventRegistry` of per-event
  :class:`~repro.serve.deployment.Deployment`\\ s (each wrapping a
  :class:`~repro.core.system.CrowdLearnSystem` plus its journal and
  checkpoint),
- one global virtual-time heap interleaving the N sensing loops
  deterministically (per-event RNG streams, stable tie-break on
  ``(due_time, event_id, seq)``),
- a :class:`~repro.serve.pool.SharedCrowdPool` metering per-cycle crowd
  capacity across events through pluggable
  :mod:`~repro.serve.admission` policies, with per-event ledgers and
  explicit backpressure (deferred to later windows or shed),
- a synchronous service core (:class:`~repro.serve.service.CrowdLearnService`)
  in which a live tick and a tick reconstructed on resume settle through
  the same admission and settlement path, and a surge load generator
  (:mod:`~repro.serve.loadgen`) that also drives ``repro serve``,
- service-level resilience: per-event circuit breakers
  (:mod:`~repro.serve.breaker`), a degradation ladder
  (:mod:`~repro.serve.health`), and bulkhead isolation in the service
  core so one faulted event never takes the fleet down.
"""

from repro.serve.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    DeadlineAwarePolicy,
    FairSharePolicy,
    PriorityPolicy,
    create_admission_policy,
)
from repro.serve.breaker import BREAKER_STATES, CircuitBreaker
from repro.serve.deployment import Deployment
from repro.serve.health import HEALTH_STATES, EventHealth, tick_failed
from repro.serve.pool import AdmissionDecision, EventLedger, SharedCrowdPool
from repro.serve.registry import EventRegistry
from repro.serve.service import CrowdLearnService, EventStatus

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionRequest",
    "BREAKER_STATES",
    "CircuitBreaker",
    "CrowdLearnService",
    "DeadlineAwarePolicy",
    "Deployment",
    "EventHealth",
    "EventLedger",
    "EventRegistry",
    "EventStatus",
    "FairSharePolicy",
    "HEALTH_STATES",
    "PriorityPolicy",
    "SharedCrowdPool",
    "create_admission_policy",
    "tick_failed",
]
