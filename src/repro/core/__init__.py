"""CrowdLearn core: QSS, IPD, CQC, MIC and the closed-loop system."""

from repro.core.cache import BoundedCache, CacheStats, MemoCounters
from repro.core.committee import Committee
from repro.core.config import CrowdLearnConfig
from repro.core.cqc import CrowdQualityControl
from repro.core.guards import (
    DivergenceSentinel,
    GuardCounters,
    GuardPolicy,
    ModelGuard,
    SnapshotRing,
)
from repro.core.ipd import IncentivePolicyDesigner
from repro.core.mic import MachineIntelligenceCalibrator
from repro.core.qss import AdaptiveQuerySetSelector, QuerySetSelector
from repro.core.resilience import ResilienceCounters, ResiliencePolicy
from repro.core.system import CrowdLearnSystem, CycleOutcome, RunOutcome

__all__ = [
    "BoundedCache",
    "CacheStats",
    "MemoCounters",
    "Committee",
    "CrowdLearnConfig",
    "CrowdQualityControl",
    "DivergenceSentinel",
    "GuardCounters",
    "GuardPolicy",
    "ModelGuard",
    "SnapshotRing",
    "IncentivePolicyDesigner",
    "MachineIntelligenceCalibrator",
    "AdaptiveQuerySetSelector",
    "QuerySetSelector",
    "ResilienceCounters",
    "ResiliencePolicy",
    "CrowdLearnSystem",
    "CycleOutcome",
    "RunOutcome",
]
