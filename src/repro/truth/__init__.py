"""Crowd label aggregators behind one interface (Table I)."""

from repro.truth.base import Aggregator, EMAggregator
from repro.truth.dawid_skene import DawidSkene
from repro.truth.filtering import QualityFilter
from repro.truth.tdem import TruthDiscoveryEM
from repro.truth.voting import MajorityVote

__all__ = [
    "Aggregator",
    "EMAggregator",
    "DawidSkene",
    "QualityFilter",
    "TruthDiscoveryEM",
    "MajorityVote",
]
