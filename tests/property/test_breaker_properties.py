"""Property tests: the serving circuit breaker only takes legal edges.

The breaker's module docstring promises exactly four transitions
(``LEGAL_TRANSITIONS``); these tests drive arbitrary interleavings of
tick outcomes, bulkhead trips and probe attempts through the machine and
assert that promise, plus the invariants resume correctness leans on
(bounded sliding window, exact snapshot/restore, monotone counters).
The thresholds are module constants, so every breaker runs the same ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.serve.breaker import (
    BREAKER_STATES,
    LEGAL_TRANSITIONS,
    MAX_PROBE_ROUNDS,
    WINDOW,
    CircuitBreaker,
)

#: One driver step: a completed tick (with its failure bit), a bulkhead
#: trip, or a probe attempt.  The driver advances the sensing window by
#: one per step, like the service's virtual-time heap does.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.booleans()),
        st.tuples(st.just("trip"), st.just(False)),
        st.tuples(st.just("probe"), st.just(False)),
    ),
    max_size=60,
)

def drive(breaker, ops):
    """Apply ops the way the service does; return every observed state.

    A tick against an open breaker first attempts the probe (the service
    only ever reaches ``record`` through ``try_half_open``); if no probe
    is due the tick is skipped, exactly like a parked event's window.
    """
    states = [breaker.state]
    for window, (kind, failure) in enumerate(ops):
        if kind == "trip":
            breaker.force_open(window)
            states.append(breaker.state)
        elif kind == "probe":
            breaker.try_half_open(window)
            states.append(breaker.state)
        else:
            if breaker.state == "open":
                if not breaker.try_half_open(window):
                    continue
                states.append(breaker.state)
            breaker.record(failure, window)
            states.append(breaker.state)
    return states


class TestTransitions:
    @settings(max_examples=200)
    @given(_OPS)
    def test_only_legal_edges_are_taken(self, ops):
        breaker = CircuitBreaker()
        states = drive(breaker, ops)
        assert all(state in BREAKER_STATES for state in states)
        for before, after in zip(states, states[1:]):
            if before != after:
                assert (before, after) in LEGAL_TRANSITIONS

    @settings(max_examples=200)
    @given(_OPS)
    def test_invariants_hold_under_any_sequence(self, ops):
        breaker = CircuitBreaker()
        drive(breaker, ops)
        assert len(breaker.outcomes) <= WINDOW
        assert 0.0 <= breaker.failure_rate() <= 1.0
        assert breaker.probe_rounds <= MAX_PROBE_ROUNDS
        if breaker.state == "open":
            assert breaker.opened_at is not None
        # Each half-open follows its own open, each close its own probe.
        assert breaker.half_open_total <= breaker.opened_total
        assert breaker.closed_total <= breaker.half_open_total

    @settings(max_examples=100)
    @given(st.integers(0, 20))
    def test_open_breaker_admits_no_ticks(self, window):
        breaker = CircuitBreaker()
        breaker.force_open(window)
        with pytest.raises(RuntimeError, match="open breaker"):
            breaker.record(False, window + 1)


class TestSnapshotRestore:
    @settings(max_examples=150)
    @given(_OPS, _OPS)
    def test_restore_is_exact_and_behaviour_preserving(self, prefix, suffix):
        """A restored breaker is bit-identical and diverges never."""
        original = CircuitBreaker()
        drive(original, prefix)
        snapshot = original.snapshot()
        restored = CircuitBreaker.restore(snapshot)
        assert restored.snapshot() == snapshot
        # Feed both the same future; they must stay in lockstep.
        assert drive(original, suffix) == drive(restored, suffix)
        assert original.snapshot() == restored.snapshot()

    def test_restore_rejects_unknown_state(self):
        snapshot = CircuitBreaker().snapshot()
        snapshot["state"] = "molten"
        with pytest.raises(ValueError, match="unknown breaker state"):
            CircuitBreaker.restore(snapshot)

    def test_restore_rejects_other_thresholds(self):
        snapshot = CircuitBreaker().snapshot()
        snapshot["policy"]["window"] = WINDOW + 1
        with pytest.raises(ValueError, match="breaker policy"):
            CircuitBreaker.restore(snapshot)
