"""Tests for repro.utils.clock."""

import pytest

from repro.utils.clock import SimulatedClock, TemporalContext


class TestTemporalContext:
    @pytest.mark.parametrize(
        "hour,expected",
        [
            (6.0, TemporalContext.MORNING),
            (11.99, TemporalContext.MORNING),
            (12.0, TemporalContext.AFTERNOON),
            (17.5, TemporalContext.AFTERNOON),
            (18.0, TemporalContext.EVENING),
            (23.9, TemporalContext.EVENING),
            (0.0, TemporalContext.MIDNIGHT),
            (5.99, TemporalContext.MIDNIGHT),
            (24.0, TemporalContext.MIDNIGHT),  # wraps
            (30.0, TemporalContext.MORNING),  # wraps past 24
        ],
    )
    def test_from_hour(self, hour, expected):
        assert TemporalContext.from_hour(hour) is expected

    def test_ordered_matches_paper(self):
        assert TemporalContext.ordered() == (
            TemporalContext.MORNING,
            TemporalContext.AFTERNOON,
            TemporalContext.EVENING,
            TemporalContext.MIDNIGHT,
        )

    def test_index_is_position_in_order(self):
        for i, context in enumerate(TemporalContext.ordered()):
            assert context.index == i


class TestSimulatedClock:
    def test_initial_state(self):
        clock = SimulatedClock(start_hour=8.0)
        assert clock.elapsed_seconds == 0.0
        assert clock.hour_of_day == pytest.approx(8.0)
        assert clock.context is TemporalContext.MORNING

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(100.0)
        clock.advance(50.0)
        assert clock.elapsed_seconds == pytest.approx(150.0)

    def test_advance_negative_raises(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_hour_wraps_past_midnight(self):
        clock = SimulatedClock(start_hour=23.0)
        clock.advance(2 * 3600.0)
        assert clock.hour_of_day == pytest.approx(1.0)
        assert clock.context is TemporalContext.MIDNIGHT
