"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestScalarChecks:
    def test_probability_accepts_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        assert check_probability(0.5) == 0.5

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_probability_rejects(self, bad):
        with pytest.raises(ValueError, match="must be in"):
            check_probability(bad, name="p")

    def test_positive(self):
        assert check_positive(0.1) == 0.1
        with pytest.raises(ValueError):
            check_positive(0.0)
        with pytest.raises(ValueError):
            check_positive(-1.0)

    def test_non_negative(self):
        assert check_non_negative(0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9)

    def test_integer(self):
        assert check_integer(0) == 0
        assert check_integer(np.int64(7), minimum=7) == 7
        assert type(check_integer(np.int32(2))) is int
        for bad in (-1, 2.0, float("nan"), "3", None, False):
            with pytest.raises(ValueError, match="n must be an integer >= 0"):
                check_integer(bad, name="n")

    def test_in_range(self):
        assert check_in_range(5, 0, 10) == 5.0
        with pytest.raises(ValueError):
            check_in_range(11, 0, 10)

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="epsilon"):
            check_probability(2.0, name="epsilon")
