"""Tests for repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    require_in_range,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive("x", 1)
        require_positive("x", 0.001)

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError, match="x"):
            require_positive("x", 0)

    def test_allow_zero(self):
        require_positive("x", 0, allow_zero=True)
        with pytest.raises(ValueError):
            require_positive("x", -1, allow_zero=True)


class TestRequireInRange:
    def test_inclusive_bounds(self):
        require_in_range("x", 0.0, 0.0, 1.0)
        require_in_range("x", 1.0, 0.0, 1.0)

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            require_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="x"):
            require_in_range("x", 2.0, 0.0, 1.0)

    def test_message_names_the_interval(self):
        with pytest.raises(ValueError, match=r"x must be in \[0.0, 1.0\], got 2.0"):
            require_in_range("x", 2.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"x must be in \(0.0, 1.0\), got 1.0"):
            require_in_range("x", 1.0, 0.0, 1.0, inclusive=False)

