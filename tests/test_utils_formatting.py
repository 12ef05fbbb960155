"""Tests for repro.utils.formatting."""

from __future__ import annotations

import pytest

from repro.utils.formatting import format_cdf, format_table


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["beta", 2.0]])
        assert "name" in text
        assert "alpha" in text
        assert "1.500" in text

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["xxxxxx", 1], ["y", 2]])
        lines = text.splitlines()
        # Header, separator, and the two rows all start columns at the same offset.
        assert len(lines) == 4
        first_col_width = len("xxxxxx")
        assert lines[0].startswith("a".ljust(first_col_width))

    def test_float_format_override(self):
        text = format_table(["v"], [[3.14159]], float_format="{:.1f}")
        assert "3.1" in text
        assert "3.142" not in text

    def test_wrong_row_length_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_non_float_cells_via_str(self):
        text = format_table(["a"], [[None], [True]])
        assert "None" in text
        assert "True" in text


class TestFormatCdf:
    def test_contains_series_names(self):
        text = format_cdf({"Disco": [1.0, 1.2, 1.5], "S4": [1.0, 3.0, 5.0]})
        assert "Disco" in text
        assert "S4" in text

    def test_quantile_headers(self):
        text = format_cdf({"x": [1.0]}, quantiles=(50, 99))
        assert "p50" in text
        assert "p99" in text

    def test_empty_series_renders_dashes(self):
        text = format_cdf({"empty": []})
        assert "-" in text

    def test_values_monotone_across_columns(self):
        text = format_cdf({"x": [5.0, 1.0, 3.0, 2.0]}, quantiles=(10, 50, 90))
        row = [line for line in text.splitlines() if line.startswith("x")][0]
        numbers = [float(token) for token in row.split()[1:]]
        assert numbers == sorted(numbers)

