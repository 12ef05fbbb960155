"""Uniform argument validation helpers.

Public API entry points in the library validate their inputs eagerly and
raise descriptive exceptions; these helpers keep the error messages uniform
and the call sites short.
"""

from __future__ import annotations

__all__ = ["require_positive", "require_in_range"]


def require_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if allowed)."""
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (or strict)."""
    if inclusive:
        if not low <= value <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not low < value < high:
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")

