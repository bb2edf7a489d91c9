"""Shared exception types."""

from __future__ import annotations


class CapacityError(OverflowError):
    """A requested computation would overflow the declared 64-bit budget."""


class TableTooSmallError(ValueError):
    """A prime table does not cover the requested index range; the message
    names the coverage that would be required."""
