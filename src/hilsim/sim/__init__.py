"""Deterministic peripheral simulation on a nanosecond virtual clock."""
