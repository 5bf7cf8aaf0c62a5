"""Seed derivation and percentiles shared by the benchmark modules."""

from __future__ import annotations

import random
import statistics


def sub_seed(seed: int, *parts) -> int:
    """A 32-bit seed derived from the workload seed; stable across
    processes and ``PYTHONHASHSEED`` (str seeds hash with sha512)."""
    return random.Random(":".join(map(str, (seed, *parts)))).getrandbits(32)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile as ``statistics.quantiles`` computes it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
