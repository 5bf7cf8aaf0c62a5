"""Fused-execution counters, kept for the repository benchmark.

Every kernel call grades one design; nothing fuses designs into one
program.  ``perfbench/`` still imports :func:`batch_stats` and reads
``batch.fused_calls`` from the server's ``/metrics``, so the counter
stays, pinned at zero.
"""


def batch_stats() -> dict[str, int]:
    """Fused-execution counters (always zero)."""
    return {"fused_calls": 0}
