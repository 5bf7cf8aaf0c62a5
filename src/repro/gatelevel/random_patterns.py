"""Pseudorandom-pattern (BIST) fault coverage.

Applies LFSR-generated patterns to the primary inputs (and scan
flip-flops, modelling TPGR-configured registers) and fault-simulates,
producing the coverage curves the BIST experiments report.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.bist.registers import LFSR
from repro.gatelevel.faults import Fault, all_faults, coverage
from repro.gatelevel.fault_sim import fault_simulate
from repro.gatelevel.gates import Netlist
from repro.gatelevel.structure import collapse_map, record_collapse_metrics


def _packed_random(rng: random.Random, width: int) -> int:
    return rng.getrandbits(width)


def random_pattern_coverage(
    netlist: Netlist,
    n_patterns: int = 256,
    seed: int = 1,
    faults: Sequence[Fault] | None = None,
    sequence_length: int = 1,
    backend: str | None = None,
    collapse: bool | None = None,
) -> float:
    """Stuck-at coverage of ``n_patterns`` pseudorandom patterns.

    Patterns are packed 64 wide; with ``sequence_length > 1`` each
    packed pattern set runs for that many cycles (responses can
    propagate through unscanned state).  A fault detected by cycle *c*
    of a block never simulates cycles past *c*; ``backend`` selects the
    compiled kernel (default) or the reference interpreter.  With
    ``collapse`` (default on) equivalence classes are collapsed once
    up front and only representatives simulated -- a detected
    representative means every class member is detected, so the
    coverage fraction is unchanged.
    """
    rng = random.Random(seed)
    if faults is None:
        faults = all_faults(netlist)
    work = list(faults)
    cmap = None
    if collapse is None or collapse:
        cmap = collapse_map(netlist)
        reps = cmap.representatives(work)
        if len(reps) < len(work):
            record_collapse_metrics(len(work), len(reps))
            work = reps
        else:
            cmap = None
    pis = netlist.inputs()
    detected: set[Fault] = set()
    remaining = work
    done = 0
    while done < n_patterns and remaining:
        width = min(64, n_patterns - done)
        seq = [
            {pi: _packed_random(rng, width) for pi in pis}
            for _ in range(sequence_length)
        ]
        results = fault_simulate(
            netlist, remaining, seq, width=width, backend=backend,
            collapse=False,
        )
        detected.update(f for f, d in results.items() if d)
        # results preserves fault order, so the survivors fall straight
        # out of it -- no O(n^2) re-listing against a membership list.
        remaining = [f for f, d in results.items() if not d]
        done += width
    if cmap is not None:
        n_detected = sum(1 for f in faults if cmap.rep(f) in detected)
    else:
        n_detected = len(detected)
    return coverage(n_detected, len(faults))


def bist_coverage_curve(
    netlist: Netlist,
    checkpoints: Sequence[int] = (16, 32, 64, 128, 256),
    seed: int = 1,
    faults: Sequence[Fault] | None = None,
    collapse: bool | None = None,
) -> list[tuple[int, float]]:
    """(patterns, coverage) at each checkpoint, LFSR-driven.

    One LFSR per primary input (distinct seeds), applying a single
    *continuous* pattern sequence -- as an in-situ TPGR configuration
    would -- so fault effects propagate through unscanned state across
    cycles.  Coverage at checkpoint n counts faults first detected
    within the first n patterns.
    """
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    if faults is None:
        faults = all_faults(netlist)
    pis = netlist.inputs()
    lfsrs = {
        pi: LFSR(16, seed=(seed + 17 * k) | 1) for k, pi in enumerate(pis)
    }
    horizon = max(checkpoints)
    seq = [
        {pi: lfsrs[pi].step() & 1 for pi in pis} for _ in range(horizon)
    ]
    # fault_simulate_cycles collapses internally and expands the
    # per-fault first-detection cycles exactly.
    cycles = fault_simulate_cycles(
        netlist, faults, seq, width=1, collapse=collapse
    )
    curve: list[tuple[int, float]] = []
    for target in sorted(checkpoints):
        det = sum(1 for c in cycles.values() if c is not None and c < target)
        curve.append((target, coverage(det, len(faults))))
    return curve
